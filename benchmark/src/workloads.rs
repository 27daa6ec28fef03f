//! The four workloads and the closed-loop driver that runs one of them
//! against a [`Deployment`], checking every result against the oracle.

use crate::deploy::{self, Deployment, ProviderCounters, BATCH_ROWS, SALARY_DOMAIN, TABLE};
use crate::oracle::{Emp, Oracle};
use crate::proc::{cpus, steal_ticks, CpuByBucket, CpuSnapshot};
use crate::stats::Latencies;
use crate::trace::{self, Analysis, Tracer};
use dasp_client::source::DecodedRow;
use dasp_client::{Predicate, Value};
use dasp_net::cost::TrafficSnapshot;
use dasp_server::RecoveryReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    RangeScan,
    WriteMix,
    BulkLoad,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointRead,
        Workload::RangeScan,
        Workload::WriteMix,
        Workload::BulkLoad,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::RangeScan => "range_scan",
            Workload::WriteMix => "write_mix",
            Workload::BulkLoad => "bulk_load",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads and which it
    /// bypasses (one line, also written to `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PointRead => {
                "select(eid = x), 1 row back: per-message cost (quorum dispatch, thread hops, \
                 frame codec, reactor tick) is nearly all of it; engine and share codec idle"
            }
            Workload::RangeScan => {
                "select(salary BETWEEN) at 1 % selectivity: engine scan, response encode, wire \
                 bytes and OP-share reconstruction dominate; a transport-only win must not show"
            }
            Workload::WriteMix => {
                "read, 1-row insert, read, eager 1-row update in turn: apply, WAL commit, \
                 snapshot publish, checkpoint, with reads interleaved"
            }
            Workload::BulkLoad => {
                "fixed-size load in 1000-row inserts, outgrowing the 4 MiB pool: client share \
                 encoding, large frames and large WAL records; per-message cost negligible"
            }
        }
    }

    /// Rows loaded before the warm-up.
    fn preloads(self) -> bool {
        self != Workload::BulkLoad
    }

    /// Ops after which the mix repeats. Slices of the window and the
    /// traced/untraced alternation switch between cycles, so that each
    /// side holds the same mix.
    fn cycle(self) -> u64 {
        match self {
            Workload::WriteMix => 4,
            _ => 1,
        }
    }

    /// Rows per insert op.
    fn insert_rows(self) -> usize {
        match self {
            Workload::BulkLoad => BATCH_ROWS,
            _ => 1,
        }
    }
}

/// How long a phase of a run lasts: a time, or a number of ops. A phase
/// that is a number of ops does the same work whatever the speed of the
/// code under test.
#[derive(Debug, Clone, Copy)]
pub enum Length {
    For(Duration),
    Ops(u64),
}

impl Length {
    fn over(self, started: Instant, ops: u64) -> bool {
        match self {
            Length::For(time) => started.elapsed() >= time,
            Length::Ops(count) => ops >= count,
        }
    }
}

/// `bulk_load` batches per second of `--seconds`: 200 000 rows at the
/// 10 s of `BENCHMARK.json`, which seed code loads in about 12 s.
const LOAD_BATCHES_PER_SECOND: u64 = 20;

/// Sizes of one run. `standard` is what `BENCHMARK.json` is measured
/// with; `quick` is the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Rows preloaded for the three steady-state workloads.
    pub table_rows: usize,
    /// How often set-up (deploy + preload) is timed; the last one is
    /// kept and measured on.
    pub setups: usize,
    pub warmup: Length,
    pub window: Length,
    /// How long to run ops of the kind the workload otherwise lacks,
    /// after the window, so that every workload reports both latencies.
    pub probe: Duration,
    /// Length of a slice of the window. `bulk_load` slows as its table
    /// grows, so its slices would not be alike: it gets one.
    pub slice: Duration,
    /// How often recovery of the three directories is timed.
    pub recoveries: usize,
}

impl Plan {
    pub fn standard(workload: Workload, seconds: u64) -> Plan {
        let steady = workload.preloads();
        Plan {
            table_rows: 100_000,
            // Without a preload set-up takes milliseconds, and its
            // median needs more samples to hold still.
            setups: if steady { 3 } else { 21 },
            warmup: if steady {
                Length::For(Duration::from_secs(1))
            } else {
                Length::Ops(5)
            },
            window: if steady {
                Length::For(Duration::from_secs(seconds))
            } else {
                Length::Ops(seconds * LOAD_BATCHES_PER_SECOND)
            },
            probe: Duration::from_millis(1500),
            slice: if steady {
                Duration::from_millis(500)
            } else {
                Duration::MAX
            },
            recoveries: 5,
        }
    }

    pub fn quick(workload: Workload) -> Plan {
        let steady = workload.preloads();
        Plan {
            table_rows: 10_000,
            setups: 1,
            warmup: if steady {
                Length::For(Duration::from_millis(200))
            } else {
                Length::Ops(1)
            },
            window: if steady {
                Length::For(Duration::from_secs(1))
            } else {
                Length::Ops(10)
            },
            probe: Duration::from_millis(100),
            slice: if steady {
                Duration::from_millis(100)
            } else {
                Duration::MAX
            },
            recoveries: 1,
        }
    }
}

/// Everything one run measured.
pub struct RunResult {
    pub setup_s: Vec<f64>,
    /// From the first op of the window to its last, the checks between
    /// slices included.
    pub window_s: f64,
    /// Ops completed inside the window.
    pub window_ops: u64,
    /// Latencies of correct ops: window and probe.
    pub reads: Latencies,
    pub writes: Latencies,
    /// Window ops only, all kinds: tails.
    pub window_latencies: Latencies,
    /// Every checked op: warm-up, window, probe, final and post-recovery
    /// checks.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Rows returned to or written by the client inside the window.
    pub rows_returned: u64,
    pub rows_written: u64,
    pub write_ops: u64,
    pub slices: Vec<Slice>,
    /// Share of the machine's CPU time the hypervisor gave to others
    /// during the window.
    pub steal_pct: f64,
    pub traffic: TrafficSnapshot,
    pub counters: ProviderCounters,
    pub wal_bytes: u64,
    pub rpc_failures: u64,
    pub threads: usize,
    pub recovery_ms: Vec<f64>,
    pub recovery: RecoveryReport,
    pub dir_bytes: u64,
    pub final_rows: u64,
    pub trace: Option<TraceResult>,
}

/// One stretch of the window: ops back to back and nothing else. Rates
/// and CPU per op are reported as the median over slices, so a burst of
/// interference (on a shared host the hypervisor takes the CPU away for
/// tenths of a second at a time) moves a few slices and not the result.
/// The harness's own work on the driver thread — checking results
/// against the oracle, reading `/proc` — is done between slices, in no
/// slice's time or CPU.
pub struct Slice {
    pub secs: f64,
    pub ops: u64,
    pub cpu: CpuByBucket,
}

pub struct TraceResult {
    pub analysis: Analysis,
    /// Window latencies of the workload's majority op kind, split by
    /// whether the op was traced (ops alternate).
    pub traced: Latencies,
    pub untraced: Latencies,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

/// What an op asked for and what came back, kept until it is checked.
enum Check {
    Point {
        eid: u64,
        result: Result<Vec<DecodedRow>, String>,
    },
    Range {
        lo: u64,
        hi: u64,
        result: Result<Vec<DecodedRow>, String>,
    },
    Insert {
        emps: Vec<Emp>,
        result: Result<Vec<u64>, String>,
    },
    Update {
        eid: u64,
        salary: u64,
        result: Result<usize, String>,
    },
}

/// One finished op, not yet checked.
struct Done {
    kind: Kind,
    ns: u64,
    traced: bool,
    check: Check,
}

/// WAL bytes made durable, accumulated across the counter restarts that
/// checkpoints cause. Sampled after every write op (three uncontended
/// lock-and-copy reads, against a write that waits out a WAL flush): the
/// write path is synchronous, so by then all three providers have
/// committed it, and a checkpoint between two samples loses nothing.
#[derive(Default)]
struct WalMeter {
    last: Vec<u64>,
    total: u64,
}

impl WalMeter {
    fn sample(&mut self, dep: &Deployment) {
        let now: Vec<u64> = dep.wal_stats().iter().map(|w| w.durable_bytes).collect();
        if self.last.len() == now.len() {
            for (&before, &after) in self.last.iter().zip(&now) {
                // A smaller reading means a checkpoint retired the log
                // in between; what is there was written since.
                self.total += after.checked_sub(before).unwrap_or(after);
            }
        }
        self.last = now;
    }
}

/// The rows of one insert op, as the oracle and as the typed API take
/// them.
struct Batch {
    emps: Vec<Emp>,
    values: Vec<Vec<Value>>,
}

struct Driver<'a> {
    workload: Workload,
    dep: &'a mut Deployment,
    oracle: &'a mut Oracle,
    rng: StdRng,
    tracer: Option<Arc<Tracer>>,
    seed: u64,
    /// Insert ops generated ahead of their use, so that a measured
    /// stretch holds none of the generator's work.
    prepared: VecDeque<Batch>,
    refills: u64,
    /// `eid`s below this are taken, by a row or by a prepared batch.
    generated_eid: u64,
    /// `eid`s below this have been sent to the system.
    next_eid: u64,
    /// Position in `write_mix`'s cycle.
    turn: u64,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Driver<'_> {
    /// Generate `batches` more insert ops of the workload's size.
    fn prepare(&mut self, batches: usize) {
        let rows = self.workload.insert_rows();
        self.refills += 1;
        let emps = deploy::generate(
            batches * rows,
            self.generated_eid,
            self.seed ^ (self.refills << 20),
        );
        self.generated_eid += emps.len() as u64;
        for chunk in emps.chunks(rows) {
            self.prepared.push_back(Batch {
                emps: chunk.to_vec(),
                values: chunk.iter().map(Emp::values).collect(),
            });
        }
    }

    /// Run `op` as one timed operation, under a root span if `record`
    /// and the tracer can tell its calls from earlier ones. Returns the
    /// result, the time taken and whether the op was traced.
    fn timed<T>(&mut self, record: bool, op: impl FnOnce(&mut Deployment) -> T) -> (T, u64, bool) {
        let guard = self.tracer.as_deref().map(|t| {
            let dispatched = self.dep.ds.cluster().stats().snapshot().messages_sent;
            t.begin_op(record, dispatched)
        });
        let start = Instant::now();
        let out = op(self.dep);
        let ns = start.elapsed().as_nanos() as u64;
        let traced = guard.is_some_and(|guard| guard.end());
        (out, ns, traced)
    }

    fn point_read(&mut self, record: bool) -> Done {
        let eid = self.rng.gen_range(0..self.next_eid);
        let (result, ns, traced) = self.timed(record, |dep| {
            dep.ds.select(TABLE, &[Predicate::eq("eid", eid)])
        });
        Done {
            kind: Kind::Read,
            ns,
            traced,
            check: Check::Point {
                eid,
                result: result.map_err(|e| e.to_string()),
            },
        }
    }

    fn range_scan(&mut self, record: bool) -> Done {
        // 1 % of the salary domain: about 1 % of a uniform table.
        let width = SALARY_DOMAIN / 100;
        let lo = self.rng.gen_range(0..SALARY_DOMAIN - width);
        let hi = lo + width - 1;
        let (result, ns, traced) = self.timed(record, |dep| {
            dep.ds
                .select(TABLE, &[Predicate::between("salary", lo, hi)])
        });
        Done {
            kind: Kind::Read,
            ns,
            traced,
            check: Check::Range {
                lo,
                hi,
                result: result.map_err(|e| e.to_string()),
            },
        }
    }

    /// Insert the next prepared batch as one op.
    fn insert(&mut self, record: bool) -> Done {
        if self.prepared.is_empty() {
            self.prepare(256);
        }
        let Batch { emps, values } = self.prepared.pop_front().expect("just prepared");
        self.next_eid += emps.len() as u64;
        let (result, ns, traced) = self.timed(record, |dep| dep.ds.insert(TABLE, &values));
        Done {
            kind: Kind::Write,
            ns,
            traced,
            check: Check::Insert {
                emps,
                result: result.map_err(|e| e.to_string()),
            },
        }
    }

    /// Eager §V-C update: retrieve, reconstruct, re-share, push.
    fn update_one(&mut self, record: bool) -> Done {
        let eid = self.rng.gen_range(0..self.next_eid);
        let salary = self.rng.gen_range(0..SALARY_DOMAIN);
        let (result, ns, traced) = self.timed(record, |dep| {
            dep.ds.update_where(
                TABLE,
                &[Predicate::eq("eid", eid)],
                &[("salary", Value::Int(salary))],
            )
        });
        Done {
            kind: Kind::Write,
            ns,
            traced,
            check: Check::Update {
                eid,
                salary,
                result: result.map_err(|e| e.to_string()),
            },
        }
    }

    /// One op of the workload's mix.
    fn step(&mut self, record: bool) -> Done {
        match self.workload {
            Workload::PointRead => self.point_read(record),
            Workload::RangeScan => self.range_scan(record),
            // A fixed cycle, not a draw: the share of 50 ms writes among
            // a few hundred ops would otherwise differ from run to run.
            Workload::WriteMix => {
                self.turn += 1;
                match self.turn % 4 {
                    1 | 3 => self.point_read(record),
                    2 => self.insert(record),
                    _ => self.update_one(record),
                }
            }
            Workload::BulkLoad => self.insert(record),
        }
    }

    /// One op of the kind the workload's mix lacks.
    fn probe(&mut self) -> Option<Done> {
        match self.workload {
            Workload::PointRead | Workload::RangeScan => Some(self.insert(false)),
            Workload::WriteMix => None,
            Workload::BulkLoad => Some(self.point_read(false)),
        }
    }

    /// Compare one op's result with the model and apply a write to the
    /// model; ops are settled in the order they ran. Returns the rows the
    /// op moved, or `None` for a failed op.
    fn settle(&mut self, check: Check) -> Option<u64> {
        let verdict = match check {
            Check::Point { eid, result } => match result {
                Ok(rows) if self.oracle.check_point(eid, &rows) => Ok(rows.len()),
                Ok(rows) => Err(format!("eid = {eid}: wrong result {rows:?}")),
                Err(e) => Err(format!("eid = {eid}: {e}")),
            },
            Check::Range { lo, hi, result } => match result {
                Ok(rows) if self.oracle.check_range(lo, hi, &rows) => Ok(rows.len()),
                Ok(rows) => Err(format!(
                    "salary {lo}..={hi}: wrong result, {} rows",
                    rows.len()
                )),
                Err(e) => Err(format!("salary {lo}..={hi}: {e}")),
            },
            Check::Insert { emps, result } => match result {
                Ok(ids) if ids.len() == emps.len() => {
                    self.oracle.insert(&ids, &emps);
                    Ok(emps.len())
                }
                Ok(ids) => Err(format!(
                    "insert of {} rows returned {} ids",
                    emps.len(),
                    ids.len()
                )),
                Err(e) => Err(format!("insert of {} rows: {e}", emps.len())),
            },
            Check::Update {
                eid,
                salary,
                result,
            } => match result {
                Ok(updated) => {
                    let expected = self.oracle.update_salary(eid, salary);
                    if updated == expected {
                        Ok(1)
                    } else {
                        Err(format!(
                            "update eid = {eid}: {updated} rows, expected {expected}"
                        ))
                    }
                }
                Err(e) => Err(format!("update eid = {eid}: {e}")),
            },
        };
        match verdict {
            Ok(rows) => {
                self.tally(None);
                Some(rows as u64)
            }
            Err(e) => {
                self.tally(Some(e));
                None
            }
        }
    }

    /// Count one checked op.
    fn tally(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// `count` and `sum(salary)` of the whole table, a few point reads
    /// and one range scan, all against the model.
    fn verify_table(&mut self, when: &str) {
        let count = self.dep.ds.count(TABLE, &[]);
        let expected = self.oracle.count();
        self.tally(match count {
            Ok(n) if n == expected => None,
            Ok(n) => Some(format!("{when}: count {n}, expected {expected}")),
            Err(e) => Some(format!("{when}: count: {e}")),
        });
        let sum = self.dep.ds.sum(TABLE, "salary", &[]);
        let expected = Value::Int(self.oracle.salary_sum());
        self.tally(match sum {
            Ok(agg) if agg.value.as_ref() == Some(&expected) => None,
            Ok(agg) => Some(format!(
                "{when}: sum(salary) {:?}, expected {expected:?}",
                agg.value
            )),
            Err(e) => Some(format!("{when}: sum(salary): {e}")),
        });
        for _ in 0..16 {
            let done = self.point_read(false);
            self.settle(done.check);
        }
        let done = self.range_scan(false);
        self.settle(done.check);
    }
}

/// Run one workload once: set up, warm up, measure, probe, verify,
/// restart, verify again.
pub fn run(workload: Workload, seed: u64, plan: Plan, traced: bool, scratch: &Path) -> RunResult {
    let root = scratch.join(format!("run-{}", std::process::id()));
    let tracer = traced.then(Tracer::new);
    let preload = if workload.preloads() {
        deploy::generate(plan.table_rows, 0, seed)
    } else {
        Vec::new()
    };

    // Set-up, timed `setups` times; the last deployment is kept.
    let mut setup_s = Vec::with_capacity(plan.setups);
    let mut kept = None;
    for _ in 0..plan.setups.max(1) {
        if let Some((dep, _)) = kept.take() {
            Deployment::teardown(dep, &root);
        }
        let start = Instant::now();
        let mut dep = Deployment::deploy(&root, seed, tracer.clone());
        let mut oracle = Oracle::default();
        dep.load(&preload, &mut oracle);
        setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((dep, oracle));
    }
    let (mut dep, mut oracle) = kept.expect("at least one set-up ran");

    let mut driver = Driver {
        workload,
        dep: &mut dep,
        oracle: &mut oracle,
        rng: StdRng::seed_from_u64(seed ^ 0x6f70_735f_7365_6564),
        tracer: tracer.clone(),
        seed,
        prepared: VecDeque::new(),
        refills: 0,
        generated_eid: preload.len() as u64,
        next_eid: preload.len() as u64,
        turn: 0,
        attempted: 0,
        failed: 0,
        first_failure: None,
    };
    // A load of a fixed size is generated whole before it starts.
    if let (Length::Ops(warmup), Length::Ops(window)) = (plan.warmup, plan.window) {
        driver.prepare((warmup + window) as usize);
    }

    // Warm-up: same ops, checked but not timed into any metric. It ends
    // between two cycles of the mix.
    let start = Instant::now();
    let mut warmup_ops = 0;
    while !plan.warmup.over(start, warmup_ops) || !driver.turn.is_multiple_of(workload.cycle()) {
        let done = driver.step(false);
        driver.settle(done.check);
        warmup_ops += 1;
    }

    // The measured window.
    // Indexed by `Kind`: reads, writes.
    let mut by_kind = [Latencies::default(), Latencies::default()];
    let mut window_latencies = Latencies::default();
    let mut by_trace = [Latencies::default(), Latencies::default()];
    let majority = match workload {
        Workload::BulkLoad => Kind::Write,
        _ => Kind::Read,
    };
    let mut wal = WalMeter::default();
    wal.sample(driver.dep);
    let (mut window_ops, mut rows_returned, mut rows_written, mut write_ops) = (0u64, 0, 0, 0);
    let failures_before = rpc_failures(driver.dep);
    let counters_before = driver.dep.counters();
    let traffic_before = driver.dep.ds.cluster().stats().snapshot();
    let steal_before = steal_ticks();
    let mut slices: Vec<Slice> = Vec::new();
    let mut unchecked: Vec<Done> = Vec::new();
    let start = Instant::now();
    while !plan.window.over(start, window_ops) {
        let (opened, cpu_before, ops_before) = (Instant::now(), CpuSnapshot::take(), window_ops);
        loop {
            // Every other cycle is traced, so traced and untraced ops see
            // the same mix, the same table size and the same machine.
            let record = traced && (window_ops / workload.cycle()) % 2 == 1;
            let done = driver.step(record);
            window_ops += 1;
            if done.kind == Kind::Write {
                write_ops += 1;
                wal.sample(driver.dep);
            }
            unchecked.push(done);
            // The slice ends once it is long enough, between two cycles.
            let whole = opened.elapsed() >= plan.slice
                && (window_ops - ops_before).is_multiple_of(workload.cycle());
            if whole || plan.window.over(start, window_ops) {
                break;
            }
        }
        let secs = opened.elapsed();
        let cpu = CpuSnapshot::take().since(&cpu_before);
        // What is left of the window after its last whole slice belongs
        // to no slice, unless it is all there is.
        if secs >= plan.slice || slices.is_empty() {
            slices.push(Slice {
                secs: secs.as_secs_f64(),
                ops: window_ops - ops_before,
                cpu,
            });
        }
        for done in unchecked.drain(..) {
            let Some(rows) = driver.settle(done.check) else {
                continue;
            };
            match done.kind {
                Kind::Read => rows_returned += rows,
                Kind::Write => rows_written += rows,
            }
            by_kind[done.kind as usize].push(done.ns);
            window_latencies.push(done.ns);
            if done.kind == majority {
                by_trace[usize::from(done.traced)].push(done.ns);
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let steal_pct = 100.0 * (steal_ticks() - steal_before) as f64 / (window_s * cpus() * 100.0);
    let traffic = driver
        .dep
        .ds
        .cluster()
        .stats()
        .snapshot()
        .since(&traffic_before);
    let counters = driver.dep.counters().since(&counters_before);
    let rpc_failures = rpc_failures(driver.dep) - failures_before;
    let threads = CpuSnapshot::take().thread_count();

    // The other kind of op, so both latencies exist on every workload.
    let start = Instant::now();
    while start.elapsed() < plan.probe {
        let Some(done) = driver.probe() else { break };
        if driver.settle(done.check).is_some() {
            by_kind[done.kind as usize].push(done.ns);
        }
    }

    driver.verify_table("before restart");
    let final_rows = driver.oracle.count();
    let (times, recovery) = driver.dep.restart(plan.recoveries);
    let dir_bytes = driver.dep.dir_bytes();
    driver.verify_table("after recovery");

    let (attempted, failed, first_failure) =
        (driver.attempted, driver.failed, driver.first_failure.take());
    let trace = tracer.map(|t| {
        let spans = t.finish();
        let path = scratch.join(format!("trace-{}.jsonl", workload.name()));
        if let Err(e) = trace::write_jsonl(&path, &spans) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        let [untraced, traced] = by_trace;
        TraceResult {
            analysis: trace::analyse(&spans),
            traced,
            untraced,
        }
    });
    Deployment::teardown(dep, &root);

    let [reads, writes] = by_kind;
    RunResult {
        setup_s,
        window_s,
        window_ops,
        reads,
        writes,
        window_latencies,
        attempted,
        failed,
        first_failure,
        rows_returned,
        rows_written,
        write_ops,
        slices,
        steal_pct,
        traffic,
        counters,
        wal_bytes: wal.total,
        rpc_failures,
        threads,
        recovery_ms: times.iter().map(|t| t.as_secs_f64() * 1e3).collect(),
        recovery,
        dir_bytes,
        final_rows,
        trace,
    }
}

fn rpc_failures(dep: &Deployment) -> u64 {
    dep.ds
        .health()
        .providers
        .iter()
        .map(|p| p.total_failures)
        .sum()
}
