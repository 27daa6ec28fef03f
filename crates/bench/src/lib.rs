//! Shared harness for the experiment suite and criterion benches.
//!
//! Every experiment (E1–E13, see EXPERIMENTS.md) needs the same scaffolding:
//! deploy a cluster, load a workload, measure compute time and metered
//! traffic, convert traffic into modeled WAN time. This crate centralizes
//! that so each bench states only its sweep.

use dasp_client::{ColumnSpec, DataSource, TableSchema, Value};
use dasp_core::client::ClientKeys;
use dasp_net::{Cluster, NetworkModel, SharedService, TrafficStats};
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use dasp_workload::employees::{self, SalaryDist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured run: wall-clock compute plus metered traffic.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Client+provider compute time actually spent.
    pub compute: Duration,
    /// Bytes moved both directions.
    pub bytes: u64,
    /// Request/response round trips.
    pub round_trips: u64,
}

impl Measurement {
    /// End-to-end time under a network model.
    pub fn end_to_end(&self, model: &NetworkModel) -> Duration {
        self.compute + model.transfer_time(self.bytes, self.round_trips as u32)
    }
}

/// Measure `f` against the given traffic meters.
pub fn measure<T>(stats: &TrafficStats, f: impl FnOnce() -> T) -> (T, Measurement) {
    let before = stats.snapshot();
    let start = Instant::now();
    let out = f();
    let compute = start.elapsed();
    let delta = stats.snapshot().since(&before);
    (
        out,
        Measurement {
            compute,
            bytes: delta.total_bytes(),
            round_trips: delta.round_trips,
        },
    )
}

/// A deployed employees database plus its plaintext ground truth.
pub struct EmployeesDeployment {
    /// The data source, table `employees` created and loaded.
    pub ds: DataSource,
    /// The plaintext rows (for oracles).
    pub data: Vec<employees::Employee>,
}

/// Salary domain used across the suite.
pub const SALARY_DOMAIN: u64 = 1 << 20;

/// Deploy `n` providers (threshold `k`) and load `rows` employees.
pub fn deploy_employees(k: usize, n: usize, rows: usize, seed: u64) -> EmployeesDeployment {
    deploy_employees_concurrent(k, n, rows, seed, 1, Duration::ZERO)
}

/// Like [`deploy_employees`], but each provider serves requests from a
/// `workers`-thread pool (shared-read engine), so overlapping requests
/// interleave instead of queueing behind one service thread, and every
/// request first sleeps `wan` on the worker that serves it: an emulated
/// WAN round trip that occupies its worker.
pub fn deploy_employees_concurrent(
    k: usize,
    n: usize,
    rows: usize,
    seed: u64,
    workers: usize,
    wan: Duration,
) -> EmployeesDeployment {
    let services = provider_fleet(n)
        .into_iter()
        .map(|inner| {
            if wan.is_zero() {
                inner
            } else {
                Arc::new(Wan { inner, delay: wan }) as Arc<dyn SharedService>
            }
        })
        .collect();
    let cluster = Cluster::spawn_concurrent(services, Duration::from_secs(30), workers);
    deploy_onto(cluster, k, n, rows, seed)
}

/// A provider behind a WAN: each request sleeps `delay` before it is
/// handled, on the thread that handles it.
struct Wan {
    inner: Arc<dyn SharedService>,
    delay: Duration,
}

impl SharedService for Wan {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        std::thread::sleep(self.delay);
        self.inner.handle(request)
    }
}

fn deploy_onto(
    cluster: Cluster,
    k: usize,
    n: usize,
    rows: usize,
    seed: u64,
) -> EmployeesDeployment {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = ClientKeys::generate(k, n, &mut rng).expect("keys");
    let mut ds = DataSource::with_seed(keys, cluster, seed).expect("data source");
    ds.create_table(
        TableSchema::new(
            "employees",
            vec![
                ColumnSpec::text("name", 8, ShareMode::Deterministic),
                ColumnSpec::numeric("salary", SALARY_DOMAIN, ShareMode::OrderPreserving),
                ColumnSpec::numeric("ssn", 1 << 30, ShareMode::Random),
            ],
        )
        .expect("schema"),
    )
    .expect("create");
    let data = employees::generate(rows, SALARY_DOMAIN, SalaryDist::Uniform, seed ^ 0xbeef);
    let values: Vec<Vec<Value>> = data
        .iter()
        .map(|e| {
            vec![
                Value::Str(e.name.clone()),
                Value::Int(e.salary),
                Value::Int(e.ssn),
            ]
        })
        .collect();
    for chunk in values.chunks(1000) {
        ds.insert("employees", chunk).expect("insert");
    }
    EmployeesDeployment { ds, data }
}

/// Format a duration in engineering units for table output.
pub fn fmt_dur(d: Duration) -> String {
    if d < Duration::from_micros(1) {
        format!("{}ns", d.as_nanos())
    } else if d < Duration::from_millis(1) {
        format!("{:.1}µs", d.as_nanos() as f64 / 1e3)
    } else if d < Duration::from_secs(1) {
        format!("{:.2}ms", d.as_nanos() as f64 / 1e6)
    } else {
        format!("{:.2}s", d.as_secs_f64())
    }
}

/// Format a byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else if b < 1024 * 1024 * 1024 {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_client::Predicate;

    #[test]
    fn deployment_harness_works() {
        let mut dep = deploy_employees(2, 3, 100, 1);
        assert_eq!(dep.data.len(), 100);
        let stats = dep.ds.cluster().stats().clone();
        let (rows, m) = measure(&stats, || {
            dep.ds
                .select(
                    "employees",
                    &[Predicate::between("salary", 0u64, SALARY_DOMAIN - 1)],
                )
                .unwrap()
        });
        assert_eq!(rows.len(), 100);
        assert!(m.bytes > 0);
        assert!(m.round_trips >= 1);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(10), "10B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert!(fmt_dur(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_dur(Duration::from_nanos(10)).ends_with("ns"));
    }
}
