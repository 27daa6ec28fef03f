//! CPU time per layer from `/proc/self/task/*/{comm,schedstat}`,
//! bucketed by the thread names the code under test already sets.

use std::collections::HashMap;

/// Which layer a thread's CPU time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// The closed-loop driver: `DataSource` calls (dasp-client, dasp-sss,
    /// dasp-field) plus the benchmark's own key generation and oracle.
    Driver,
    /// `Cluster` worker threads, one per provider, client side.
    RpcWorker,
    /// `TcpClient` reader and batcher threads, client side.
    NetClient,
    /// `TcpServer` reactor shards and acceptor, provider side.
    Reactor,
    /// `TcpServer` worker pool running `ProviderService`, provider side.
    ServerWorker,
    /// WAL group-commit flusher, provider side.
    WalFlusher,
    /// Anything else: the main thread, unnamed helper threads.
    Other,
}

impl Bucket {
    pub const ALL: [Bucket; 7] = [
        Bucket::Driver,
        Bucket::RpcWorker,
        Bucket::NetClient,
        Bucket::Reactor,
        Bucket::ServerWorker,
        Bucket::WalFlusher,
        Bucket::Other,
    ];

    /// True for threads the data owner pays for.
    pub fn is_client_side(self) -> bool {
        matches!(self, Bucket::Driver | Bucket::RpcWorker | Bucket::NetClient)
    }

    /// True for threads the service providers pay for.
    pub fn is_provider_side(self) -> bool {
        matches!(
            self,
            Bucket::Reactor | Bucket::ServerWorker | Bucket::WalFlusher
        )
    }
}

/// Name the driver thread is spawned under.
pub const DRIVER_THREAD: &str = "bench-driver";

/// Map a thread's `comm` to its layer. The kernel keeps 15 bytes of a
/// thread name, so `dasp-wal-flusher` reads back as `dasp-wal-flushe`
/// and `dasp-provider-0-w0` as `dasp-provider-0`: match on prefixes
/// that survive the cut. A thread that never set a name inherits the
/// process name and lands in `Other`.
pub fn bucket(comm: &str) -> Bucket {
    const PREFIXES: [(&str, Bucket); 8] = [
        (DRIVER_THREAD, Bucket::Driver),
        ("dasp-provider-", Bucket::RpcWorker),
        ("dasp-tcp-reader", Bucket::NetClient),
        ("dasp-tcp-batche", Bucket::NetClient),
        ("dasp-reactor-", Bucket::Reactor),
        ("dasp-acceptor", Bucket::Reactor),
        ("dasp-tcp-worker", Bucket::ServerWorker),
        ("dasp-wal-flushe", Bucket::WalFlusher),
    ];
    PREFIXES
        .iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map_or(Bucket::Other, |&(_, b)| b)
}

/// On-CPU nanoseconds from `/proc/<pid>/task/<tid>/schedstat` (its first
/// field): the user+system time `stat` reports, before the kernel rounds
/// it to 10 ms ticks. A write-heavy run gives the client threads a few
/// ticks in all, so the rounding would be most of the number.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU nanoseconds of every live thread of this process, by thread id.
#[derive(Debug, Default, Clone)]
pub struct CpuSnapshot {
    threads: HashMap<u64, (Bucket, u64)>,
}

impl CpuSnapshot {
    /// Read `/proc/self/task`. Threads that vanish mid-read are skipped.
    /// Panics where the kernel keeps no scheduler statistics: CPU per op
    /// cannot be measured there, and 0 would read as a result.
    pub fn take() -> CpuSnapshot {
        let mut threads = HashMap::new();
        for entry in std::fs::read_dir("/proc/self/task")
            .expect("list /proc/self/task")
            .flatten()
        {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let comm = std::fs::read_to_string(entry.path().join("comm"));
            let ns = std::fs::read_to_string(entry.path().join("schedstat"))
                .ok()
                .and_then(|s| parse_schedstat(&s));
            if let (Ok(comm), Some(ns)) = (comm, ns) {
                threads.insert(tid, (bucket(comm.trim_end()), ns));
            }
        }
        assert!(
            !threads.is_empty(),
            "no /proc/self/task/*/schedstat: a kernel without scheduler statistics"
        );
        CpuSnapshot { threads }
    }

    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// CPU microseconds per bucket spent between `earlier` and `self`.
    /// A thread born in between counts from zero; one that exited in
    /// between is lost, so bracket only windows whose threads outlive
    /// them.
    pub fn since(&self, earlier: &CpuSnapshot) -> CpuByBucket {
        let mut us = HashMap::new();
        for (tid, &(bucket, ns)) in &self.threads {
            let before = earlier.threads.get(tid).map_or(0, |&(_, t)| t);
            *us.entry(bucket).or_insert(0) += ns.saturating_sub(before) / 1_000;
        }
        CpuByBucket { us }
    }
}

/// CPU microseconds per layer over one window.
#[derive(Debug, Default, Clone)]
pub struct CpuByBucket {
    us: HashMap<Bucket, u64>,
}

impl CpuByBucket {
    pub fn get(&self, bucket: Bucket) -> u64 {
        self.us.get(&bucket).copied().unwrap_or(0)
    }

    pub fn client_side(&self) -> u64 {
        Bucket::ALL
            .into_iter()
            .filter(|b| b.is_client_side())
            .map(|b| self.get(b))
            .sum()
    }

    pub fn provider_side(&self) -> u64 {
        Bucket::ALL
            .into_iter()
            .filter(|b| b.is_provider_side())
            .map(|b| self.get(b))
            .sum()
    }
}

/// The `steal` column of the `cpu` line of `/proc/stat`: ticks, summed
/// over CPUs, in which the hypervisor ran something else.
pub fn parse_steal(proc_stat: &str) -> Option<u64> {
    let mut fields = proc_stat.lines().next()?.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal
    fields.nth(7)?.parse().ok()
}

/// Steal ticks since boot; 0 where `/proc/stat` cannot be read.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal(&s))
        .unwrap_or(0)
}

pub fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0.0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat = "cpu  224108 0 43398 561148 5880 0 4957 15124 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(15124));
        assert_eq!(parse_steal("cpu 1 2 3"), None);
        assert_eq!(parse_steal("intr 1 2 3 4 5 6 7 8 9"), None);
    }

    #[test]
    fn schedstat_yields_on_cpu_nanoseconds() {
        assert_eq!(parse_schedstat("123456789 4242 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn names_are_bucketed_after_the_15_byte_cut() {
        // What the kernel reports for the names the code sets.
        for (set, expected) in [
            ("bench-driver", Bucket::Driver),
            ("dasp-provider-2-w0", Bucket::RpcWorker),
            ("dasp-tcp-reader", Bucket::NetClient),
            ("dasp-tcp-batcher", Bucket::NetClient),
            ("dasp-reactor-0", Bucket::Reactor),
            ("dasp-acceptor", Bucket::Reactor),
            ("dasp-tcp-worker-0", Bucket::ServerWorker),
            ("dasp-wal-flusher", Bucket::WalFlusher),
        ] {
            let comm: String = set.chars().take(15).collect();
            assert_eq!(bucket(&comm), expected, "{set} -> {comm}");
        }
    }

    #[test]
    fn unnamed_threads_fall_into_other() {
        assert_eq!(bucket("dasp-benchmark"), Bucket::Other);
        assert_eq!(bucket(""), Bucket::Other);
        assert_eq!(bucket("dasp-unknown"), Bucket::Other);
    }

    #[test]
    fn sides_partition_the_named_buckets() {
        for b in Bucket::ALL {
            let sides = u8::from(b.is_client_side()) + u8::from(b.is_provider_side());
            assert_eq!(sides, u8::from(b != Bucket::Other), "{b:?}");
        }
    }

    #[test]
    fn delta_counts_new_threads_from_zero() {
        let mut before = CpuSnapshot::default();
        before.threads.insert(1, (Bucket::Driver, 10_000));
        let mut after = CpuSnapshot::default();
        after.threads.insert(1, (Bucket::Driver, 25_000));
        after.threads.insert(2, (Bucket::Reactor, 4_000));
        let d = after.since(&before);
        assert_eq!(d.get(Bucket::Driver), 15);
        assert_eq!(d.get(Bucket::Reactor), 4);
        assert_eq!(d.client_side(), 15);
        assert_eq!(d.provider_side(), 4);
    }

    #[test]
    fn live_snapshot_charges_a_named_thread_to_its_bucket() {
        // 16 bytes: the kernel cuts the name, the prefix still matches.
        let cpu = std::thread::Builder::new()
            .name("dasp-wal-flusher".into())
            .spawn(|| {
                let start = std::time::Instant::now();
                while start.elapsed().as_millis() < 20 {
                    std::hint::black_box(0u64);
                }
                CpuSnapshot::take().since(&CpuSnapshot::default())
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(cpu.get(Bucket::WalFlusher) > 0);
        assert_eq!(cpu.provider_side(), cpu.get(Bucket::WalFlusher));
    }
}
