//! The fixed deployment every workload runs against: one process, three
//! durable providers behind `TcpServer` on loopback, one `DataSource`.

use crate::oracle::{Emp, Oracle};
use crate::trace::{TracedCall, TracedProvider, Tracer};
use dasp_client::{ClientKeys, ColumnSpec, DataSource, TableSchema, Value};
use dasp_net::{Cluster, ReactorConfig, SharedService, TcpClient, TcpClientConfig, TcpServer};
use dasp_server::{DurableConfig, ProviderService, RecoveryReport};
use dasp_sss::ShareMode;
use dasp_storage::{WalConfig, WalStats};
use dasp_workload::employees::{self, SalaryDist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const TABLE: &str = "employees";
/// Threshold and provider count.
pub const K: usize = 2;
pub const N: usize = 3;
pub const EID_DOMAIN: u64 = 1 << 30;
pub const SALARY_DOMAIN: u64 = 1 << 20;
pub const SSN_DOMAIN: u64 = 1 << 30;
/// Rows per insert during preload and `bulk_load`.
pub const BATCH_ROWS: usize = 1000;
pub const RPC_TIMEOUT: Duration = Duration::from_secs(30);
/// A checkpoint every 256 logged ops, so that checkpoints fall inside a
/// write window of seconds; the default 4096 would give none.
pub const CHECKPOINT_EVERY: u64 = 256;
/// 1024 frames of 4 KiB: a 4 MiB buffer pool per provider.
pub const POOL_FRAMES: usize = 1024;

/// Shipping flush policy (`fsync_every` 8, `batch_window` 2 ms).
pub fn durable_config() -> DurableConfig {
    DurableConfig {
        wal: WalConfig::default(),
        checkpoint_every: CHECKPOINT_EVERY,
        pool_frames: POOL_FRAMES,
    }
}

pub fn reactor_config() -> ReactorConfig {
    ReactorConfig {
        shards: 1,
        workers: 1,
        ..ReactorConfig::default()
    }
}

/// `employees(eid, name, salary, ssn)`: a unique key, a text column, an
/// order-preserving column and a random one — all three share modes.
pub fn schema() -> TableSchema {
    TableSchema::new(
        TABLE,
        vec![
            ColumnSpec::numeric("eid", EID_DOMAIN, ShareMode::Deterministic),
            ColumnSpec::text("name", 8, ShareMode::Deterministic),
            ColumnSpec::numeric("salary", SALARY_DOMAIN, ShareMode::OrderPreserving),
            ColumnSpec::numeric("ssn", SSN_DOMAIN, ShareMode::Random),
        ],
    )
    .expect("the employees schema is valid")
}

/// `count` employees with consecutive `eid`s from `first_eid`.
pub fn generate(count: usize, first_eid: u64, seed: u64) -> Vec<Emp> {
    employees::generate(count, SALARY_DOMAIN, SalaryDist::Uniform, seed)
        .into_iter()
        .zip(first_eid..)
        .map(|(e, eid)| Emp {
            eid,
            name: e.name,
            salary: e.salary,
            ssn: e.ssn,
        })
        .collect()
}

struct Provider {
    service: Arc<ProviderService>,
    server: TcpServer,
}

/// The counters the report uses, summed over the three providers:
/// `ServerStatsSnapshot`, `EngineStats` and `WalStats::fsyncs` (the one
/// WAL counter a checkpoint does not restart).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProviderCounters {
    pub frames_in: u64,
    pub batch_frames_in: u64,
    pub backpressure_pauses: u64,
    pub protocol_errors: u64,
    pub index_probes: u64,
    pub full_scans: u64,
    pub rows_examined: u64,
    pub wal_fsyncs: u64,
}

impl ProviderCounters {
    pub fn since(&self, earlier: &ProviderCounters) -> ProviderCounters {
        ProviderCounters {
            frames_in: self.frames_in - earlier.frames_in,
            batch_frames_in: self.batch_frames_in - earlier.batch_frames_in,
            backpressure_pauses: self.backpressure_pauses - earlier.backpressure_pauses,
            protocol_errors: self.protocol_errors - earlier.protocol_errors,
            index_probes: self.index_probes - earlier.index_probes,
            full_scans: self.full_scans - earlier.full_scans,
            rows_examined: self.rows_examined - earlier.rows_examined,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
        }
    }
}

pub struct Deployment {
    pub ds: DataSource,
    providers: Vec<Provider>,
    dirs: Vec<PathBuf>,
    addrs: Vec<SocketAddr>,
    tracer: Option<Arc<Tracer>>,
}

fn open_provider(dir: &Path) -> (Arc<ProviderService>, RecoveryReport) {
    let (service, report) = ProviderService::durable(dir, durable_config())
        .unwrap_or_else(|e| panic!("open provider in {}: {e}", dir.display()));
    (Arc::new(service), report)
}

fn serve(
    service: &Arc<ProviderService>,
    addr: SocketAddr,
    provider: usize,
    tracer: &Option<Arc<Tracer>>,
) -> TcpServer {
    let shared: Arc<dyn SharedService> = match tracer {
        None => Arc::clone(service) as Arc<dyn SharedService>,
        Some(tracer) => Arc::new(TracedProvider {
            inner: Arc::clone(service),
            tracer: Arc::clone(tracer),
            provider,
            seq: AtomicU64::new(0),
        }),
    };
    TcpServer::serve(addr, shared, reactor_config())
        .unwrap_or_else(|e| panic!("serve provider {provider} on {addr}: {e}"))
}

impl Deployment {
    /// Start three empty durable providers under `root` (wiped first),
    /// connect one client and create the table. With a tracer, both
    /// decorators are installed; without one the client is exactly
    /// `DataSource::connect_tcp`.
    pub fn deploy(root: &Path, seed: u64, tracer: Option<Arc<Tracer>>) -> Deployment {
        let _ = std::fs::remove_dir_all(root);
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
        let mut providers = Vec::with_capacity(N);
        let mut dirs = Vec::with_capacity(N);
        let mut addrs = Vec::with_capacity(N);
        for p in 0..N {
            let dir = root.join(format!("p{p}"));
            let (service, _) = open_provider(&dir);
            let server = serve(&service, loopback, p, &tracer);
            addrs.push(server.local_addr());
            dirs.push(dir);
            providers.push(Provider { service, server });
        }
        let keys = ClientKeys::generate(K, N, &mut StdRng::seed_from_u64(seed))
            .expect("k=2, n=3 is a valid sharing");
        let mut ds = match &tracer {
            None => DataSource::connect_tcp(keys, &addrs, RPC_TIMEOUT, 1).expect("connect"),
            Some(tracer) => {
                // What `Cluster::connect_tcp` does, with the decorator
                // between the cluster and each `TcpClient`.
                let cfg = TcpClientConfig {
                    error_hold: RPC_TIMEOUT * 2,
                    call_timeout: RPC_TIMEOUT * 2,
                    ..TcpClientConfig::default()
                };
                let calls = addrs
                    .iter()
                    .enumerate()
                    .map(|(p, addr)| {
                        Arc::new(TracedCall {
                            inner: Arc::new(
                                TcpClient::connect(*addr, cfg.clone()).expect("connect"),
                            ),
                            tracer: Arc::clone(tracer),
                            provider: p,
                            seq: AtomicU64::new(0),
                        }) as Arc<dyn SharedService>
                    })
                    .collect();
                let cluster = Cluster::spawn_concurrent(calls, RPC_TIMEOUT, 1);
                DataSource::new(keys, cluster).expect("cluster has n providers")
            }
        };
        ds.create_table(schema()).expect("create table");
        Deployment {
            ds,
            providers,
            dirs,
            addrs,
            tracer,
        }
    }

    /// Insert `emps` in `BATCH_ROWS` batches and record them in the
    /// oracle under the ids the client assigned.
    pub fn load(&mut self, emps: &[Emp], oracle: &mut Oracle) {
        for chunk in emps.chunks(BATCH_ROWS) {
            let values: Vec<Vec<Value>> = chunk.iter().map(Emp::values).collect();
            let ids = self.ds.insert(TABLE, &values).expect("preload insert");
            oracle.insert(&ids, chunk);
        }
    }

    pub fn counters(&self) -> ProviderCounters {
        let mut sum = ProviderCounters::default();
        for p in &self.providers {
            let server = p.server.stats();
            sum.frames_in += server.frames_in;
            sum.batch_frames_in += server.batch_frames_in;
            sum.backpressure_pauses += server.backpressure_pauses;
            sum.protocol_errors += server.protocol_errors;
            let engine = p.service.engine().stats();
            sum.index_probes += engine.index_probes;
            sum.full_scans += engine.full_scans;
            sum.rows_examined += engine.rows_examined;
            sum.wal_fsyncs += p.service.engine().wal_stats().map_or(0, |w| w.fsyncs);
        }
        sum
    }

    /// Per-provider WAL counters (they restart at every checkpoint).
    pub fn wal_stats(&self) -> Vec<WalStats> {
        self.providers
            .iter()
            .map(|p| p.service.engine().wal_stats().unwrap_or_default())
            .collect()
    }

    /// Bytes on disk across the three provider directories.
    pub fn dir_bytes(&self) -> u64 {
        self.dirs
            .iter()
            .flat_map(|d| std::fs::read_dir(d).into_iter().flatten().flatten())
            .filter_map(|f| f.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// Restart the providers: stop the servers, drop the engines, then
    /// `samples` times recover all three directories (timed as one
    /// sample each) and finally serve the recovered engines on the old
    /// addresses, where the client reconnects by itself. Returns the
    /// recovery times and the summed report of the last recovery.
    pub fn restart(&mut self, samples: usize) -> (Vec<Duration>, RecoveryReport) {
        self.providers.clear();
        let mut times = Vec::with_capacity(samples);
        let mut last = Vec::new();
        for _ in 0..samples.max(1) {
            last.clear();
            let start = Instant::now();
            for dir in &self.dirs {
                last.push(open_provider(dir));
            }
            times.push(start.elapsed());
        }
        let mut total = RecoveryReport::default();
        for (p, (service, report)) in last.into_iter().enumerate() {
            total.checkpoint_tables += report.checkpoint_tables;
            total.checkpoint_rows += report.checkpoint_rows;
            total.wal_records += report.wal_records;
            total.torn_bytes += report.torn_bytes;
            total.wal_reset |= report.wal_reset;
            let server = serve(&service, self.addrs[p], p, &self.tracer);
            self.providers.push(Provider { service, server });
        }
        (times, total)
    }

    /// Stop everything and delete the provider directories.
    pub fn teardown(self, root: &Path) {
        drop(self);
        let _ = std::fs::remove_dir_all(root);
    }
}
