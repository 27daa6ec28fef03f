//! Glue between [`ProviderEngine`] and the RPC fabric.

use crate::engine::{DurableConfig, ProviderEngine, RecoveryReport};
use crate::proto::{Request, Response};
use dasp_net::SharedService;
use dasp_storage::RecoveryError;
use std::path::Path;
use std::sync::Arc;

/// A provider as an RPC service: decodes requests, runs the engine,
/// encodes responses. Undecodable requests produce an encoded
/// [`Response::Error`], never a crash — a provider must survive malformed
/// (or malicious) client traffic.
pub struct ProviderService {
    engine: ProviderEngine,
}

impl Default for ProviderService {
    fn default() -> Self {
        Self::new()
    }
}

impl ProviderService {
    /// A service with a fresh engine.
    pub fn new() -> Self {
        ProviderService {
            engine: ProviderEngine::new(),
        }
    }

    /// Open (or recover) a durable provider in `dir` and serve it.
    pub fn durable(
        dir: &Path,
        cfg: DurableConfig,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let (engine, report) = ProviderEngine::durable(dir, cfg)?;
        Ok((ProviderService { engine }, report))
    }

    /// Shared view of the engine. Execution is `&self`: the engine's
    /// internal read/write lock arbitrates concurrent requests.
    pub fn engine(&self) -> &ProviderEngine {
        &self.engine
    }
}

impl SharedService for ProviderService {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let response = match Request::decode(request) {
            Ok(req) => self.engine.execute(&req),
            Err(e) => Response::Error(format!("bad request: {e}")),
        };
        response.encode()
    }

    /// Exactly the requests `ProviderEngine::execute_read` serves, told
    /// from the tag byte: they run against the published snapshot and
    /// never meet the writer mutex or an fsync. An empty payload or an
    /// unknown tag is not inline; it reaches `Request::decode` on a
    /// worker and comes back as a [`Response::Error`].
    fn runs_inline(&self, request: &[u8]) -> bool {
        request.first().and_then(|&tag| Request::tag_is_write(tag)) == Some(false)
    }
}

/// Build `n` independent providers for [`dasp_net::Cluster::spawn_concurrent`]:
/// each serves requests from a per-provider worker pool, with reads
/// interleaving under the engine's shared lock.
pub fn provider_fleet(n: usize) -> Vec<Arc<dyn SharedService>> {
    (0..n)
        .map(|_| Arc::new(ProviderService::new()) as Arc<dyn SharedService>)
        .collect()
}

/// Serve one fresh provider over real TCP on `addr` (use port 0 for an
/// ephemeral port; read it back via [`dasp_net::TcpServer::local_addr`]).
/// Every connection's thread runs its reads against the published
/// snapshot and hands its writes to the server's worker pool, so any
/// number of client sockets share one provider.
pub fn serve_provider_tcp(
    addr: &str,
    cfg: dasp_net::ReactorConfig,
) -> std::io::Result<dasp_net::TcpServer> {
    dasp_net::TcpServer::serve(addr, Arc::new(ProviderService::new()), cfg)
}

/// Spin up `n` independent TCP providers on ephemeral loopback ports —
/// the socket-transport analogue of [`provider_fleet`]. Returns
/// the servers (keep them alive: dropping a server shuts it down) and
/// the addresses to hand to [`dasp_net::Cluster::connect_tcp`].
pub fn tcp_provider_fleet(
    n: usize,
    cfg: dasp_net::ReactorConfig,
) -> std::io::Result<(Vec<dasp_net::TcpServer>, Vec<std::net::SocketAddr>)> {
    let mut servers = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let server = serve_provider_tcp("127.0.0.1:0", cfg.clone())?;
        addrs.push(server.local_addr());
        servers.push(server);
    }
    Ok((servers, addrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{PredAtom, Row};
    use dasp_net::Cluster;
    use std::time::Duration;

    #[test]
    fn end_to_end_over_rpc() {
        let cluster = Cluster::spawn_concurrent(provider_fleet(3), Duration::from_millis(500), 1);
        // Create the same table on all providers (with different shares,
        // as the client would).
        for p in 0..3 {
            let req = Request::CreateTable {
                name: "emp".into(),
                columns: vec!["salary".into()],
                indexed: vec![true],
            };
            let resp = Response::decode(&cluster.call(p, req.encode()).unwrap()).unwrap();
            assert_eq!(resp, Response::Ack);
            let req = Request::Insert {
                table: "emp".into(),
                rows: vec![Row {
                    id: 1,
                    shares: vec![100 + p as i128],
                }],
            };
            let resp = Response::decode(&cluster.call(p, req.encode()).unwrap()).unwrap();
            assert_eq!(resp, Response::Ack);
        }
        // Each provider sees only its own share.
        for p in 0..3 {
            let req = Request::Query {
                table: "emp".into(),
                predicate: vec![PredAtom::Eq {
                    col: 0,
                    share: 100 + p as i128,
                }],
                agg: None,
            };
            let resp = Response::decode(&cluster.call(p, req.encode()).unwrap()).unwrap();
            let Response::Rows(rows) = resp else { panic!() };
            assert_eq!(rows.len(), 1);
            assert_eq!(rows.to_rows()[0].shares, vec![100 + p as i128]);
        }
    }

    #[test]
    fn file_backed_provider_survives_data_volume() {
        // Durable engines in this binary share the process-global crash
        // hooks with the engine tests.
        let _gate = crate::engine::tests::HOOK_GATE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("dasp-provider-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (service, _) = ProviderService::durable(&dir, DurableConfig::default()).unwrap();
            let engine = service.engine();
            engine.execute(&Request::CreateTable {
                name: "t".into(),
                columns: vec!["v".into()],
                indexed: vec![true],
            });
            let rows: Vec<Row> = (0..2000u64)
                .map(|i| Row {
                    id: i + 1,
                    shares: vec![i as i128 * 5],
                })
                .collect();
            assert_eq!(
                engine.execute(&Request::Insert {
                    table: "t".into(),
                    rows
                }),
                Response::Ack
            );
            engine.checkpoint().unwrap();
        }
        // Everything comes back from the checkpoint file, nothing from
        // the log.
        let (service, report) = ProviderService::durable(&dir, DurableConfig::default()).unwrap();
        assert_eq!((report.checkpoint_rows, report.wal_records), (2000, 0));
        let resp = service.engine().execute(&Request::Query {
            table: "t".into(),
            predicate: vec![PredAtom::Range {
                col: 0,
                lo: 100,
                hi: 200,
            }],
            agg: None,
        });
        let Response::Rows(got) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(got.len(), 21); // shares 100,105,...,200
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_clients_share_one_cluster() {
        // The Cluster is used from multiple client threads at once; every
        // call must get its own reply (no cross-talk).
        let cluster = std::sync::Arc::new(Cluster::spawn_concurrent(
            provider_fleet(2),
            Duration::from_secs(2),
            1,
        ));
        // One shared table.
        let req = Request::CreateTable {
            name: "t".into(),
            columns: vec!["v".into()],
            indexed: vec![true],
        };
        for p in 0..2 {
            cluster.call(p, req.encode()).unwrap();
        }
        std::thread::scope(|scope| {
            for worker in 0..8u64 {
                let cluster = std::sync::Arc::clone(&cluster);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let id = worker * 1000 + i + 1;
                        let req = Request::Insert {
                            table: "t".into(),
                            rows: vec![Row {
                                id,
                                shares: vec![id as i128],
                            }],
                        };
                        for p in 0..2 {
                            let resp =
                                Response::decode(&cluster.call(p, req.encode()).unwrap()).unwrap();
                            assert_eq!(resp, Response::Ack, "worker {worker} row {id}");
                        }
                        // Read own write back.
                        let q = Request::Query {
                            table: "t".into(),
                            predicate: vec![PredAtom::Eq {
                                col: 0,
                                share: id as i128,
                            }],
                            agg: None,
                        };
                        let resp = Response::decode(&cluster.call(0, q.encode()).unwrap()).unwrap();
                        let Response::Rows(rows) = resp else { panic!() };
                        assert_eq!(rows.len(), 1);
                        assert_eq!(rows.ids()[0], id);
                    }
                });
            }
        });
        // Total row count is exact: no lost or duplicated writes.
        let resp = Response::decode(&cluster.call(0, Request::Stats.encode()).unwrap()).unwrap();
        assert_eq!(
            resp,
            Response::Stats {
                tables: 1,
                rows: 400
            }
        );
    }

    /// One request of every variant. The `match` stops compiling when a
    /// variant is added, until it is listed here too.
    fn one_of_each_request() -> Vec<Request> {
        let t = || "t".to_string();
        let all = vec![
            Request::CreateTable {
                name: t(),
                columns: vec!["v".into()],
                indexed: vec![true],
            },
            Request::Insert {
                table: t(),
                rows: vec![],
            },
            Request::Delete {
                table: t(),
                ids: vec![1],
            },
            Request::Update {
                table: t(),
                rows: vec![],
            },
            Request::Query {
                table: t(),
                predicate: vec![],
                agg: None,
            },
            Request::QueryOrdered {
                table: t(),
                predicate: vec![],
                order_col: 0,
                desc: false,
                limit: 1,
            },
            Request::GroupedAggregate {
                table: t(),
                predicate: vec![],
                group_col: 0,
                agg: crate::proto::AggOp::Count,
            },
            Request::Join {
                left: t(),
                right: t(),
                left_col: 0,
                right_col: 0,
            },
            Request::Commit { table: t(), col: 0 },
            Request::VerifiedRange {
                table: t(),
                col: 0,
                lo: 0,
                hi: 1,
            },
            Request::Increment {
                table: t(),
                col: 0,
                deltas: vec![],
            },
            Request::DropAllTables,
            Request::Stats,
        ];
        for request in &all {
            match request {
                Request::CreateTable { .. }
                | Request::Insert { .. }
                | Request::Delete { .. }
                | Request::Update { .. }
                | Request::Query { .. }
                | Request::QueryOrdered { .. }
                | Request::GroupedAggregate { .. }
                | Request::Join { .. }
                | Request::Commit { .. }
                | Request::VerifiedRange { .. }
                | Request::Increment { .. }
                | Request::DropAllTables
                | Request::Stats => {}
            }
        }
        all
    }

    #[test]
    fn a_request_runs_inline_exactly_when_it_is_not_a_write() {
        let service = ProviderService::new();
        let inline = |bytes: &[u8]| SharedService::runs_inline(&service, bytes);
        let all = one_of_each_request();
        for request in &all {
            assert_eq!(
                inline(&request.encode()),
                !request.is_write(),
                "{request:?}"
            );
        }
        // The list above and the tag table agree on what exists.
        let tags: std::collections::BTreeSet<u8> = all.iter().map(Request::tag).collect();
        assert_eq!(tags.len(), all.len(), "two variants share a tag");
        let known = |tag: &u8| Request::tag_is_write(*tag).is_some();
        assert_eq!(
            (0..=u8::MAX).filter(known).collect::<Vec<_>>(),
            tags.into_iter().collect::<Vec<_>>()
        );
        // What is not a request is not inline: it reaches `decode` on a
        // worker and comes back as an error, not as a panic.
        assert!(!inline(&[]));
        for tag in (0..=u8::MAX).filter(|tag| !known(tag)) {
            assert!(!inline(&[tag, 0, 0]), "unknown tag {tag} is inline");
            let response = SharedService::handle(&service, &[tag, 0, 0]);
            assert!(matches!(
                Response::decode(&response),
                Ok(Response::Error(_))
            ));
        }
    }

    #[test]
    fn malformed_request_returns_error_response() {
        let cluster = Cluster::spawn_concurrent(provider_fleet(1), Duration::from_millis(500), 1);
        let resp_bytes = cluster.call(0, vec![0xff, 0x00, 0x12]).unwrap();
        let resp = Response::decode(&resp_bytes).unwrap();
        assert!(matches!(resp, Response::Error(_)));
        // The provider is still alive afterwards.
        let resp = Response::decode(&cluster.call(0, Request::Stats.encode()).unwrap()).unwrap();
        assert_eq!(resp, Response::Stats { tables: 0, rows: 0 });
    }
}
