//! Transport equivalence: the resilience stack — first-k-wins quorum,
//! hedged reads, retries, circuit breakers, failure injection — must
//! behave identically whether providers are in-process services behind
//! channels or remote processes behind real TCP sockets.
//!
//! Every scenario below runs once per transport through the *same*
//! cluster code and asserts the same observable outcome. There are two
//! ways over TCP: a worker pool calling each [`TcpClient`] as a
//! [`SharedService`], and [`Cluster::connect_tcp`], whose quorum engine
//! writes the frames itself and is answered by the client's reader.

use dasp_net::{
    BreakerConfig, BreakerState, Cluster, FailureMode, QuorumMode, QuorumOptions, ReactorConfig,
    Refusal, RetryPolicy, RpcError, SharedService, SystemClock, TcpClient, TcpClientConfig,
    TcpServer,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Transport {
    /// In-process services behind worker pools.
    Channel,
    /// Worker pools calling a `TcpClient` each.
    Tcp,
    /// `Cluster::connect_tcp`: no client thread but the readers.
    TcpDirect,
}

const TRANSPORTS: [Transport; 3] = [Transport::Channel, Transport::Tcp, Transport::TcpDirect];

/// Deterministic service: response = [provider tag, request bytes...].
struct TaggedEcho(u8);

impl SharedService for TaggedEcho {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(request.len() + 1);
        out.push(self.0);
        out.extend_from_slice(request);
        out
    }
}

/// A cluster of `n` tagged echo providers on the given transport. The
/// TCP servers ride along so they outlive the cluster.
struct Fixture {
    cluster: Cluster,
    _servers: Vec<TcpServer>,
}

fn fixture(transport: Transport, n: usize, timeout: Duration, breaker: BreakerConfig) -> Fixture {
    let clock = Arc::new(SystemClock::new());
    match transport {
        Transport::Channel => {
            let services: Vec<Arc<dyn SharedService>> = (0..n)
                .map(|i| Arc::new(TaggedEcho(i as u8)) as Arc<dyn SharedService>)
                .collect();
            Fixture {
                cluster: Cluster::spawn_concurrent(services, timeout, 1)
                    .with_breaker(breaker, clock),
                _servers: Vec::new(),
            }
        }
        Transport::Tcp | Transport::TcpDirect => {
            let servers: Vec<TcpServer> = (0..n)
                .map(|i| {
                    TcpServer::serve(
                        "127.0.0.1:0",
                        Arc::new(TaggedEcho(i as u8)),
                        ReactorConfig::default(),
                    )
                    .expect("bind")
                })
                .collect();
            let addrs: Vec<_> = servers.iter().map(TcpServer::local_addr).collect();
            let cluster = if transport == Transport::TcpDirect {
                Cluster::connect_tcp(&addrs, timeout).expect("connect")
            } else {
                Cluster::spawn_concurrent(tcp_clients(&addrs, timeout), timeout, 1)
            };
            Fixture {
                cluster: cluster.with_breaker(breaker, clock),
                _servers: servers,
            }
        }
    }
}

/// One `TcpClient` per address, as services for a worker pool, holding
/// a dead provider until after the cluster's deadline.
fn tcp_clients(addrs: &[std::net::SocketAddr], timeout: Duration) -> Vec<Arc<dyn SharedService>> {
    let cfg = TcpClientConfig {
        call_timeout: timeout.saturating_mul(2),
        error_hold: timeout.saturating_mul(2),
        ..TcpClientConfig::default()
    };
    addrs
        .iter()
        .map(|addr| {
            Arc::new(TcpClient::connect(*addr, cfg.clone()).expect("dial"))
                as Arc<dyn SharedService>
        })
        .collect()
}

fn expected(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend_from_slice(payload);
    out
}

const TIMEOUT: Duration = Duration::from_millis(300);

#[test]
fn plain_calls_identical_on_both_transports() {
    for t in TRANSPORTS {
        let fx = fixture(t, 3, TIMEOUT, BreakerConfig::default());
        for p in 0..3 {
            let resp = fx.cluster.call(p, b"hello".to_vec()).expect("call");
            assert_eq!(resp, expected(p as u8, b"hello"), "{t:?} provider {p}");
        }
    }
}

#[test]
fn first_k_wins_quorum_identical_on_both_transports() {
    for t in TRANSPORTS {
        let fx = fixture(t, 5, TIMEOUT, BreakerConfig::default());
        // One crash: 3-of-5 still succeeds.
        fx.cluster.set_failure(0, FailureMode::Crashed);
        let reqs: Vec<_> = (0..5).map(|p| (p, b"q".to_vec())).collect();
        let got = fx.cluster.call_quorum(reqs.clone(), 3).expect("quorum");
        assert!(got.len() >= 3, "{t:?}: {} responses", got.len());
        assert!(
            got.iter().all(|(p, r)| *r == expected(*p as u8, b"q")),
            "{t:?}: wrong quorum payloads"
        );
        assert!(
            got.iter().all(|(p, _)| *p != 0),
            "{t:?}: crashed provider responded"
        );
        // Three crashes: 3-of-5 with 2 alive must fail on every transport.
        fx.cluster.set_failure(1, FailureMode::Crashed);
        fx.cluster.set_failure(2, FailureMode::Crashed);
        let err = fx.cluster.call_quorum(reqs, 3).expect_err("unreachable");
        assert!(
            matches!(
                err,
                RpcError::QuorumUnreachable {
                    got: 2,
                    needed: 3,
                    ..
                }
            ),
            "{t:?}: {err:?}"
        );
    }
}

#[test]
fn hedged_reads_race_stragglers_on_both_transports() {
    for t in TRANSPORTS {
        let fx = fixture(t, 4, TIMEOUT, BreakerConfig::default());
        // Provider 0 is a straggler; a hedge launched up front must win
        // well before 0's injected delay, on either transport.
        fx.cluster.set_latency_for(0, Duration::from_millis(150));
        let opts = QuorumOptions {
            retry: RetryPolicy::none(),
            hedge: 2,
            extra: 0,
            mode: QuorumMode::FirstK,
            validate: None,
        };
        let reqs: Vec<_> = (0..4).map(|p| (p, b"h".to_vec())).collect();
        let start = Instant::now();
        let got = fx
            .cluster
            .call_quorum_rounds(vec![reqs], 2, &opts)
            .remove(0)
            .expect("quorum");
        let elapsed = start.elapsed();
        assert!(got.len() >= 2, "{t:?}");
        assert!(
            elapsed < Duration::from_millis(100),
            "{t:?}: hedged read took {elapsed:?}, straggler not masked"
        );
    }
}

#[test]
fn circuit_breaker_opens_identically_on_both_transports() {
    let breaker = BreakerConfig {
        failure_threshold: 3,
        cooldown: Duration::from_secs(30),
    };
    let short = Duration::from_millis(80);
    for t in TRANSPORTS {
        let fx = fixture(t, 3, short, breaker);
        fx.cluster.set_failure(2, FailureMode::Crashed);
        for _ in 0..3 {
            let err = fx.cluster.call(2, b"x".to_vec()).expect_err("crashed");
            assert!(matches!(err, RpcError::Timeout(2)), "{t:?}: {err:?}");
        }
        let snap = fx.cluster.health().snapshot();
        assert_eq!(snap.providers[2].state, BreakerState::Open, "{t:?}");
        assert_eq!(snap.providers[0].state, BreakerState::Closed, "{t:?}");
        assert_eq!(snap.providers[1].state, BreakerState::Closed, "{t:?}");
        // Healthy providers keep serving while 2's breaker is open.
        assert_eq!(
            fx.cluster.call(0, b"y".to_vec()).expect("healthy"),
            expected(0, b"y"),
            "{t:?}"
        );
    }
}

#[test]
fn retries_heal_omission_identically_on_both_transports() {
    let policy = RetryPolicy {
        max_attempts: 30,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        per_attempt_timeout: Some(Duration::from_millis(25)),
        jitter_seed: 7,
    };
    for t in TRANSPORTS {
        let fx = fixture(t, 2, TIMEOUT, BreakerConfig::default());
        fx.cluster.set_failure(1, FailureMode::Omission(0.8));
        // Same seed → same engine RNG stream → the same attempts drop on
        // every transport; retries recover within the schedule either way.
        let resp = fx
            .cluster
            .call_quorum_rounds(
                vec![vec![(1, b"r".to_vec())]],
                1,
                &QuorumOptions {
                    retry: policy.clone(),
                    ..Default::default()
                },
            )
            .remove(0)
            .map(|mut got| got.remove(0).1)
            .expect("retries heal omission");
        assert_eq!(resp, expected(1, b"r"), "{t:?}");
    }
}

#[test]
fn byzantine_injection_sits_above_the_socket_on_both_transports() {
    // Byzantine corruption is injected in the quorum engine, as the
    // (possibly remote) service's answer arrives — so a validate hook
    // sees and rejects the same corruption on every transport.
    for t in TRANSPORTS {
        let fx = fixture(t, 3, TIMEOUT, BreakerConfig::default());
        fx.cluster.set_failure(0, FailureMode::Byzantine(1.0));
        let validate = |_round: usize, p: usize, r: &[u8]| {
            if r == expected(p as u8, b"b").as_slice() {
                Ok(())
            } else {
                Err(Refusal::Retry("corrupt share".to_string()))
            }
        };
        let opts = QuorumOptions {
            retry: RetryPolicy::none(),
            hedge: usize::MAX,
            extra: 0,
            mode: QuorumMode::FirstK,
            validate: Some(&validate),
        };
        let reqs: Vec<_> = (0..3).map(|p| (p, b"b".to_vec())).collect();
        let got = fx
            .cluster
            .call_quorum_rounds(vec![reqs], 2, &opts)
            .remove(0)
            .expect("quorum");
        assert!(got.len() >= 2, "{t:?}");
        assert!(
            got.iter().all(|(p, r)| *r == expected(*p as u8, b"b")),
            "{t:?}: corrupt response passed validation"
        );
    }
}

#[test]
fn query_many_positions_identical_with_batching_on_and_off() {
    // Full client stack: the same secret-shared deployment (same key
    // seed, same rows, same client RNG seed) is stood up once per
    // transport — behind channels, where nothing is batched; over TCP
    // with four cluster workers per provider and every `query_many`
    // query in flight at once, so calls overlap on each `TcpClient` and
    // coalesce into batch frames; and over TCP with the engine writing
    // every frame itself — and `query_many` must return
    // position-identical decoded rows. Batching may only change wire
    // shape, never results.
    use dasp_client::{ColumnSpec, DataSource, Predicate, TableSchema, Value};
    use dasp_core::client::ClientKeys;
    use dasp_server::service::{provider_fleet, tcp_provider_fleet};
    use dasp_sss::ShareMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let (k, n) = (2usize, 4usize);
    let rows: Vec<Vec<Value>> = (0..120u64)
        .map(|i| vec![Value::Int(i % 12), Value::Int(i * 31 % (1 << 16))])
        .collect();
    let mut outcomes = Vec::new();
    let mut fleets = Vec::new(); // keep servers alive until every query ran
    let (timeout, workers) = (Duration::from_secs(2), 4);
    for transport in TRANSPORTS {
        let mut rng = StdRng::seed_from_u64(4242);
        let keys = ClientKeys::generate(k, n, &mut rng).unwrap();
        let cluster = if transport == Transport::Channel {
            Cluster::spawn_concurrent(provider_fleet(n), timeout, workers)
        } else {
            let (servers, addrs) =
                tcp_provider_fleet(n, ReactorConfig::default()).expect("bind fleet");
            fleets.push(servers);
            if transport == Transport::TcpDirect {
                Cluster::connect_tcp(&addrs, timeout).expect("connect")
            } else {
                Cluster::spawn_concurrent(tcp_clients(&addrs, timeout), timeout, workers)
            }
        };
        let mut ds = DataSource::with_seed(keys, cluster, 99).unwrap();
        ds.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnSpec::numeric("k", 1 << 16, ShareMode::Deterministic),
                    ColumnSpec::numeric("v", 1 << 20, ShareMode::OrderPreserving),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        ds.insert("t", &rows).unwrap();
        let predicates: Vec<Vec<Predicate>> = (0..9u64)
            .map(|i| vec![Predicate::eq("k", i % 12)])
            .collect();
        outcomes.push(ds.query_many("t", &predicates).expect("query_many"));
    }
    let channel = &outcomes[0];
    for (t, other) in TRANSPORTS.iter().zip(&outcomes).skip(1) {
        assert_eq!(channel.len(), other.len(), "{t:?}");
        for (i, (a, b)) in channel.iter().zip(other).enumerate() {
            assert!(!a.is_empty(), "query {i} matched nothing — weak test");
            assert_eq!(a, b, "{t:?} query {i}: the transport changed decoded rows");
        }
    }
}

#[test]
fn worker_pools_multiplex_identically_on_both_transports() {
    // Out-of-order completion: a slow request issued first must not
    // block a fast one (token multiplexing), channel or socket alike.
    // One engine run fans out concurrently on every transport.
    for t in TRANSPORTS {
        let fx = fixture(t, 4, Duration::from_secs(2), BreakerConfig::default());
        let reqs: Vec<_> = (0..4).map(|p| (p, vec![p as u8; 1000])).collect();
        let start = Instant::now();
        let results: Vec<_> = fx
            .cluster
            .call_quorum_rounds(
                reqs.into_iter().map(|r| vec![r]).collect(),
                1,
                &QuorumOptions::default(),
            )
            .into_iter()
            .enumerate()
            .map(|(p, r)| (p, r.map(|mut got| got.remove(0).1)))
            .collect();
        assert_eq!(results.len(), 4);
        for (p, r) in &results {
            assert_eq!(
                r.as_ref().expect("ok"),
                &expected(*p as u8, &vec![*p as u8; 1000]),
                "{t:?}"
            );
        }
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{t:?}: fan-out serialized"
        );
    }
}
