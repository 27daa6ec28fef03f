//! A verified range with `lo > hi` is an empty range. The provider must
//! answer it with an empty proof and go on serving: the same worker (in
//! process) or the same connection (over TCP) answers the next request.

use dasp_net::{BlockingConn, Cluster, ReactorConfig, SharedService};
use dasp_server::proto::{Request, Response, Row};
use dasp_server::{serve_provider_tcp, ProviderService};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

/// Commit a five-row table (shares 10..=50), send the reversed range
/// `[44, 20]`, then one ordinary request, all through `call`.
fn reversed_range_then_stats(mut call: impl FnMut(Request) -> Response) {
    let create = Request::CreateTable {
        name: "t".into(),
        columns: vec!["a".into()],
        indexed: vec![true],
    };
    assert_eq!(call(create), Response::Ack);
    let rows = (1..=5)
        .map(|id| Row {
            id,
            shares: vec![i128::from(id) * 10],
        })
        .collect();
    assert_eq!(
        call(Request::Insert {
            table: "t".into(),
            rows
        }),
        Response::Ack
    );
    let commit = call(Request::Commit {
        table: "t".into(),
        col: 0,
    });
    assert!(
        matches!(commit, Response::Committed { total_rows: 5, .. }),
        "{commit:?}"
    );

    let reversed = Request::VerifiedRange {
        table: "t".into(),
        col: 0,
        lo: 44,
        hi: 20,
    };
    match call(reversed) {
        Response::ProvedRows {
            total_rows: 5,
            proof,
        } => {
            assert!(proof.rows.is_empty() && proof.proofs.is_empty());
            // Empty at leaf 4: bounded by the rows with shares 40 and 50.
            assert_eq!(proof.start, 4);
            assert_eq!(proof.left_boundary.map(|(row, _)| row.id), Some(4));
            assert_eq!(proof.right_boundary.map(|(row, _)| row.id), Some(5));
        }
        other => panic!("reversed range: {other:?}"),
    }
    assert_eq!(call(Request::Stats), Response::Stats { tables: 1, rows: 5 });
}

#[test]
fn reversed_range_in_process_keeps_the_worker() {
    let services: Vec<Arc<dyn SharedService>> = vec![Arc::new(ProviderService::new())];
    let cluster = Cluster::spawn_concurrent(services, TIMEOUT, 1);
    reversed_range_then_stats(|req| {
        let bytes = cluster.call(0, req.encode()).expect("provider answers");
        Response::decode(&bytes).expect("decodable response")
    });
}

#[test]
fn reversed_range_over_tcp_keeps_the_connection() {
    let server = serve_provider_tcp("127.0.0.1:0", ReactorConfig::default()).expect("bind");
    let mut conn = BlockingConn::connect(server.local_addr(), TIMEOUT).expect("connect");
    reversed_range_then_stats(|req| {
        let bytes = conn.call(&req.encode()).expect("provider answers");
        Response::decode(&bytes).expect("decodable response")
    });
}
