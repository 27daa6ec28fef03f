//! Private + public data mash-up (§V-D).
//!
//! The paper's scenario: a client's *private* data (friends, with
//! addresses) should combine with the provider's *public* data
//! (restaurants, with addresses) "without revealing any private
//! information about the friend".
//!
//! The mechanism here is bucketed retrieval: the public table is stored in
//! plaintext at the provider, keyed by a coarse location code. To find
//! restaurants near a friend, the client (1) reconstructs the friend's
//! location locally from shares, (2) asks the provider for the public
//! *bucket* containing it — a range of width `bucket` — and (3) filters
//! exactly at the client. The provider learns only the bucket, never the
//! address: widening the bucket trades bytes transferred for a larger
//! anonymity region, a dial the experiments sweep (E10).

use crate::source::{ask, row_blocks, rows_only, write};
use crate::{ClientError, Result};
use dasp_net::{Cluster, ProviderId, QuorumMode::FirstK, RetryPolicy};
use dasp_server::proto::{PredAtom, Request, Row};

/// Traffic/leakage accounting for one mash-up query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MashupStats {
    /// Rows transferred from the public table.
    pub rows_fetched: u64,
    /// Rows that actually matched after client-side filtering.
    pub rows_matching: u64,
    /// Width of the location interval revealed to the provider.
    pub leaked_interval: u64,
}

/// A public row: id plus plaintext numeric values.
pub type PublicRow = (u64, Vec<u64>);

/// A bucketed private/public join executor over one provider's public
/// tables.
pub struct BucketJoin<'a> {
    cluster: &'a Cluster,
    provider: ProviderId,
}

impl<'a> BucketJoin<'a> {
    /// Target `provider`'s public tables through `cluster`.
    pub fn new(cluster: &'a Cluster, provider: ProviderId) -> Self {
        BucketJoin { cluster, provider }
    }

    /// Upload a public table (plaintext codes in the share slots). In a
    /// real deployment the provider would source this itself — public
    /// data needs no outsourcing protocol.
    pub fn upload_public(
        &self,
        table: &str,
        columns: &[&str],
        key_col: usize,
        rows: &[PublicRow],
    ) -> Result<()> {
        let create = Request::CreateTable {
            name: table.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            indexed: (0..columns.len()).map(|i| i == key_col).collect(),
        };
        write(self.cluster, vec![(self.provider, create.encode())])?;
        let insert = Request::Insert {
            table: table.to_string(),
            rows: rows
                .iter()
                .map(|(id, vals)| Row {
                    id: *id,
                    shares: vals.iter().map(|&v| v as i128).collect(),
                })
                .collect(),
        };
        write(self.cluster, vec![(self.provider, insert.encode())])
    }

    /// Fetch the public rows whose `key_col` value falls in the bucket of
    /// width `bucket` that contains `private_key`, then filter to
    /// `[private_key − radius, private_key + radius]` client-side.
    ///
    /// Returns the matching rows and the stats (what leaked, what moved).
    pub fn near(
        &self,
        table: &str,
        key_col: usize,
        private_key: u64,
        radius: u64,
        bucket: u64,
    ) -> Result<(Vec<PublicRow>, MashupStats)> {
        if bucket == 0 {
            return Err(ClientError::Schema("bucket width must be positive".into()));
        }
        if 2 * radius >= bucket {
            return Err(ClientError::Schema(
                "bucket must exceed the query diameter or matches can straddle buckets — \
                 fetch two buckets or widen"
                    .into(),
            ));
        }
        // Fetch the bucket containing the key and, if the radius spills
        // over an edge, the neighbouring bucket too.
        let b_lo = (private_key / bucket) * bucket;
        let lo = if private_key.saturating_sub(radius) < b_lo {
            b_lo.saturating_sub(bucket)
        } else {
            b_lo
        };
        let hi = if private_key + radius >= b_lo + bucket {
            b_lo + 2 * bucket - 1
        } else {
            b_lo + bucket - 1
        };
        let req = Request::Query {
            table: table.to_string(),
            predicate: vec![PredAtom::Range {
                col: key_col,
                lo: lo as i128,
                hi: hi as i128,
            }],
            agg: None,
        };
        let asked = vec![vec![(self.provider, req.encode())]];
        let none = RetryPolicy::none();
        let answers = ask(self.cluster, asked, 1, 0, FirstK, none, &rows_only);
        let Some((_, rows)) = row_blocks(answers.one()?)?.pop() else {
            return Err(ClientError::Provider("no answer".into()));
        };
        let rows_fetched = rows.len() as u64;
        let want_lo = private_key.saturating_sub(radius);
        let want_hi = private_key + radius;
        let matching: Vec<PublicRow> = rows
            .iter()
            .filter_map(|r| {
                let vals: Option<Vec<u64>> =
                    r.shares.iter().map(|&s| u64::try_from(s).ok()).collect();
                vals.map(|v| (r.id, v))
            })
            .filter(|(_, vals)| {
                vals.get(key_col)
                    .is_some_and(|&v| v >= want_lo && v <= want_hi)
            })
            .collect();
        let stats = MashupStats {
            rows_fetched,
            rows_matching: matching.len() as u64,
            leaked_interval: hi - lo + 1,
        };
        Ok((matching, stats))
    }
}
