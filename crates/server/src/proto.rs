//! The client ↔ provider wire protocol.
//!
//! All values on the wire are *shares* (`i128`) — the protocol has no
//! representation for plaintext private values at all. Public tables
//! (§V-D) reuse the same row shape with plaintext codes in the share
//! slots.

use dasp_net::{WireError, WireReader, WireWriter};

/// A stored row: client-assigned id plus one share per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Client-assigned row id (consistent across providers, which is what
    /// lets the client zip shares of the same logical row back together).
    pub id: u64,
    /// One share per column, in schema order.
    pub shares: Vec<i128>,
}

/// One conjunct of a rewritten predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredAtom {
    /// `share(col) = s` — exact match on a deterministic/OP column.
    Eq {
        /// Column index.
        col: usize,
        /// The rewritten share value.
        share: i128,
    },
    /// `lo ≤ share(col) ≤ hi` — range on an order-preserving column.
    Range {
        /// Column index.
        col: usize,
        /// Inclusive lower bound (share space).
        lo: i128,
        /// Inclusive upper bound (share space).
        hi: i128,
    },
}

impl PredAtom {
    /// The column this atom constrains.
    pub fn col(&self) -> usize {
        match self {
            PredAtom::Eq { col, .. } | PredAtom::Range { col, .. } => *col,
        }
    }

    /// Evaluate against a row's shares.
    pub fn matches(&self, shares: &[i128]) -> bool {
        match *self {
            PredAtom::Eq { col, share } => shares.get(col).is_some_and(|&s| s == share),
            PredAtom::Range { col, lo, hi } => shares.get(col).is_some_and(|&s| s >= lo && s <= hi),
        }
    }
}

/// Server-side aggregation over the matching rows (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Count matching rows.
    Count,
    /// Sum the shares of a column (client reconstructs the value sum).
    Sum {
        /// Column to sum.
        col: usize,
    },
    /// Return the row whose share in `col` is minimal (OP columns only).
    Min {
        /// Column to order by.
        col: usize,
    },
    /// Return the row whose share in `col` is maximal (OP columns only).
    Max {
        /// Column to order by.
        col: usize,
    },
    /// Return the median row by share order in `col` (OP columns only).
    Median {
        /// Column to order by.
        col: usize,
    },
}

/// A request from the data source to one provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Create a table. `indexed[i]` marks columns to index (deterministic
    /// and order-preserving columns; random-mode shares are unindexable).
    CreateTable {
        /// Table name.
        name: String,
        /// Column names.
        columns: Vec<String>,
        /// Which columns get a B+tree index on their share values.
        indexed: Vec<bool>,
    },
    /// Insert rows (shares only).
    Insert {
        /// Target table.
        table: String,
        /// Rows to insert.
        rows: Vec<Row>,
    },
    /// Delete rows by id.
    Delete {
        /// Target table.
        table: String,
        /// Ids of rows to remove.
        ids: Vec<u64>,
    },
    /// Replace rows wholesale (the paper's eager update path, §V-C).
    Update {
        /// Target table.
        table: String,
        /// Replacement rows (matched by id).
        rows: Vec<Row>,
    },
    /// Filtered retrieval, optionally aggregated server-side.
    Query {
        /// Target table.
        table: String,
        /// Conjunctive predicate over share space (empty = all rows).
        predicate: Vec<PredAtom>,
        /// Optional server-side aggregate.
        agg: Option<AggOp>,
    },
    /// Filtered retrieval ordered by a column's shares (order-preserving
    /// columns only make this meaningful) with a row limit — server-side
    /// top-k.
    QueryOrdered {
        /// Target table.
        table: String,
        /// Conjunctive predicate over share space.
        predicate: Vec<PredAtom>,
        /// Column whose shares define the order.
        order_col: usize,
        /// Descending order when true.
        desc: bool,
        /// Maximum rows to return.
        limit: u64,
    },
    /// Grouped aggregation: partition matching rows by the share of
    /// `group_col` (equality-capable columns group identically at every
    /// provider) and aggregate within each group.
    GroupedAggregate {
        /// Target table.
        table: String,
        /// Conjunctive predicate over share space.
        predicate: Vec<PredAtom>,
        /// Grouping column.
        group_col: usize,
        /// Aggregate within groups (Count or Sum only).
        agg: AggOp,
    },
    /// Share-equality join (§V-A): both columns must come from the same
    /// value domain so equal values have equal shares.
    Join {
        /// Left table.
        left: String,
        /// Right table.
        right: String,
        /// Join column in the left table.
        left_col: usize,
        /// Join column in the right table.
        right_col: usize,
    },
    /// Build (or rebuild) a Merkle commitment over the table sorted by
    /// `col`'s shares, returning the root. The client cross-checks the
    /// root against its own computation before trusting it.
    Commit {
        /// Target table.
        table: String,
        /// Sort/commitment column.
        col: usize,
    },
    /// Range query answered with a completeness proof against the last
    /// commitment. Refused if the table changed since the commit.
    VerifiedRange {
        /// Target table.
        table: String,
        /// Committed column.
        col: usize,
        /// Inclusive share-space lower bound.
        lo: i128,
        /// Inclusive share-space upper bound.
        hi: i128,
    },
    /// Add a delta share to one column of specific rows — the paper's
    /// §V-C "incremental updating of values": because Shamir shares are
    /// additively homomorphic, the client can adjust a value by sharing
    /// only the *delta*, with no retrieval round trip. (Client-side logic
    /// restricts this to random-mode columns, where the result is again a
    /// fresh random sharing.)
    Increment {
        /// Target table.
        table: String,
        /// Column to adjust.
        col: usize,
        /// (row id, this provider's delta share) pairs.
        deltas: Vec<(u64, i128)>,
    },
    /// Wipe every table (admin: used when re-initializing a replaced or
    /// recovered provider before the client re-shares its data into it).
    DropAllTables,
    /// Provider health/statistics probe.
    Stats,
}

/// A provider's response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success without payload.
    Ack,
    /// Matching rows.
    Rows(Vec<Row>),
    /// Joined row pairs (left row, right row).
    Joined(Vec<(Row, Row)>),
    /// Aggregation partial: share-sum and count, or an extremal row.
    Agg {
        /// Sum of the aggregated column's shares over matching rows.
        sum: i128,
        /// Number of matching rows.
        count: u64,
        /// The extremal/median row for Min/Max/Median.
        row: Option<Row>,
    },
    /// Grouped-aggregation partials, one per group.
    Groups(Vec<GroupPartial>),
    /// Commitment root over the requested table/column.
    Committed {
        /// Merkle root of the share-sorted table.
        root: [u8; 32],
        /// Number of committed rows.
        total_rows: u64,
    },
    /// Range result with a Merkle completeness proof.
    ProvedRows {
        /// Committed table size (needed by the verifier).
        total_rows: u64,
        /// The serialized range proof.
        proof: WireRangeProof,
    },
    /// Table count / row count diagnostics.
    Stats {
        /// Number of tables.
        tables: u64,
        /// Total stored rows.
        rows: u64,
    },
    /// The request failed.
    Error(String),
}

/// One group's partial aggregate at one provider.
///
/// `rep_row` is the smallest row id in the group — identical at every
/// provider (groups are identical row sets), so the client zips group
/// partials across providers by it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPartial {
    /// Smallest row id in the group (cross-provider group key).
    pub rep_row: u64,
    /// This provider's share of the group value.
    pub group_share: i128,
    /// Sum of the aggregated column's shares over the group.
    pub sum: i128,
    /// Rows in the group.
    pub count: u64,
}

/// A wire-serializable Merkle range proof (mirrors
/// `dasp_verify::RangeProof` with rows as protocol [`Row`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRangeProof {
    /// Index of the first returned leaf in sorted order.
    pub start: u64,
    /// Matching rows, in sorted order.
    pub rows: Vec<Row>,
    /// One membership proof per row: (leaf index, sibling digests).
    pub proofs: Vec<WireMerkleProof>,
    /// Row + proof just below the range, if any.
    pub left_boundary: Option<(Row, WireMerkleProof)>,
    /// Row + proof just above the range, if any.
    pub right_boundary: Option<(Row, WireMerkleProof)>,
}

/// A wire-serializable Merkle membership proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMerkleProof {
    /// Leaf index.
    pub index: u64,
    /// Sibling digests bottom-up (`None` = promoted level).
    pub siblings: Vec<Option<[u8; 32]>>,
}

// ---- encoding ----

fn write_row(w: &mut WireWriter, row: &Row) {
    w.u64(row.id);
    w.seq(&row.shares, |w, s| {
        w.i128(*s);
    });
}

fn read_row(r: &mut WireReader) -> Result<Row, WireError> {
    let id = r.u64()?;
    let shares = r.seq(|r| r.i128())?;
    Ok(Row { id, shares })
}

fn write_preds(w: &mut WireWriter, predicate: &[PredAtom]) {
    w.seq(predicate, |w, atom| match *atom {
        PredAtom::Eq { col, share } => {
            w.u8(0).u64(col as u64).i128(share);
        }
        PredAtom::Range { col, lo, hi } => {
            w.u8(1).u64(col as u64).i128(lo).i128(hi);
        }
    });
}

fn read_preds(r: &mut WireReader) -> Result<Vec<PredAtom>, WireError> {
    r.seq(|r| {
        Ok(match r.u8()? {
            0 => PredAtom::Eq {
                col: r.u64()? as usize,
                share: r.i128()?,
            },
            1 => PredAtom::Range {
                col: r.u64()? as usize,
                lo: r.i128()?,
                hi: r.i128()?,
            },
            t => return Err(WireError::BadTag(t)),
        })
    })
}

fn write_agg(w: &mut WireWriter, agg: &AggOp) {
    match *agg {
        AggOp::Count => w.u8(1),
        AggOp::Sum { col } => w.u8(2).u64(col as u64),
        AggOp::Min { col } => w.u8(3).u64(col as u64),
        AggOp::Max { col } => w.u8(4).u64(col as u64),
        AggOp::Median { col } => w.u8(5).u64(col as u64),
    };
}

fn read_agg(r: &mut WireReader) -> Result<AggOp, WireError> {
    Ok(match r.u8()? {
        1 => AggOp::Count,
        2 => AggOp::Sum {
            col: r.u64()? as usize,
        },
        3 => AggOp::Min {
            col: r.u64()? as usize,
        },
        4 => AggOp::Max {
            col: r.u64()? as usize,
        },
        5 => AggOp::Median {
            col: r.u64()? as usize,
        },
        t => return Err(WireError::BadTag(t)),
    })
}

fn write_merkle_proof(w: &mut WireWriter, p: &WireMerkleProof) {
    w.u64(p.index);
    w.seq(&p.siblings, |w, s| match s {
        None => {
            w.u8(0);
        }
        Some(d) => {
            w.u8(1);
            w.bytes(d);
        }
    });
}

fn read_merkle_proof(r: &mut WireReader) -> Result<WireMerkleProof, WireError> {
    let index = r.u64()?;
    let siblings = r.seq(|r| {
        Ok(match r.u8()? {
            0 => None,
            1 => {
                let b = r.bytes()?;
                let d: [u8; 32] = b.try_into().map_err(|_| WireError::Truncated {
                    wanted: 32,
                    left: b.len(),
                })?;
                Some(d)
            }
            t => return Err(WireError::BadTag(t)),
        })
    })?;
    Ok(WireMerkleProof { index, siblings })
}

fn write_boundary(w: &mut WireWriter, b: &Option<(Row, WireMerkleProof)>) {
    match b {
        None => {
            w.u8(0);
        }
        Some((row, proof)) => {
            w.u8(1);
            write_row(w, row);
            write_merkle_proof(w, proof);
        }
    }
}

fn read_boundary(r: &mut WireReader) -> Result<Option<(Row, WireMerkleProof)>, WireError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some((read_row(r)?, read_merkle_proof(r)?)),
        t => return Err(WireError::BadTag(t)),
    })
}

fn write_range_proof(w: &mut WireWriter, p: &WireRangeProof) {
    w.u64(p.start);
    w.seq(&p.rows, write_row);
    w.seq(&p.proofs, write_merkle_proof);
    write_boundary(w, &p.left_boundary);
    write_boundary(w, &p.right_boundary);
}

fn read_range_proof(r: &mut WireReader) -> Result<WireRangeProof, WireError> {
    Ok(WireRangeProof {
        start: r.u64()?,
        rows: r.seq(read_row)?,
        proofs: r.seq(read_merkle_proof)?,
        left_boundary: read_boundary(r)?,
        right_boundary: read_boundary(r)?,
    })
}

/// The byte that leads each request's encoding.
mod tag {
    pub const CREATE_TABLE: u8 = 0;
    pub const INSERT: u8 = 1;
    pub const DELETE: u8 = 2;
    pub const UPDATE: u8 = 3;
    pub const QUERY: u8 = 4;
    pub const JOIN: u8 = 5;
    pub const STATS: u8 = 6;
    pub const QUERY_ORDERED: u8 = 7;
    pub const GROUPED_AGGREGATE: u8 = 8;
    pub const COMMIT: u8 = 9;
    pub const VERIFIED_RANGE: u8 = 10;
    pub const INCREMENT: u8 = 11;
    pub const DROP_ALL_TABLES: u8 = 12;
}

impl Request {
    /// The byte that leads this request's encoding.
    pub fn tag(&self) -> u8 {
        match self {
            Request::CreateTable { .. } => tag::CREATE_TABLE,
            Request::Insert { .. } => tag::INSERT,
            Request::Delete { .. } => tag::DELETE,
            Request::Update { .. } => tag::UPDATE,
            Request::Query { .. } => tag::QUERY,
            Request::Join { .. } => tag::JOIN,
            Request::Stats => tag::STATS,
            Request::QueryOrdered { .. } => tag::QUERY_ORDERED,
            Request::GroupedAggregate { .. } => tag::GROUPED_AGGREGATE,
            Request::Commit { .. } => tag::COMMIT,
            Request::VerifiedRange { .. } => tag::VERIFIED_RANGE,
            Request::Increment { .. } => tag::INCREMENT,
            Request::DropAllTables => tag::DROP_ALL_TABLES,
        }
    }

    /// The one definition of "write", on the tag byte so a transport can
    /// ask it of an encoded request without decoding: `Some(true)` for a
    /// request that mutates the provider (it takes the writer mutex and
    /// waits for an fsync), `Some(false)` for one served from the
    /// published snapshot, `None` for a byte that leads no request.
    pub fn tag_is_write(tag: u8) -> Option<bool> {
        match tag {
            tag::CREATE_TABLE
            | tag::INSERT
            | tag::DELETE
            | tag::UPDATE
            | tag::INCREMENT
            | tag::COMMIT
            | tag::DROP_ALL_TABLES => Some(true),
            tag::QUERY
            | tag::QUERY_ORDERED
            | tag::GROUPED_AGGREGATE
            | tag::JOIN
            | tag::VERIFIED_RANGE
            | tag::STATS => Some(false),
            _ => None,
        }
    }

    /// True if executing this request mutates the provider.
    pub fn is_write(&self) -> bool {
        Self::tag_is_write(self.tag()) == Some(true)
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u8(self.tag());
        match self {
            Request::CreateTable {
                name,
                columns,
                indexed,
            } => {
                w.string(name);
                w.seq(columns, |w, c| {
                    w.string(c);
                });
                w.seq(indexed, |w, b| {
                    w.bool(*b);
                });
            }
            Request::Insert { table, rows } => {
                w.string(table);
                w.seq(rows, write_row);
            }
            Request::Delete { table, ids } => {
                w.string(table);
                w.seq(ids, |w, id| {
                    w.u64(*id);
                });
            }
            Request::Update { table, rows } => {
                w.string(table);
                w.seq(rows, write_row);
            }
            Request::Query {
                table,
                predicate,
                agg,
            } => {
                w.string(table);
                write_preds(&mut w, predicate);
                match agg {
                    None => {
                        w.u8(0);
                    }
                    Some(agg) => write_agg(&mut w, agg),
                }
            }
            Request::QueryOrdered {
                table,
                predicate,
                order_col,
                desc,
                limit,
            } => {
                w.string(table);
                write_preds(&mut w, predicate);
                w.u64(*order_col as u64).bool(*desc).u64(*limit);
            }
            Request::GroupedAggregate {
                table,
                predicate,
                group_col,
                agg,
            } => {
                w.string(table);
                write_preds(&mut w, predicate);
                w.u64(*group_col as u64);
                write_agg(&mut w, agg);
            }
            Request::Join {
                left,
                right,
                left_col,
                right_col,
            } => {
                w.string(left)
                    .string(right)
                    .u64(*left_col as u64)
                    .u64(*right_col as u64);
            }
            Request::Stats | Request::DropAllTables => {}
            Request::Commit { table, col } => {
                w.string(table).u64(*col as u64);
            }
            Request::VerifiedRange { table, col, lo, hi } => {
                w.string(table).u64(*col as u64).i128(*lo).i128(*hi);
            }
            Request::Increment { table, col, deltas } => {
                w.string(table).u64(*col as u64);
                w.seq(deltas, |w, (id, d)| {
                    w.u64(*id).i128(*d);
                });
            }
        }
        w.finish()
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let req = match r.u8()? {
            tag::CREATE_TABLE => Request::CreateTable {
                name: r.string()?,
                columns: r.seq(|r| r.string())?,
                indexed: r.seq(|r| r.bool())?,
            },
            tag::INSERT => Request::Insert {
                table: r.string()?,
                rows: r.seq(read_row)?,
            },
            tag::DELETE => Request::Delete {
                table: r.string()?,
                ids: r.seq(|r| r.u64())?,
            },
            tag::UPDATE => Request::Update {
                table: r.string()?,
                rows: r.seq(read_row)?,
            },
            tag::QUERY => {
                let table = r.string()?;
                let predicate = read_preds(&mut r)?;
                // Peek the agg tag: 0 means none, otherwise re-read inline.
                let agg = {
                    let tag_probe = r.u8()?;
                    if tag_probe == 0 {
                        None
                    } else {
                        Some(match tag_probe {
                            1 => AggOp::Count,
                            2 => AggOp::Sum {
                                col: r.u64()? as usize,
                            },
                            3 => AggOp::Min {
                                col: r.u64()? as usize,
                            },
                            4 => AggOp::Max {
                                col: r.u64()? as usize,
                            },
                            5 => AggOp::Median {
                                col: r.u64()? as usize,
                            },
                            t => return Err(WireError::BadTag(t)),
                        })
                    }
                };
                Request::Query {
                    table,
                    predicate,
                    agg,
                }
            }
            tag::JOIN => Request::Join {
                left: r.string()?,
                right: r.string()?,
                left_col: r.u64()? as usize,
                right_col: r.u64()? as usize,
            },
            tag::STATS => Request::Stats,
            tag::QUERY_ORDERED => {
                let table = r.string()?;
                let predicate = read_preds(&mut r)?;
                Request::QueryOrdered {
                    table,
                    predicate,
                    order_col: r.u64()? as usize,
                    desc: r.bool()?,
                    limit: r.u64()?,
                }
            }
            tag::GROUPED_AGGREGATE => {
                let table = r.string()?;
                let predicate = read_preds(&mut r)?;
                Request::GroupedAggregate {
                    table,
                    predicate,
                    group_col: r.u64()? as usize,
                    agg: read_agg(&mut r)?,
                }
            }
            tag::COMMIT => Request::Commit {
                table: r.string()?,
                col: r.u64()? as usize,
            },
            tag::VERIFIED_RANGE => Request::VerifiedRange {
                table: r.string()?,
                col: r.u64()? as usize,
                lo: r.i128()?,
                hi: r.i128()?,
            },
            tag::INCREMENT => Request::Increment {
                table: r.string()?,
                col: r.u64()? as usize,
                deltas: r.seq(|r| Ok((r.u64()?, r.i128()?)))?,
            },
            tag::DROP_ALL_TABLES => Request::DropAllTables,
            t => return Err(WireError::BadTag(t)),
        };
        r.expect_end()?;
        Ok(req)
    }
}

impl Response {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Response::Ack => {
                w.u8(0);
            }
            Response::Rows(rows) => {
                w.u8(1);
                w.seq(rows, write_row);
            }
            Response::Joined(pairs) => {
                w.u8(2);
                w.seq(pairs, |w, (l, rr)| {
                    write_row(w, l);
                    write_row(w, rr);
                });
            }
            Response::Agg { sum, count, row } => {
                w.u8(3).i128(*sum).u64(*count);
                match row {
                    None => {
                        w.u8(0);
                    }
                    Some(row) => {
                        w.u8(1);
                        write_row(&mut w, row);
                    }
                }
            }
            Response::Groups(groups) => {
                w.u8(6);
                w.seq(groups, |w, g| {
                    w.u64(g.rep_row)
                        .i128(g.group_share)
                        .i128(g.sum)
                        .u64(g.count);
                });
            }
            Response::Stats { tables, rows } => {
                w.u8(4).u64(*tables).u64(*rows);
            }
            Response::Error(msg) => {
                w.u8(5).string(msg);
            }
            Response::Committed { root, total_rows } => {
                w.u8(7).bytes(root).u64(*total_rows);
            }
            Response::ProvedRows { total_rows, proof } => {
                w.u8(8).u64(*total_rows);
                write_range_proof(&mut w, proof);
            }
        }
        w.finish()
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let resp = match r.u8()? {
            0 => Response::Ack,
            1 => Response::Rows(r.seq(read_row)?),
            2 => Response::Joined(r.seq(|r| Ok((read_row(r)?, read_row(r)?)))?),
            3 => {
                let sum = r.i128()?;
                let count = r.u64()?;
                let row = match r.u8()? {
                    0 => None,
                    1 => Some(read_row(&mut r)?),
                    t => return Err(WireError::BadTag(t)),
                };
                Response::Agg { sum, count, row }
            }
            4 => Response::Stats {
                tables: r.u64()?,
                rows: r.u64()?,
            },
            5 => Response::Error(r.string()?),
            6 => Response::Groups(r.seq(|r| {
                Ok(GroupPartial {
                    rep_row: r.u64()?,
                    group_share: r.i128()?,
                    sum: r.i128()?,
                    count: r.u64()?,
                })
            })?),
            7 => {
                let b = r.bytes()?;
                let root: [u8; 32] = b.try_into().map_err(|_| WireError::Truncated {
                    wanted: 32,
                    left: 0,
                })?;
                Response::Committed {
                    root,
                    total_rows: r.u64()?,
                }
            }
            8 => Response::ProvedRows {
                total_rows: r.u64()?,
                proof: read_range_proof(&mut r)?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_req(req: Request) {
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::CreateTable {
            name: "employees".into(),
            columns: vec!["name".into(), "salary".into()],
            indexed: vec![true, true],
        });
        roundtrip_req(Request::Insert {
            table: "t".into(),
            rows: vec![
                Row {
                    id: 1,
                    shares: vec![210, -5],
                },
                Row {
                    id: 2,
                    shares: vec![],
                },
            ],
        });
        roundtrip_req(Request::Delete {
            table: "t".into(),
            ids: vec![1, 2, 3],
        });
        roundtrip_req(Request::Update {
            table: "t".into(),
            rows: vec![Row {
                id: 1,
                shares: vec![9],
            }],
        });
        roundtrip_req(Request::Query {
            table: "t".into(),
            predicate: vec![
                PredAtom::Eq { col: 0, share: 42 },
                PredAtom::Range {
                    col: 1,
                    lo: -10,
                    hi: 10,
                },
            ],
            agg: Some(AggOp::Sum { col: 1 }),
        });
        roundtrip_req(Request::Query {
            table: "t".into(),
            predicate: vec![],
            agg: None,
        });
        for agg in [
            AggOp::Count,
            AggOp::Min { col: 0 },
            AggOp::Max { col: 1 },
            AggOp::Median { col: 2 },
        ] {
            roundtrip_req(Request::Query {
                table: "t".into(),
                predicate: vec![],
                agg: Some(agg),
            });
        }
        roundtrip_req(Request::Join {
            left: "employees".into(),
            right: "managers".into(),
            left_col: 0,
            right_col: 1,
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::QueryOrdered {
            table: "t".into(),
            predicate: vec![PredAtom::Range {
                col: 1,
                lo: -3,
                hi: 5,
            }],
            order_col: 1,
            desc: true,
            limit: 10,
        });
        roundtrip_req(Request::GroupedAggregate {
            table: "t".into(),
            predicate: vec![],
            group_col: 0,
            agg: AggOp::Sum { col: 1 },
        });
        roundtrip_req(Request::GroupedAggregate {
            table: "t".into(),
            predicate: vec![PredAtom::Eq { col: 2, share: 9 }],
            group_col: 0,
            agg: AggOp::Count,
        });
        roundtrip_req(Request::Commit {
            table: "t".into(),
            col: 1,
        });
        roundtrip_req(Request::VerifiedRange {
            table: "t".into(),
            col: 1,
            lo: -9,
            hi: 9,
        });
        roundtrip_req(Request::Increment {
            table: "t".into(),
            col: 2,
            deltas: vec![(1, -55), (9, 1 << 90)],
        });
        roundtrip_req(Request::DropAllTables);
    }

    #[test]
    fn proved_rows_roundtrip() {
        let proof = WireRangeProof {
            start: 3,
            rows: vec![Row {
                id: 5,
                shares: vec![7, 8],
            }],
            proofs: vec![WireMerkleProof {
                index: 3,
                siblings: vec![Some([9u8; 32]), None, Some([1u8; 32])],
            }],
            left_boundary: Some((
                Row {
                    id: 4,
                    shares: vec![1],
                },
                WireMerkleProof {
                    index: 2,
                    siblings: vec![],
                },
            )),
            right_boundary: None,
        };
        roundtrip_resp(Response::ProvedRows {
            total_rows: 10,
            proof,
        });
        roundtrip_resp(Response::Committed {
            root: [0xab; 32],
            total_rows: 4,
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Ack);
        roundtrip_resp(Response::Rows(vec![Row {
            id: 7,
            shares: vec![1, 2, 3],
        }]));
        roundtrip_resp(Response::Joined(vec![(
            Row {
                id: 1,
                shares: vec![5],
            },
            Row {
                id: 9,
                shares: vec![5, 6],
            },
        )]));
        roundtrip_resp(Response::Agg {
            sum: -123,
            count: 45,
            row: Some(Row {
                id: 3,
                shares: vec![],
            }),
        });
        roundtrip_resp(Response::Agg {
            sum: 0,
            count: 0,
            row: None,
        });
        roundtrip_resp(Response::Stats {
            tables: 2,
            rows: 100,
        });
        roundtrip_resp(Response::Error("no such table".into()));
        roundtrip_resp(Response::Groups(vec![
            GroupPartial {
                rep_row: 1,
                group_share: -5,
                sum: 99,
                count: 2,
            },
            GroupPartial {
                rep_row: 7,
                group_share: 0,
                sum: 0,
                count: 0,
            },
        ]));
        roundtrip_resp(Response::Groups(vec![]));
    }

    #[test]
    fn pred_atom_matches() {
        let shares = [10i128, 20, 30];
        assert!(PredAtom::Eq { col: 1, share: 20 }.matches(&shares));
        assert!(!PredAtom::Eq { col: 1, share: 21 }.matches(&shares));
        assert!(PredAtom::Range {
            col: 2,
            lo: 30,
            hi: 30
        }
        .matches(&shares));
        assert!(!PredAtom::Range {
            col: 2,
            lo: 31,
            hi: 99
        }
        .matches(&shares));
        assert!(
            !PredAtom::Eq { col: 9, share: 0 }.matches(&shares),
            "oob col"
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[99]).is_err());
        assert!(Request::decode(&[]).is_err());
        // Trailing bytes rejected.
        let mut bytes = Request::Stats.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_row_heavy_roundtrip(
            rows in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(any::<i128>(), 0..6)),
                0..20,
            )
        ) {
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(id, shares)| Row { id, shares })
                .collect();
            roundtrip_resp(Response::Rows(rows.clone()));
            roundtrip_req(Request::Insert { table: "t".into(), rows });
        }

        #[test]
        fn prop_decode_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }
    }
}
