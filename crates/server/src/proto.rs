//! The client ↔ provider wire protocol.
//!
//! All values on the wire are *shares* (`i128`) — the protocol has no
//! representation for plaintext private values at all. Public tables
//! (§V-D) reuse the same row shape with plaintext codes in the share
//! slots. Shares travel packed: rows go as a column-major [`RowBlock`]
//! whose columns are each as wide as their widest share, and the
//! write-ahead log and the checkpoint image store those same bytes.

use dasp_net::{WireError, WireReader, WireWriter};
use std::borrow::Borrow;

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
    /// Matching rows, as one column-major block.
    Rows(RowBlock),
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

// ---- the row block ----
//
// Every share on the wire, in the log and in the checkpoint image is
// written here, at the width its column needs (DESIGN.md §7.1):
//
//   block  := rows:varint cols:varint id{rows} column{cols}
//   id     := varint(zigzag(id - previous id))    wrapping, first from 0
//   column := width:u8 value{rows}                width in 1..=16
//   value  := the low `width` bytes of zigzag(share), little-endian
//   rows   := runs:varint block{runs}             a `Vec<Row>`: one block
//                                                 per equal-arity run
//   int    := width:u8 value                      a lone i128

/// Rows of one arity held column-major: `ids[r]` and `col(c)[r]` are
/// row `r`. What a provider answers a query with, and what the wire
/// carries, so the client reconstructs columns without first building a
/// `Vec` per row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowBlock {
    ids: Vec<u64>,
    /// Each of `ids.len()` shares.
    cols: Vec<Vec<i128>>,
}

impl RowBlock {
    /// An empty block that will hold `rows` rows of `arity` shares.
    pub fn with_capacity(rows: usize, arity: usize) -> Self {
        RowBlock {
            ids: Vec::with_capacity(rows),
            cols: (0..arity).map(|_| Vec::with_capacity(rows)).collect(),
        }
    }

    /// Append a row. The block keeps one arity: a longer row is cut to
    /// it and a shorter one padded with zero shares (the engine checks
    /// arity when rows are stored, so neither happens to its answers).
    pub fn push(&mut self, id: u64, shares: &[i128]) {
        self.ids.push(id);
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.push(shares.get(c).copied().unwrap_or(0));
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff the block holds no row.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row ids, in row order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The columns, each in row order.
    pub fn cols(&self) -> &[Vec<i128>] {
        &self.cols
    }

    /// The ids and the columns, by value.
    pub fn into_parts(self) -> (Vec<u64>, Vec<Vec<i128>>) {
        (self.ids, self.cols)
    }

    /// The rows, one at a time.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        // Every column holds a share per id, so each row is one exact
        // allocation of the block's arity.
        self.ids.iter().enumerate().map(|(r, &id)| Row {
            id,
            shares: self
                .cols
                .iter()
                .map(|col| col.get(r).copied().unwrap_or(0))
                .collect(),
        })
    }

    /// The rows as a list.
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter().collect()
    }

    /// Encode as one block (the record format of the checkpoint image).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.write(&mut w);
        w.finish()
    }

    /// Decode one block that fills `bytes` exactly.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut block = RowBlock::default();
        block.decode_into(bytes)?;
        Ok(block)
    }

    /// [`RowBlock::decode`] into this block, reusing its buffers: a
    /// reader of many blocks allocates only while they grow. After an
    /// error the block's contents are unspecified.
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = WireReader::new(bytes);
        self.read_into(&mut r)?;
        r.expect_end()
    }

    fn write(&self, w: &mut WireWriter) {
        write_block(w, self.ids.iter().copied(), self.cols.len(), |c| {
            self.cols.get(c).into_iter().flatten().copied()
        });
    }

    /// Everything a count promises is checked against the bytes that are
    /// left before anything is reserved for it: an id takes at least one
    /// byte and so does a share, so a block never decodes to more ids or
    /// shares than it has bytes.
    fn read(r: &mut WireReader) -> Result<Self, WireError> {
        let mut block = RowBlock::default();
        block.read_into(r)?;
        Ok(block)
    }

    fn read_into(&mut self, r: &mut WireReader) -> Result<(), WireError> {
        let rows = read_count(r)?;
        let cols = read_count(r)?;
        self.ids.clear();
        self.ids.reserve(rows);
        let mut prev = 0u64;
        for _ in 0..rows {
            let delta = read_varint(r)?;
            prev = prev.wrapping_add((delta >> 1) ^ (delta & 1).wrapping_neg());
            self.ids.push(prev);
        }
        self.cols.resize_with(cols, Vec::new);
        for col in &mut self.cols {
            let width = read_width(r)?;
            let len = rows
                .checked_mul(width)
                .ok_or(WireError::LengthOverflow(rows as u64))?;
            col.clear();
            col.extend(r.raw(len)?.chunks_exact(width).map(unpack_share));
        }
        Ok(())
    }
}

impl<'a> FromIterator<(u64, &'a [i128])> for RowBlock {
    /// The `(id, shares)` rows as one block of the first row's arity.
    fn from_iter<I: IntoIterator<Item = (u64, &'a [i128])>>(rows: I) -> Self {
        let mut rows = rows.into_iter().peekable();
        let arity = rows.peek().map_or(0, |(_, shares)| shares.len());
        let mut block = RowBlock::with_capacity(rows.size_hint().0, arity);
        for (id, shares) in rows {
            block.push(id, shares);
        }
        block
    }
}

impl<'a> FromIterator<&'a Row> for RowBlock {
    /// The rows as one block of the first row's arity.
    fn from_iter<I: IntoIterator<Item = &'a Row>>(rows: I) -> Self {
        let rows = rows.into_iter();
        rows.map(|row| (row.id, row.shares.as_slice())).collect()
    }
}

fn write_varint(w: &mut WireWriter, mut v: u64) {
    while v >= 0x80 {
        w.u8(v as u8 | 0x80);
        v >>= 7;
    }
    w.u8(v as u8);
}

/// A LEB128 `u64` in its one shortest form: at most ten bytes, nothing
/// above bit 63, no trailing zero byte.
fn read_varint(r: &mut WireReader) -> Result<u64, WireError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = r.u8()?;
        let bits = u64::from(byte & 0x7f);
        if (shift == 63 && bits > 1) || (byte == 0 && shift > 0) {
            return Err(WireError::BadTag(byte));
        }
        v |= bits << shift;
        if byte < 0x80 {
            return Ok(v);
        }
    }
    Err(WireError::LengthOverflow(v))
}

/// A count of things that each take at least one byte of what follows.
fn read_count(r: &mut WireReader) -> Result<usize, WireError> {
    let n = read_varint(r)?;
    match usize::try_from(n) {
        Ok(n) if n <= r.remaining() => Ok(n),
        _ => Err(WireError::LengthOverflow(n)),
    }
}

fn zigzag(share: i128) -> u128 {
    ((share << 1) ^ (share >> 127)) as u128
}

/// Bytes needed for every set bit of `zigzagged`, at least one: a column
/// of zero width would let a single byte stand for any number of shares,
/// and the decoder could no longer bound what it allocates by what it
/// was sent.
fn width_of(zigzagged: u128) -> usize {
    (128 - zigzagged.leading_zeros() as usize)
        .div_ceil(8)
        .max(1)
}

/// The one place a share becomes bytes: append the low `width` of its
/// zigzag form, little-endian. All sixteen are written and the rest cut
/// off again, which is a fixed-size store where a `width`-byte copy would
/// be a call.
fn pack_share(out: &mut Vec<u8>, share: i128, width: usize) {
    let keep = out.len() + width.min(16);
    out.extend_from_slice(&zigzag(share).to_le_bytes());
    out.truncate(keep);
}

/// The share whose packed form is `value` (at most 16 bytes).
fn unpack_share(value: &[u8]) -> i128 {
    let mut bytes = [0u8; 16];
    if let Some(low) = bytes.get_mut(..value.len()) {
        low.copy_from_slice(value);
    }
    let zigzagged = u128::from_le_bytes(bytes);
    (zigzagged >> 1) as i128 ^ -((zigzagged & 1) as i128)
}

fn write_int(w: &mut WireWriter, v: i128) {
    let width = width_of(zigzag(v));
    let mut value = Vec::with_capacity(16);
    pack_share(&mut value, v, width);
    w.u8(width as u8).raw(&value);
}

fn read_width(r: &mut WireReader) -> Result<usize, WireError> {
    match r.u8()? {
        width @ 1..=16 => Ok(usize::from(width)),
        width => Err(WireError::BadTag(width)),
    }
}

fn read_int(r: &mut WireReader) -> Result<i128, WireError> {
    let width = read_width(r)?;
    Ok(unpack_share(r.raw(width)?))
}

/// Write one block: `ids`, then `cols` columns, `col(c)` yielding column
/// `c` in row order. Each column is walked twice, once for its width.
fn write_block<C: Iterator<Item = i128>>(
    w: &mut WireWriter,
    ids: impl ExactSizeIterator<Item = u64>,
    cols: usize,
    col: impl Fn(usize) -> C,
) {
    let rows = ids.len();
    write_varint(w, rows as u64);
    write_varint(w, cols as u64);
    let mut prev = 0u64;
    for id in ids {
        let delta = id.wrapping_sub(prev) as i64;
        write_varint(w, ((delta << 1) ^ (delta >> 63)) as u64);
        prev = id;
    }
    let mut values = Vec::new();
    for c in 0..cols {
        let width = width_of(col(c).fold(0, |all, share| all | zigzag(share)));
        values.clear();
        values.reserve(rows * width + 16);
        for share in col(c) {
            pack_share(&mut values, share, width);
        }
        w.u8(width as u8).raw(&values);
    }
}

/// Write a row list: one block per run of rows of equal arity, so a list
/// the engine will refuse for its arity still reaches the engine intact.
fn write_rows<R: Borrow<Row>>(w: &mut WireWriter, rows: &[R]) {
    let same_arity = |a: &R, b: &R| a.borrow().shares.len() == b.borrow().shares.len();
    write_varint(w, rows.chunk_by(same_arity).count() as u64);
    for run in rows.chunk_by(same_arity) {
        let arity = run.first().map_or(0, |row| row.borrow().shares.len());
        write_block(w, run.iter().map(|row| row.borrow().id), arity, |c| {
            run.iter()
                .filter_map(move |row| row.borrow().shares.get(c).copied())
        });
    }
}

fn read_rows(r: &mut WireReader) -> Result<Vec<Row>, WireError> {
    let mut rows = Vec::new();
    for _ in 0..read_count(r)? {
        rows.extend(RowBlock::read(r)?.iter());
    }
    Ok(rows)
}

fn write_row(w: &mut WireWriter, row: &Row) {
    write_rows(w, std::slice::from_ref(row));
}

fn read_row(r: &mut WireReader) -> Result<Row, WireError> {
    match <[Row; 1]>::try_from(read_rows(r)?) {
        Ok([row]) => Ok(row),
        Err(rows) => Err(WireError::LengthOverflow(rows.len() as u64)),
    }
}

fn write_preds(w: &mut WireWriter, predicate: &[PredAtom]) {
    w.seq(predicate, |w, atom| match *atom {
        PredAtom::Eq { col, share } => {
            w.u8(0).u64(col as u64);
            write_int(w, share);
        }
        PredAtom::Range { col, lo, hi } => {
            w.u8(1).u64(col as u64);
            write_int(w, lo);
            write_int(w, hi);
        }
    });
}

fn read_preds(r: &mut WireReader) -> Result<Vec<PredAtom>, WireError> {
    r.seq(|r| {
        Ok(match r.u8()? {
            0 => PredAtom::Eq {
                col: r.u64()? as usize,
                share: read_int(r)?,
            },
            1 => PredAtom::Range {
                col: r.u64()? as usize,
                lo: read_int(r)?,
                hi: read_int(r)?,
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
    write_rows(w, &p.rows);
    w.seq(&p.proofs, write_merkle_proof);
    write_boundary(w, &p.left_boundary);
    write_boundary(w, &p.right_boundary);
}

fn read_range_proof(r: &mut WireReader) -> Result<WireRangeProof, WireError> {
    Ok(WireRangeProof {
        start: r.u64()?,
        rows: read_rows(r)?,
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
            Request::Insert { table, rows } | Request::Update { table, rows } => {
                w.string(table);
                write_rows(&mut w, rows);
            }
            Request::Delete { table, ids } => {
                w.string(table);
                w.seq(ids, |w, id| {
                    w.u64(*id);
                });
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
                w.string(table).u64(*col as u64);
                write_int(&mut w, *lo);
                write_int(&mut w, *hi);
            }
            Request::Increment { table, col, deltas } => {
                w.string(table).u64(*col as u64);
                write_block(&mut w, deltas.iter().map(|d| d.0), 1, |_| {
                    deltas.iter().map(|d| d.1)
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
                rows: read_rows(&mut r)?,
            },
            tag::DELETE => Request::Delete {
                table: r.string()?,
                ids: r.seq(|r| r.u64())?,
            },
            tag::UPDATE => Request::Update {
                table: r.string()?,
                rows: read_rows(&mut r)?,
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
                lo: read_int(&mut r)?,
                hi: read_int(&mut r)?,
            },
            tag::INCREMENT => Request::Increment {
                table: r.string()?,
                col: r.u64()? as usize,
                deltas: {
                    let (ids, cols) = RowBlock::read(&mut r)?.into_parts();
                    match <[Vec<i128>; 1]>::try_from(cols) {
                        Ok([deltas]) => ids.into_iter().zip(deltas).collect(),
                        Err(cols) => return Err(WireError::LengthOverflow(cols.len() as u64)),
                    }
                },
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
            Response::Rows(block) => {
                w.u8(1);
                block.write(&mut w);
            }
            Response::Joined(pairs) => {
                w.u8(2);
                let (left, right): (Vec<&Row>, Vec<&Row>) =
                    pairs.iter().map(|(l, r)| (l, r)).unzip();
                write_rows(&mut w, &left);
                write_rows(&mut w, &right);
            }
            Response::Agg { sum, count, row } => {
                w.u8(3);
                write_int(&mut w, *sum);
                w.u64(*count);
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
                write_block(&mut w, groups.iter().map(|g| g.rep_row), 3, |c| {
                    groups.iter().map(move |g| match c {
                        0 => g.group_share,
                        1 => g.sum,
                        _ => i128::from(g.count),
                    })
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
            1 => Response::Rows(RowBlock::read(&mut r)?),
            2 => {
                let left = read_rows(&mut r)?;
                let right = read_rows(&mut r)?;
                if left.len() != right.len() {
                    return Err(WireError::Truncated {
                        wanted: left.len(),
                        left: right.len(),
                    });
                }
                Response::Joined(left.into_iter().zip(right).collect())
            }
            3 => {
                let sum = read_int(&mut r)?;
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
            6 => {
                let (ids, cols) = RowBlock::read(&mut r)?.into_parts();
                let [group_shares, sums, counts] = <[Vec<i128>; 3]>::try_from(cols)
                    .map_err(|cols| WireError::LengthOverflow(cols.len() as u64))?;
                let mut groups = Vec::with_capacity(ids.len());
                for (((rep_row, group_share), sum), count) in
                    ids.into_iter().zip(group_shares).zip(sums).zip(counts)
                {
                    groups.push(GroupPartial {
                        rep_row,
                        group_share,
                        sum,
                        count: u64::try_from(count)
                            .map_err(|_| WireError::LengthOverflow(count as u64))?,
                    });
                }
                Response::Groups(groups)
            }
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
        roundtrip_resp(Response::Rows(RowBlock::default()));
        roundtrip_resp(Response::Rows(
            [Row {
                id: 7,
                shares: vec![1, 2, 3],
            }]
            .iter()
            .collect(),
        ));
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
        let mut bytes = Response::Rows(RowBlock::default()).encode();
        bytes.push(0);
        assert_eq!(Response::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    /// A block the size of the benchmark's `range_scan` answer: 1 000
    /// ascending ids, field shares below 2⁶¹ in three columns and
    /// order-preserving shares below 2³⁸ in one.
    fn scan_sized_block(rows: u64) -> RowBlock {
        let mut block = RowBlock::with_capacity(rows as usize, 4);
        for i in 0..rows {
            let field = |salt: u64| ((i + salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 3) as i128;
            let op = (1i128 << 37) + i128::from(i) * 1_000_003;
            block.push(
                1 + i,
                &[
                    field(1) | 1 << 60,
                    field(2) | 1 << 60,
                    op,
                    field(3) | 1 << 60,
                ],
            );
        }
        block
    }

    #[test]
    fn shares_cost_their_own_width_on_the_wire() {
        // 1 B of id delta + 8 + 8 + 5 + 8 B of shares a row; the layout
        // this one replaced spent 80.
        let block = scan_sized_block(1000);
        let bytes = block.encode();
        assert!(bytes.len() <= 32_000, "{} B for 1000 rows", bytes.len());
        assert_eq!(RowBlock::decode(&bytes), Ok(block));
        let one = Response::Rows(scan_sized_block(1)).encode();
        assert!(one.len() <= 40, "{} B for one row", one.len());
    }

    #[test]
    fn hostile_blocks_are_refused_before_anything_is_reserved() {
        // 2⁴⁰ rows promised by a message of a few bytes.
        let mut huge_rows = vec![1u8]; // Response::Rows
        huge_rows.extend([0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0]);
        assert_eq!(
            Response::decode(&huge_rows),
            Err(WireError::LengthOverflow(1 << 40))
        );
        // Likewise columns, and rows × width past the end of the message.
        assert_eq!(
            RowBlock::decode(&[0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20]),
            Err(WireError::LengthOverflow(1 << 40))
        );
        assert_eq!(
            RowBlock::decode(&[2, 1, 2, 2, 16, 0, 0]),
            Err(WireError::Truncated {
                wanted: 32,
                left: 2
            })
        );
        // Widths outside 1..=16: zero would decode shares out of no bytes.
        assert_eq!(RowBlock::decode(&[1, 1, 2, 0]), Err(WireError::BadTag(0)));
        assert_eq!(RowBlock::decode(&[1, 1, 2, 17]), Err(WireError::BadTag(17)));
        // Varints: an eleventh byte, bits past the 64th, a padded zero.
        let mut eleven = vec![0xffu8; 10];
        eleven.push(0);
        assert!(RowBlock::decode(&eleven).is_err());
        let mut past_64 = vec![0xffu8; 9];
        past_64.push(2);
        assert_eq!(RowBlock::decode(&past_64), Err(WireError::BadTag(2)));
        assert_eq!(RowBlock::decode(&[0x80, 0, 0]), Err(WireError::BadTag(0)));
        // Trailing bytes after a whole block.
        assert_eq!(
            RowBlock::decode(&[0, 0, 7]),
            Err(WireError::TrailingBytes(1))
        );
    }

    proptest! {
        #[test]
        fn prop_row_heavy_roundtrip(
            rows in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(any::<i128>(), 0..6)),
                0..20,
            )
        ) {
            // Any share, any id order, any mix of arities (runs of one).
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(id, shares)| Row { id, shares })
                .collect();
            roundtrip_req(Request::Insert { table: "t".into(), rows: rows.clone() });
            roundtrip_req(Request::Update { table: "t".into(), rows: rows.clone() });
            let pairs: Vec<(Row, Row)> = rows.iter().cloned().zip(rows.iter().rev().cloned()).collect();
            roundtrip_resp(Response::Joined(pairs));
            for row in rows {
                roundtrip_resp(Response::Agg { sum: row.shares.iter().fold(0, |a, s| a ^ s), count: row.id, row: Some(row) });
            }
        }

        #[test]
        fn prop_block_roundtrip(
            ids in proptest::collection::vec(any::<u64>(), 0..40),
            arity in 0usize..5,
            narrow in any::<bool>(),
            seed in any::<i128>(),
        ) {
            // One arity, 0 rows and 0 columns included; `narrow` keeps the
            // shares small so columns of every width get exercised, and the
            // extremes ride along in the wide case.
            let mut block = RowBlock::with_capacity(ids.len(), arity);
            for (r, &id) in ids.iter().enumerate() {
                let shares: Vec<i128> = (0..arity)
                    .map(|c| {
                        let v = seed.rotate_left((r * 7 + c * 31) as u32);
                        match (narrow, r % 4) {
                            (true, _) => v >> (8 * (c * 4 + 1)).min(127),
                            (false, 0) => i128::MIN,
                            (false, 1) => i128::MAX,
                            (false, _) => v,
                        }
                    })
                    .collect();
                block.push(id, &shares);
            }
            prop_assert_eq!(block.len(), ids.len());
            prop_assert_eq!(block.to_rows().len(), ids.len());
            prop_assert_eq!(RowBlock::decode(&block.encode()), Ok(block.clone()));
            prop_assert_eq!(block.to_rows().iter().collect::<RowBlock>().to_rows(), block.to_rows());
            roundtrip_resp(Response::Rows(block));
        }

        #[test]
        fn prop_decode_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..80)) {
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
            let _ = RowBlock::decode(&bytes);
            // Behind every tag that leads to the block decoder, too.
            for tag in [tag::INSERT, tag::UPDATE, tag::INCREMENT] {
                let mut req = vec![tag];
                req.extend([0u8; 8]); // table ""
                req.extend(&bytes);
                let _ = Request::decode(&req);
            }
            for tag in [1u8, 2, 3, 6, 8] {
                let mut resp = vec![tag];
                resp.extend(&bytes);
                let _ = Response::decode(&resp);
            }
        }
    }
}
