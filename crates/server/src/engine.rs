//! The provider's share-table engine.
//!
//! Tables are snapshot-versioned in-memory share maps with per-column
//! ordered indexes over `(share, row id)`, so the rewritten §V-A queries
//! run as index probes instead of scans. The engine never sees a
//! plaintext private value: filtering, aggregation partials, order
//! statistics and joins all operate directly on share space.
//!
//! # Concurrency: snapshot reads, logged writes
//!
//! Readers never block on writers. The engine publishes an immutable
//! [`Snapshot`] (tables + commitments) behind a briefly-held `RwLock`;
//! a read request clones the `Arc`, drops the lock, and runs entirely
//! against that pinned epoch — a bulk insert committing concurrently is
//! invisible until its snapshot is installed, and a reader mid-query
//! keeps its old epoch alive via the `Arc` until it finishes. Writers
//! serialize on a separate mutex, apply copy-on-write to the master
//! tables, append the encoded request to the write-ahead log, wait for
//! group commit *outside* the write mutex (so concurrent writers share
//! one fsync), and then install their snapshot — acknowledged only after
//! it is both durable and visible, which is what makes read-own-write
//! hold.
//!
//! Copy-on-write means path copying. Rows and indexes live in
//! persistent B+trees ([`crate::pmap::PMap`]) whose nodes are shared
//! between versions: a write copies the nodes on the root-to-leaf path
//! of each key it touches, in each map it touches — O(height) nodes per
//! key, each copied at most once per request — and shares the rest with
//! the published version. Dropping the last `Arc` of a superseded
//! version frees only the nodes it did not share with its successors.
//!
//! # Durability
//!
//! [`ProviderEngine::durable`] opens a provider directory
//! (`checkpoint.bin` + `wal.log`); every write op is logged before it is
//! acknowledged, and [`ProviderEngine::recover`] rebuilds rows and Merkle
//! commitments bit-identical to the pre-crash state, and indexes holding
//! the same keys: checkpoint image first, then replay of the log's
//! committed records into the rows trees alone (a torn tail is truncated
//! by the WAL layer), then one sort per index. A checkpoint streams every
//! table's packed rows into a fresh file, one record per leaf of the
//! rows tree (the engine keeps each leaf it wrote, held, with its record,
//! so only the leaves written since the last checkpoint are encoded),
//! renames it over `checkpoint.bin`, and then retires the log by
//! restamping its generation — a crash at any point leaves one
//! consistent (checkpoint, wal) pair. A volatile engine has no directory and its
//! checkpoint does nothing. [`EngineStats`] counters are atomics updated
//! outside all locks.

use crate::pmap::{Leaf, PMap};
use crate::proto::{
    AggOp, PredAtom, Request, Response, Row, RowBlock, WireMerkleProof, WireRangeProof,
};
use dasp_crypto::merkle::MerkleProof;
use dasp_storage::recovery::WAL_FILE;
use dasp_storage::wal::{crash_point_hit, CrashPoint, Wal, WalConfig, WalStats};
use dasp_storage::{CheckpointMeta, CheckpointReader, CheckpointWriter, RecoveryError, TableMeta};
use dasp_verify::merkle_table::{AuthenticatedTable, CommittedRow};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Execution statistics, used by benchmarks to separate index probes from
/// scans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered via an index probe.
    pub index_probes: u64,
    /// Queries answered by a full scan.
    pub full_scans: u64,
    /// Rows examined across all queries.
    pub rows_examined: u64,
}

/// Lock-free mirror of [`EngineStats`]: read-path requests bump these
/// concurrently, so plain fields would race.
#[derive(Debug, Default)]
struct SharedStats {
    index_probes: AtomicU64,
    full_scans: AtomicU64,
    rows_examined: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> EngineStats {
        EngineStats {
            index_probes: self.index_probes.load(Ordering::Relaxed),
            full_scans: self.full_scans.load(Ordering::Relaxed),
            rows_examined: self.rows_examined.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.index_probes.store(0, Ordering::Relaxed);
        self.full_scans.store(0, Ordering::Relaxed);
        self.rows_examined.store(0, Ordering::Relaxed);
    }
}

/// An ordered `(share, row id)` index over one column.
type ShareIndex = PMap<IndexKey, ()>;

/// An index entry: the share's high and low halves, then the row id. It
/// orders like `(share, id)` in 24 bytes; an `i128` field would align the
/// key to 32, a third more to read per comparison and copy per write.
type IndexKey = (i64, u64, u64);

fn index_key(share: i128, id: u64) -> IndexKey {
    ((share >> 64) as i64, share as u64, id)
}

/// One immutable version of a table: rows by id (the canonical order for
/// commitments and stable query output) plus ordered `(share, row id)`
/// sets for the indexed columns. The maps are persistent, so `clone()`
/// is a handful of reference-count bumps and a write to the clone copies
/// only the tree paths it touches.
#[derive(Clone)]
struct TableSnap {
    columns: Arc<[String]>,
    indexed: Arc<[bool]>,
    rows: PMap<u64, Vec<i128>>,
    indexes: Vec<Option<ShareIndex>>,
}

impl TableSnap {
    /// An empty table. `with_indexes == false` leaves every index `None`
    /// (recovery's tables until [`Self::build_indexes`]); `indexed` keeps
    /// the schema either way.
    fn new(columns: &[String], indexed: &[bool], with_indexes: bool) -> Self {
        TableSnap {
            columns: columns.into(),
            indexed: indexed.into(),
            rows: PMap::new(),
            indexes: indexed
                .iter()
                .map(|&b| (b && with_indexes).then(PMap::new))
                .collect(),
        }
    }

    /// Build every indexed column's index from the rows: one pass over
    /// the rows collects each column's `(share, id)` keys, then one sort
    /// and one bulk build per column. `None` only if the keys repeat,
    /// which distinct row ids rule out.
    fn build_indexes(&mut self) -> Option<()> {
        let mut keys: Vec<(usize, Vec<(IndexKey, ())>)> = self
            .indexed
            .iter()
            .enumerate()
            .filter(|&(_, &indexed)| indexed)
            .map(|(col, _)| (col, Vec::with_capacity(self.rows.len())))
            .collect();
        for (&id, shares) in self.rows.iter() {
            for (col, keys) in &mut keys {
                if let Some(&share) = shares.get(*col) {
                    keys.push((index_key(share, id), ()));
                }
            }
        }
        for (col, mut keys) in keys {
            keys.sort_unstable();
            if let Some(index) = self.indexes.get_mut(col) {
                *index = Some(PMap::from_sorted(keys)?);
            }
        }
        Some(())
    }

    fn insert_row(&mut self, id: u64, shares: Vec<i128>) {
        for (index, &share) in self.indexes.iter_mut().zip(shares.iter()) {
            if let Some(set) = index {
                set.insert(index_key(share, id), ());
            }
        }
        self.rows.insert(id, shares);
    }

    fn remove_row(&mut self, id: u64) -> Option<Vec<i128>> {
        let shares = self.rows.remove(&id)?;
        for (index, &share) in self.indexes.iter_mut().zip(shares.iter()) {
            if let Some(set) = index {
                set.remove(&index_key(share, id));
            }
        }
        Some(shares)
    }
}

/// The immutable state one read request runs against. Cloning the `Arc`
/// pins the epoch; dropping it releases the version for reclamation.
struct Snapshot {
    /// Publish sequence: writers install their snapshot only if it is
    /// newer than the published one (group commit wakes waiters out of
    /// order; a later writer's snapshot already contains earlier ops).
    seq: u64,
    tables: HashMap<String, Arc<TableSnap>>,
    /// Merkle commitments per (table, column); dropped on any mutation of
    /// the table, forcing the client to re-commit before verified reads.
    commitments: HashMap<(String, usize), Arc<AuthenticatedTable>>,
}

impl Snapshot {
    fn empty() -> Arc<Self> {
        Arc::new(Snapshot {
            seq: 0,
            tables: HashMap::new(),
            commitments: HashMap::new(),
        })
    }

    fn table(&self, name: &str) -> Result<&TableSnap, String> {
        self.tables
            .get(name)
            .map(|t| t.as_ref())
            .ok_or_else(|| format!("no such table {name:?}"))
    }
}

/// Where a durable engine's checkpoints land: its directory and the
/// generation of the checkpoint in force.
struct Store {
    dir: PathBuf,
    generation: u64,
    /// Auto-checkpoint after this many logged ops (0 = manual only).
    checkpoint_every: u64,
    ops_since_ckpt: u64,
    /// Each table's rows-tree leaves as the last checkpoint wrote them.
    records: HashMap<String, LeafRecords>,
    /// Rows-tree leaves encoded by this engine's checkpoints; a leaf is
    /// encoded once and written as is until it is next written to.
    leaves_encoded: u64,
}

/// A table's rows-tree leaves in key order, held (so none of them
/// changes in place), each with its framed checkpoint record.
type LeafRecords = Vec<(Leaf<u64, Vec<i128>>, Box<[u8]>)>;

/// Master state, guarded by the writer mutex. `tables` here is the
/// newest version (possibly not yet durable/published); snapshots share
/// its `Arc`s, and a write to a shared table copies tree paths only.
struct WriteState {
    tables: HashMap<String, Arc<TableSnap>>,
    commitments: HashMap<(String, usize), Arc<AuthenticatedTable>>,
    /// Commitments recovery owes: those of the checkpoint image and of
    /// replayed `Commit`s, dropped as built ones are by a later write to
    /// their table. Recovery builds what is left once, after the last
    /// record. Empty outside recovery.
    unbuilt: HashSet<(String, usize)>,
    seq: u64,
    /// `None` for a volatile engine.
    store: Option<Store>,
    /// Set when disk state may disagree with memory (failed append or
    /// checkpoint); all further writes are refused until recovery.
    broken: Option<String>,
}

impl WriteState {
    /// A write to `table` voids its commitments, built or owed.
    fn drop_commitments(&mut self, table: &str) {
        self.commitments.retain(|(t, _), _| t != table);
        self.unbuilt.retain(|(t, _)| t != table);
    }
}

/// Tuning for a durable provider.
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// Write-ahead log settings (none left: group commit needs no tuning).
    pub wal: WalConfig,
    /// Checkpoint automatically after this many logged ops (0 disables;
    /// call [`ProviderEngine::checkpoint`] manually).
    pub checkpoint_every: u64,
    /// No effect: checkpoints are written and read sequentially, with no
    /// buffer pool. Kept so that configurations built field by field
    /// still compile.
    pub pool_frames: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            wal: WalConfig::default(),
            checkpoint_every: 4096,
            pool_frames: 1024,
        }
    }
}

/// What [`ProviderEngine::recover`] found and rebuilt.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tables loaded from the checkpoint image.
    pub checkpoint_tables: u64,
    /// Rows loaded from the checkpoint image.
    pub checkpoint_rows: u64,
    /// Log records replayed on top of the image.
    pub wal_records: u64,
    /// Torn-tail bytes truncated from the log.
    pub torn_bytes: u64,
    /// The log belonged to a superseded generation and was reset.
    pub wal_reset: bool,
}

/// One provider's engine: snapshot-versioned share tables, optionally
/// write-ahead logged into a provider directory.
pub struct ProviderEngine {
    published: RwLock<Arc<Snapshot>>,
    write: Mutex<WriteState>,
    wal: Option<Wal>,
    stats: SharedStats,
}

/// A stored row, borrowed from the snapshot it was found in.
type RowRef<'s> = (u64, &'s [i128]);

fn owned(&(id, shares): &RowRef) -> Row {
    Row {
        id,
        shares: shares.to_vec(),
    }
}

/// The `limit` extreme rows by `(shares[order_col], id)`, ordered
/// ascending for `desc == false` and descending for `desc == true`.
///
/// When the limit covers every row this is a plain unstable sort; below
/// that, a bounded heap of `limit + 1` keys selects the extremes in
/// O(n log k). Callers have validated `order_col` against every row.
fn top_k<'s>(rows: Vec<RowRef<'s>>, order_col: usize, desc: bool, limit: usize) -> Vec<RowRef<'s>> {
    let key = |&(id, shares): &RowRef| (shares.get(order_col).copied().unwrap_or(i128::MIN), id);
    if limit >= rows.len() {
        let mut rows = rows;
        rows.sort_unstable_by_key(key);
        if desc {
            rows.reverse();
        }
        return rows;
    }
    // Heap over (key, input position); the position retrieves the row
    // afterwards. Keys are unique because ids are.
    let picked: Vec<(i128, u64, usize)> = if desc {
        // k largest: a min-heap (via Reverse) evicts the smallest seen.
        let mut heap = BinaryHeap::with_capacity(limit + 1);
        for (idx, row) in rows.iter().enumerate() {
            let (share, id) = key(row);
            heap.push(Reverse((share, id, idx)));
            if heap.len() > limit {
                heap.pop();
            }
        }
        let mut out: Vec<_> = heap.into_iter().map(|Reverse(k)| k).collect();
        out.sort_unstable_by(|a, b| b.cmp(a));
        out
    } else {
        // k smallest: a max-heap evicts the largest seen.
        let mut heap = BinaryHeap::with_capacity(limit + 1);
        for (idx, row) in rows.iter().enumerate() {
            let (share, id) = key(row);
            heap.push((share, id, idx));
            if heap.len() > limit {
                heap.pop();
            }
        }
        let mut out = heap.into_vec();
        out.sort_unstable();
        out
    };
    picked
        .into_iter()
        .filter_map(|(_, _, idx)| rows.get(idx).copied())
        .collect()
}

impl Default for ProviderEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ProviderEngine {
    /// A fresh volatile engine: no directory, no log, nothing survives
    /// the process.
    pub fn new() -> Self {
        ProviderEngine {
            published: RwLock::new(Snapshot::empty()),
            write: Mutex::new(WriteState {
                tables: HashMap::new(),
                commitments: HashMap::new(),
                unbuilt: HashSet::new(),
                seq: 0,
                store: None,
                broken: None,
            }),
            wal: None,
            stats: SharedStats::default(),
        }
    }

    /// Open (or create) a durable provider in `dir`, recovering any
    /// existing state: checkpoint image first, then replay of the
    /// write-ahead log's intact records, then one sort per index and one
    /// build per surviving Merkle commitment. Every
    /// acknowledged write op is in the image or the log by construction,
    /// so the rows and Merkle commitments are bit-identical to the
    /// pre-crash ones, and each index holds the same keys. An index's
    /// tree shape is `PMap::from_sorted`'s, not the one the live inserts
    /// grew; nothing reads the shape.
    pub fn durable(
        dir: &Path,
        cfg: DurableConfig,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        std::fs::create_dir_all(dir)?;
        let (meta, mut image) = CheckpointReader::open(dir)?;
        let mut report = RecoveryReport::default();

        // Load the checkpoint image: each table's records, in order, all
        // decoded into one block.
        let mut tables: HashMap<String, Arc<TableSnap>> = HashMap::new();
        let mut block = RowBlock::default();
        for tm in &meta.tables {
            let corrupt = |what: &str| {
                RecoveryError::Replay(format!("{what} in checkpoint table {:?}", tm.name))
            };
            let mut rows = Vec::new();
            while (rows.len() as u64) < tm.rows {
                block
                    .decode_into(image.record()?)
                    .map_err(|e| corrupt(&format!("corrupt record ({e})")))?;
                if block.cols().len() != tm.columns.len() {
                    return Err(corrupt("row arity mismatch"));
                }
                if block.is_empty() || rows.len() as u64 + block.len() as u64 > tm.rows {
                    return Err(corrupt("row count mismatch"));
                }
                rows.extend(block.iter().map(|row| (row.id, row.shares)));
            }
            report.checkpoint_rows += rows.len() as u64;
            // Checkpoints write rows in id order, so the rows tree
            // bulk-builds. The indexes wait for the end of replay.
            let mut snap = TableSnap::new(&tm.columns, &tm.indexed, false);
            snap.rows = PMap::from_sorted(rows).ok_or_else(|| corrupt("rows out of id order"))?;
            tables.insert(tm.name.clone(), Arc::new(snap));
        }
        image.finish()?;
        report.checkpoint_tables = tables.len() as u64;

        // The image's commitments are owed, not built: a logged write may
        // drop them.
        let mut unbuilt = HashSet::with_capacity(meta.committed.len());
        for (tname, col) in &meta.committed {
            if !tables.contains_key(tname) {
                return Err(RecoveryError::CorruptMeta(
                    "commitment references missing table",
                ));
            }
            unbuilt.insert((tname.clone(), *col as usize));
        }

        // Open the log for this generation and replay its records
        // through the normal apply path (without re-logging). Only ops
        // that succeeded against the pre-crash engine were ever logged,
        // so a replay failure means genuine log/image disagreement.
        // Replay maintains the rows trees only: every table, loaded or
        // created by a replayed `CreateTable`, has no index yet, and a
        // replayed `Commit` is checked and owed, not built.
        let rec = Wal::open(&dir.join(WAL_FILE), meta.generation, cfg.wal)?;
        report.torn_bytes = rec.torn_bytes;
        report.wal_reset = rec.reset;
        let mut ws = WriteState {
            tables,
            commitments: HashMap::new(),
            unbuilt,
            seq: 0,
            store: Some(Store {
                dir: dir.to_path_buf(),
                generation: meta.generation,
                checkpoint_every: cfg.checkpoint_every,
                ops_since_ckpt: 0,
                records: HashMap::new(),
                leaves_encoded: 0,
            }),
            broken: None,
        };
        for bytes in &rec.records {
            let request = Request::decode(bytes)
                .map_err(|e| RecoveryError::Replay(format!("undecodable wal record: {e:?}")))?;
            Self::apply(&mut ws, &request, None)
                .map_err(|e| RecoveryError::Replay(format!("replay rejected: {e}")))?;
            report.wal_records += 1;
        }
        // Then each index once, from the final rows: one sort instead of
        // one random-key insert per logged row. And each commitment still
        // owed, once: `AuthenticatedTable::build` is deterministic on row
        // content, so roots match pre-crash ones.
        for (name, t) in &mut ws.tables {
            Arc::make_mut(t).build_indexes().ok_or_else(|| {
                RecoveryError::Replay(format!("duplicate index key in table {name:?}"))
            })?;
        }
        for (table, col) in std::mem::take(&mut ws.unbuilt) {
            let t = ws.tables.get(&table).ok_or_else(|| {
                RecoveryError::Replay(format!("commitment to missing table {table:?}"))
            })?;
            let at = Self::build_commitment(t, col).map_err(RecoveryError::Replay)?;
            ws.commitments.insert((table, col), Arc::new(at));
        }
        ws.seq = report.wal_records;
        if let Some(store) = &mut ws.store {
            store.ops_since_ckpt = report.wal_records;
        }
        let snapshot = Arc::new(Snapshot {
            seq: ws.seq,
            tables: ws.tables.clone(),
            commitments: ws.commitments.clone(),
        });
        Ok((
            ProviderEngine {
                published: RwLock::new(snapshot),
                write: Mutex::new(ws),
                wal: Some(rec.wal),
                stats: SharedStats::default(),
            },
            report,
        ))
    }

    /// Recover a durable provider from `dir` with default tuning.
    pub fn recover(dir: &Path) -> Result<(Self, RecoveryReport), RecoveryError> {
        Self::durable(dir, DurableConfig::default())
    }

    /// Checkpoint now: write every table's rows to a fresh file, make it
    /// the durable truth by rename, then retire the log. A volatile
    /// engine has nowhere to write and returns `Ok(())`.
    pub fn checkpoint(&self) -> Result<(), String> {
        let mut guard = self.write.lock();
        let ws = &mut *guard;
        if let Some(broken) = &ws.broken {
            return Err(format!("provider needs recovery: {broken}"));
        }
        if let (Some(wal), Some(store)) = (&self.wal, &mut ws.store) {
            // Nothing may outrun the image: wait for everything logged so
            // far to be durable before superseding it.
            wal.commit(wal.end_lsn()).map_err(|e| e.to_string())?;
            if let Err(e) = Self::checkpoint_locked(&ws.tables, &ws.commitments, store, wal) {
                // Disk and memory may now disagree (e.g. the checkpoint
                // swung but the log did not retire): refuse writes until
                // recovery rather than risk double-apply or loss.
                ws.broken = Some(e.clone());
                return Err(e);
            }
        }
        Ok(())
    }

    fn checkpoint_locked(
        tables: &HashMap<String, Arc<TableSnap>>,
        commitments: &HashMap<(String, usize), Arc<AuthenticatedTable>>,
        store: &mut Store,
        wal: &Wal,
    ) -> Result<(), String> {
        let mut tables: Vec<_> = tables.iter().collect();
        tables.sort_by_key(|&(name, _)| name);
        let mut committed: Vec<(String, u32)> = commitments
            .keys()
            .map(|(t, c)| (t.clone(), *c as u32))
            .collect();
        committed.sort();
        let next_gen = store.generation + 1;
        let meta = CheckpointMeta {
            generation: next_gen,
            tables: tables
                .iter()
                .map(|&(name, t)| TableMeta {
                    name: name.clone(),
                    columns: t.columns.to_vec(),
                    indexed: t.indexed.to_vec(),
                    rows: t.rows.len() as u64,
                })
                .collect(),
            committed,
        };
        let mut file = CheckpointWriter::create(&store.dir, &meta).map_err(|e| e.to_string())?;
        let mut before = std::mem::take(&mut store.records);
        let mut records = HashMap::with_capacity(tables.len());
        for (name, t) in tables {
            if crash_point_hit(CrashPoint::MidCheckpoint) {
                return Err("simulated crash mid-checkpoint".into());
            }
            // One record per leaf of the rows tree. A leaf the last
            // checkpoint wrote is still the one node only if no write
            // touched it, so its record is written again as it is; the
            // other leaves are encoded. Both lists ascend by key.
            let mut kept = before
                .remove(name)
                .unwrap_or_default()
                .into_iter()
                .peekable();
            let mut table = Vec::new();
            for leaf in t.rows.leaves() {
                let first = leaf.keys().first();
                while kept
                    .next_if(|(old, _)| old.keys().first() < first)
                    .is_some()
                {}
                let record = match kept.next_if(|(old, _)| old.same(&leaf)) {
                    Some((_, record)) => record,
                    None => {
                        store.leaves_encoded += 1;
                        let block: RowBlock = leaf
                            .keys()
                            .iter()
                            .zip(leaf.values())
                            .map(|(&id, shares)| (id, shares.as_slice()))
                            .collect();
                        CheckpointWriter::frame(&block.encode()).map_err(|e| e.to_string())?
                    }
                };
                file.record(&record).map_err(|e| e.to_string())?;
                table.push((leaf, record));
            }
            records.insert(name.clone(), table);
        }
        // The atomic swing: after this rename the image is the truth and
        // the old log generation is superseded.
        file.commit().map_err(|e| e.to_string())?;
        if crash_point_hit(CrashPoint::BeforeWalSwitch) {
            return Err("simulated crash before wal switch".into());
        }
        wal.switch_generation(next_gen).map_err(|e| e.to_string())?;
        store.generation = next_gen;
        store.ops_since_ckpt = 0;
        store.records = records;
        Ok(())
    }

    /// Engine statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// Write-ahead log counters (durable engines only).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// Execute one request. All failures are mapped into
    /// [`Response::Error`] so a malformed request can never take the
    /// provider down.
    ///
    /// Read-only requests run lock-free against the published snapshot;
    /// mutating requests serialize on the writer mutex, log, group
    /// commit, and publish.
    pub fn execute(&self, request: &Request) -> Response {
        match self.try_execute(request) {
            Ok(resp) => resp,
            Err(msg) => Response::Error(msg),
        }
    }

    fn try_execute(&self, request: &Request) -> Result<Response, String> {
        if request.is_write() {
            self.execute_write(request)
        } else {
            // Pin an epoch: the snapshot stays alive (and consistent)
            // for the whole query even if writers publish newer ones.
            let snap = self.published.read().clone();
            self.execute_read(&snap, request)
        }
    }

    fn execute_write(&self, request: &Request) -> Result<Response, String> {
        let (snap, lsn, response, checkpoint_due) = {
            let mut ws = self.write.lock();
            if let Some(broken) = &ws.broken {
                return Err(format!("provider needs recovery: {broken}"));
            }
            // Apply to master first (all-or-nothing), log second: only
            // ops that succeeded are ever logged, so replay cannot fail
            // except on genuine corruption.
            let response = Self::apply(&mut ws, request, Some(&self.stats))?;
            let lsn = if let Some(wal) = &self.wal {
                match wal.append(&request.encode()) {
                    Ok(lsn) => Some(lsn),
                    Err(e) => {
                        // Master mutated but the op can never be durable:
                        // memory and disk disagree until recovery.
                        let msg = format!("wal append failed: {e}");
                        ws.broken = Some(msg.clone());
                        return Err(msg);
                    }
                }
            } else {
                None
            };
            ws.seq += 1;
            let checkpoint_due = ws.store.as_mut().is_some_and(|store| {
                store.ops_since_ckpt += 1;
                store.checkpoint_every > 0 && store.ops_since_ckpt >= store.checkpoint_every
            });
            let snap = Arc::new(Snapshot {
                seq: ws.seq,
                tables: ws.tables.clone(),
                commitments: ws.commitments.clone(),
            });
            (snap, lsn, response, checkpoint_due)
        };
        // Group commit outside the writer mutex: concurrent writers
        // queue records while this one waits, and one fsync covers them.
        if let (Some(wal), Some(lsn)) = (&self.wal, lsn) {
            if let Err(e) = wal.commit(lsn) {
                // Applied in memory but never durable: poison writes and
                // keep the op invisible (its snapshot is not published).
                let msg = format!("wal commit failed: {e}");
                self.write.lock().broken = Some(msg.clone());
                return Err(msg);
            }
        }
        // Publish-if-newer: a later writer woken first has already made
        // this op visible (its snapshot contains it). Whichever version
        // loses is dropped after the guard is released, so no reader's
        // `published.read()` waits on a deallocation.
        let superseded = {
            let mut published = self.published.write();
            if snap.seq > published.seq {
                std::mem::replace(&mut *published, snap)
            } else {
                snap
            }
        };
        drop(superseded);
        if matches!(request, Request::DropAllTables) {
            self.stats.reset();
        }
        if checkpoint_due {
            // Auto-checkpoint failure must not fail the (already durable
            // and visible) op; a broken store refuses the *next* write.
            let _ = self.checkpoint();
        }
        Ok(response)
    }

    /// Apply one mutating request to the master state, path-copying
    /// whatever the published snapshot still shares.
    /// Validation precedes mutation: a failed request leaves the master
    /// untouched (and is never logged). `stats` is `None` during replay,
    /// whose created tables get no index until the replay ends.
    fn apply(
        ws: &mut WriteState,
        request: &Request,
        stats: Option<&SharedStats>,
    ) -> Result<Response, String> {
        match request {
            Request::CreateTable {
                name,
                columns,
                indexed,
            } => Self::apply_create_table(ws, name, columns, indexed, stats.is_some()),
            Request::Insert { table, rows } => Self::apply_insert(ws, table, rows),
            Request::Delete { table, ids } => Self::apply_delete(ws, table, ids),
            Request::Update { table, rows } => Self::apply_update(ws, table, rows),
            Request::Increment { table, col, deltas } => {
                Self::apply_increment(ws, table, *col, deltas)
            }
            Request::Commit { table, col } => Self::apply_commit(ws, table, *col, stats),
            Request::DropAllTables => {
                ws.tables.clear();
                ws.commitments.clear();
                ws.unbuilt.clear();
                Ok(Response::Ack)
            }
            other => Err(format!("not a write request: {other:?}")),
        }
    }

    fn table_mut<'a>(
        tables: &'a mut HashMap<String, Arc<TableSnap>>,
        name: &str,
    ) -> Result<&'a mut TableSnap, String> {
        tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| format!("no such table {name:?}"))
    }

    fn apply_create_table(
        ws: &mut WriteState,
        name: &str,
        columns: &[String],
        indexed: &[bool],
        with_indexes: bool,
    ) -> Result<Response, String> {
        if ws.tables.contains_key(name) {
            return Err(format!("table {name:?} already exists"));
        }
        if columns.len() != indexed.len() {
            return Err("columns/indexed length mismatch".into());
        }
        if columns.is_empty() {
            return Err("table needs at least one column".into());
        }
        ws.tables.insert(
            name.to_string(),
            Arc::new(TableSnap::new(columns, indexed, with_indexes)),
        );
        Ok(Response::Ack)
    }

    fn apply_insert(ws: &mut WriteState, table: &str, rows: &[Row]) -> Result<Response, String> {
        {
            let t = ws
                .tables
                .get(table)
                .ok_or_else(|| format!("no such table {table:?}"))?;
            let mut fresh = HashSet::with_capacity(rows.len());
            for row in rows {
                if row.shares.len() != t.columns.len() {
                    return Err(format!(
                        "row {} has {} shares, table has {} columns",
                        row.id,
                        row.shares.len(),
                        t.columns.len()
                    ));
                }
                if t.rows.contains_key(&row.id) || !fresh.insert(row.id) {
                    return Err(format!("duplicate row id {}", row.id));
                }
            }
        }
        ws.drop_commitments(table);
        let t = Self::table_mut(&mut ws.tables, table)?;
        for row in rows {
            t.insert_row(row.id, row.shares.clone());
        }
        Ok(Response::Ack)
    }

    fn apply_delete(ws: &mut WriteState, table: &str, ids: &[u64]) -> Result<Response, String> {
        if !ws.tables.contains_key(table) {
            return Err(format!("no such table {table:?}"));
        }
        ws.drop_commitments(table);
        let t = Self::table_mut(&mut ws.tables, table)?;
        for &id in ids {
            t.remove_row(id); // deleting a missing row is a no-op
        }
        Ok(Response::Ack)
    }

    fn apply_update(ws: &mut WriteState, table: &str, rows: &[Row]) -> Result<Response, String> {
        // Eager update = delete + reinsert (§V-C): new shares mean new
        // index positions anyway. Validated up front so the pair is
        // all-or-nothing.
        {
            let t = ws
                .tables
                .get(table)
                .ok_or_else(|| format!("no such table {table:?}"))?;
            let mut fresh = HashSet::with_capacity(rows.len());
            for row in rows {
                if row.shares.len() != t.columns.len() {
                    return Err(format!(
                        "row {} has {} shares, table has {} columns",
                        row.id,
                        row.shares.len(),
                        t.columns.len()
                    ));
                }
                if !fresh.insert(row.id) {
                    return Err(format!("duplicate row id {}", row.id));
                }
            }
        }
        ws.drop_commitments(table);
        let t = Self::table_mut(&mut ws.tables, table)?;
        for row in rows {
            t.remove_row(row.id);
            t.insert_row(row.id, row.shares.clone());
        }
        Ok(Response::Ack)
    }

    /// Apply additive share deltas in place (no index maintenance: only
    /// unindexed random-mode columns are incremented by the client).
    fn apply_increment(
        ws: &mut WriteState,
        table: &str,
        col: usize,
        deltas: &[(u64, i128)],
    ) -> Result<Response, String> {
        let changed = {
            let t = ws
                .tables
                .get(table)
                .ok_or_else(|| format!("no such table {table:?}"))?;
            if t.indexed.get(col).is_none_or(|&b| b) {
                return Err(format!(
                    "column {col} is indexed (not random-mode); use Update instead"
                ));
            }
            // Deltas compound sequentially on duplicate ids; compute the
            // final values first so overflow rejects the whole batch.
            let mut changed: HashMap<u64, i128> = HashMap::with_capacity(deltas.len());
            for &(id, delta) in deltas {
                let current = match changed.get(&id) {
                    Some(&v) => v,
                    None => *t
                        .rows
                        .get(&id)
                        .ok_or_else(|| format!("no row {id} in {table:?}"))?
                        .get(col)
                        .ok_or_else(|| format!("column {col} out of range"))?,
                };
                let next = current.checked_add(delta).ok_or("share overflow")?;
                changed.insert(id, next);
            }
            changed
        };
        ws.drop_commitments(table);
        let t = Self::table_mut(&mut ws.tables, table)?;
        for (id, value) in changed {
            if let Some(shares) = t.rows.get_mut(&id) {
                if let Some(share) = shares.get_mut(col) {
                    *share = value;
                }
            }
        }
        Ok(Response::Ack)
    }

    fn check_commitment(t: &TableSnap, col: usize) -> Result<(), String> {
        if t.rows.is_empty() {
            return Err("cannot commit to an empty table".into());
        }
        for shares in t.rows.values() {
            if col >= shares.len() {
                return Err(format!("commit column {col} out of range"));
            }
        }
        Ok(())
    }

    fn build_commitment(t: &TableSnap, col: usize) -> Result<AuthenticatedTable, String> {
        Self::check_commitment(t, col)?;
        let committed: Vec<CommittedRow> = t
            .rows
            .iter()
            .map(|(&id, shares)| CommittedRow {
                id,
                shares: shares.clone(),
            })
            .collect();
        Ok(AuthenticatedTable::build(committed, col))
    }

    /// Build a commitment over the table sorted by `col`'s shares. A
    /// replayed one (`stats` is `None`) is checked and owed: recovery
    /// builds it after the last record unless a later write drops it.
    fn apply_commit(
        ws: &mut WriteState,
        table: &str,
        col: usize,
        stats: Option<&SharedStats>,
    ) -> Result<Response, String> {
        let t = ws
            .tables
            .get(table)
            .ok_or_else(|| format!("no such table {table:?}"))?;
        let Some(stats) = stats else {
            Self::check_commitment(t, col)?;
            ws.unbuilt.insert((table.to_string(), col));
            return Ok(Response::Ack); // replay discards its responses
        };
        // The commitment reads every row, which the stats report as one
        // full scan (as the pre-snapshot engine did).
        stats.full_scans.fetch_add(1, Ordering::Relaxed);
        stats
            .rows_examined
            .fetch_add(t.rows.len() as u64, Ordering::Relaxed);
        let at = Self::build_commitment(t, col)?;
        let root = at.root();
        let total = t.rows.len() as u64;
        ws.commitments
            .insert((table.to_string(), col), Arc::new(at));
        Ok(Response::Committed {
            root,
            total_rows: total,
        })
    }

    fn execute_read(&self, snap: &Snapshot, request: &Request) -> Result<Response, String> {
        match request {
            Request::Query {
                table,
                predicate,
                agg,
            } => self.query(snap, table, predicate, *agg),
            Request::QueryOrdered {
                table,
                predicate,
                order_col,
                desc,
                limit,
            } => self.query_ordered(snap, table, predicate, *order_col, *desc, *limit),
            Request::GroupedAggregate {
                table,
                predicate,
                group_col,
                agg,
            } => self.grouped_aggregate(snap, table, predicate, *group_col, *agg),
            Request::Join {
                left,
                right,
                left_col,
                right_col,
            } => self.join(snap, left, right, *left_col, *right_col),
            Request::VerifiedRange { table, col, lo, hi } => {
                Self::verified_range(snap, table, *col, *lo, *hi)
            }
            Request::Stats => {
                let rows = snap.tables.values().map(|t| t.rows.len() as u64).sum();
                Ok(Response::Stats {
                    tables: snap.tables.len() as u64,
                    rows,
                })
            }
            other => Err(format!("not a read request: {other:?}")),
        }
    }

    /// Candidate row ids for `predicate`, ascending and each once, or
    /// `None` for every row of the table. With one usable index the atom
    /// is probed directly (Eq beats Range on ties); with two or more
    /// indexed atoms every index is probed and the two smallest hit sets
    /// are merged, so a selective conjunction examines their intersection
    /// instead of the best single atom's range. No usable index: `None`,
    /// a full scan. [`Self::matching_rows`] re-checks every atom either
    /// way.
    fn candidates(&self, t: &TableSnap, predicate: &[PredAtom]) -> Option<Vec<u64>> {
        // Pair each atom with its index up front, so a pick can't dangle
        // between the filter and the lookup. Eq atoms sort first: equal
        // probe cost, usually tighter hit sets.
        let mut probes: Vec<(&PredAtom, &ShareIndex)> = predicate
            .iter()
            .filter_map(|a| {
                let set = t.indexes.get(a.col()).and_then(|i| i.as_ref())?;
                Some((a, set))
            })
            .collect();
        if probes.is_empty() {
            self.stats.full_scans.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        probes.sort_by_key(|(a, _)| match a {
            PredAtom::Eq { .. } => 0u8,
            PredAtom::Range { .. } => 1u8,
        });
        self.stats.index_probes.fetch_add(1, Ordering::Relaxed);
        // An index walks `(share, id)`: the ids of one share ascend, those
        // of a range do not.
        let probe = |atom: &PredAtom, set: &ShareIndex| -> Vec<u64> {
            let (lo, hi) = match atom {
                PredAtom::Eq { share, .. } => (*share, *share),
                PredAtom::Range { lo, hi, .. } => (*lo, *hi),
            };
            let mut ids: Vec<u64> = set
                .range(index_key(lo, 0)..=index_key(hi, u64::MAX))
                .map(|(&(_, _, id), ())| id)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        if let [(atom, set)] = probes[..] {
            return Some(probe(atom, set));
        }
        let mut sets: Vec<Vec<u64>> = probes.iter().map(|&(a, s)| probe(a, s)).collect();
        sets.sort_by_key(Vec::len);
        let mut sets = sets.into_iter();
        let (Some(smallest), Some(second)) = (sets.next(), sets.next()) else {
            return Some(Vec::new()); // unreachable: ≥ 2 probes here
        };
        let mut both = Vec::with_capacity(smallest.len());
        let mut second = second.into_iter().peekable();
        for id in smallest {
            while second.next_if(|&other| other < id).is_some() {}
            if second.next_if_eq(&id).is_some() {
                both.push(id);
            }
        }
        Some(both)
    }

    /// The rows of `table` that satisfy `predicate`, ascending by id: the
    /// order the wire's id deltas and the client's merge of providers
    /// rely on. `cols` are the request's other columns of this table;
    /// they and every atom's column are checked against the table's arity
    /// first, so whether a request is answered depends on the request and
    /// the schema, never on the rows.
    fn matching_rows<'s>(
        &self,
        snap: &'s Snapshot,
        table: &str,
        predicate: &[PredAtom],
        cols: &[usize],
    ) -> Result<Vec<RowRef<'s>>, String> {
        let t = snap.table(table)?;
        let arity = t.columns.len();
        let atoms = predicate.iter().map(PredAtom::col);
        if let Some(col) = atoms.chain(cols.iter().copied()).find(|&c| c >= arity) {
            return Err(format!(
                "column {col} out of range: {table:?} has {arity} columns"
            ));
        }
        // Two passes: the first walks the rows tree once, in id order,
        // and only collects references; the second reads the rows to check
        // the atoms. Checking inside the walk would make each row's reads
        // wait behind the tree's dependent loads.
        let (mut out, examined) = match self.candidates(t, predicate) {
            None => {
                let all: Vec<RowRef> = t
                    .rows
                    .iter()
                    .map(|(&id, shares)| (id, shares.as_slice()))
                    .collect();
                (all, t.rows.len())
            }
            Some(ids) => {
                // An id without a row is impossible by construction
                // (indexes mirror rows) and is skipped.
                let mut found = Vec::with_capacity(ids.len());
                t.rows
                    .get_sorted(&ids, |&id, shares| found.push((id, shares.as_slice())));
                (found, ids.len())
            }
        };
        self.stats
            .rows_examined
            .fetch_add(examined as u64, Ordering::Relaxed);
        out.retain(|(_, shares)| predicate.iter().all(|a| a.matches(shares)));
        Ok(out)
    }

    fn query(
        &self,
        snap: &Snapshot,
        table: &str,
        predicate: &[PredAtom],
        agg: Option<AggOp>,
    ) -> Result<Response, String> {
        let agg_col = match agg {
            Some(
                AggOp::Sum { col }
                | AggOp::Min { col }
                | AggOp::Max { col }
                | AggOp::Median { col },
            ) => Some(col),
            Some(AggOp::Count) | None => None,
        };
        let rows = self.matching_rows(snap, table, predicate, agg_col.as_slice())?;
        let Some(agg) = agg else {
            // One block: every row of a table has the table's arity.
            return Ok(Response::Rows(rows.into_iter().collect()));
        };
        let count = rows.len() as u64;
        let col_share = |row: &RowRef, col: usize| -> Result<i128, String> {
            row.1
                .get(col)
                .copied()
                .ok_or_else(|| format!("column {col} out of range"))
        };
        match agg {
            AggOp::Count => Ok(Response::Agg {
                sum: 0,
                count,
                row: None,
            }),
            AggOp::Sum { col } => {
                let mut sum = 0i128;
                for row in &rows {
                    sum = sum
                        .checked_add(col_share(row, col)?)
                        .ok_or("share sum overflow")?;
                }
                Ok(Response::Agg {
                    sum,
                    count,
                    row: None,
                })
            }
            AggOp::Min { col } | AggOp::Max { col } | AggOp::Median { col } => {
                if rows.is_empty() {
                    return Ok(Response::Agg {
                        sum: 0,
                        count: 0,
                        row: None,
                    });
                }
                let mut ordered: Vec<(i128, &RowRef)> = rows
                    .iter()
                    .map(|row| Ok((col_share(row, col)?, row)))
                    .collect::<Result<_, String>>()?;
                // Row ids break share ties so the pick is deterministic
                // across providers even though the sort is unstable.
                ordered.sort_unstable_by_key(|(s, row)| (*s, row.0));
                let picked = match agg {
                    AggOp::Min { .. } => ordered.first(),
                    AggOp::Max { .. } => ordered.last(),
                    AggOp::Median { .. } => ordered.get(ordered.len() / 2),
                    _ => unreachable!(),
                }
                .ok_or("aggregate over empty row set")?;
                Ok(Response::Agg {
                    sum: 0,
                    count,
                    row: Some(owned(picked.1)),
                })
            }
        }
    }

    /// Server-side top-k: the `limit` extreme matching rows by the share
    /// of `order_col`. Meaningful for order-preserving columns, where
    /// share order equals value order at every provider.
    ///
    /// Selection uses a bounded binary heap — O(n log k) instead of the
    /// O(n log n) full sort — with row ids breaking share ties exactly as
    /// the old stable sort did (ids ascend under `asc`, descend under
    /// `desc`).
    fn query_ordered(
        &self,
        snap: &Snapshot,
        table: &str,
        predicate: &[PredAtom],
        order_col: usize,
        desc: bool,
        limit: u64,
    ) -> Result<Response, String> {
        let rows = self.matching_rows(snap, table, predicate, &[order_col])?;
        let top = top_k(rows, order_col, desc, limit as usize);
        Ok(Response::Rows(top.into_iter().collect()))
    }

    /// Grouped aggregation partials: rows with equal `group_col` shares
    /// form a group (equal values ⇔ equal shares for equality-capable
    /// columns); each group reports its smallest row id as the
    /// cross-provider group key.
    fn grouped_aggregate(
        &self,
        snap: &Snapshot,
        table: &str,
        predicate: &[PredAtom],
        group_col: usize,
        agg: AggOp,
    ) -> Result<Response, String> {
        let sum_col = match agg {
            AggOp::Count => None,
            AggOp::Sum { col } => Some(col),
            other => return Err(format!("{other:?} is not groupable (Count/Sum only)")),
        };
        let cols = [group_col, sum_col.unwrap_or(group_col)];
        let rows = self.matching_rows(snap, table, predicate, &cols)?;
        let mut groups: HashMap<i128, crate::proto::GroupPartial> = HashMap::new();
        for &(id, shares) in &rows {
            let group_share = *shares
                .get(group_col)
                .ok_or_else(|| format!("group column {group_col} out of range"))?;
            let add = match sum_col {
                None => 0i128,
                Some(col) => *shares
                    .get(col)
                    .ok_or_else(|| format!("sum column {col} out of range"))?,
            };
            let entry = groups
                .entry(group_share)
                .or_insert(crate::proto::GroupPartial {
                    rep_row: id,
                    group_share,
                    sum: 0,
                    count: 0,
                });
            entry.rep_row = entry.rep_row.min(id);
            entry.sum = entry.sum.checked_add(add).ok_or("group sum overflow")?;
            entry.count += 1;
        }
        let mut out: Vec<crate::proto::GroupPartial> = groups.into_values().collect();
        out.sort_unstable_by_key(|g| g.rep_row);
        Ok(Response::Groups(out))
    }

    /// Serve a range with a completeness proof from the cached commitment.
    fn verified_range(
        snap: &Snapshot,
        table: &str,
        col: usize,
        lo: i128,
        hi: i128,
    ) -> Result<Response, String> {
        let at = snap
            .commitments
            .get(&(table.to_string(), col))
            .ok_or("no commitment for this table/column (or table changed); re-commit")?;
        let proof = at.prove_range(lo, hi);
        let to_wire = |p: &MerkleProof| WireMerkleProof {
            index: p.index as u64,
            siblings: p.siblings.clone(),
        };
        let row_of = |r: &CommittedRow| Row {
            id: r.id,
            shares: r.shares.clone(),
        };
        Ok(Response::ProvedRows {
            total_rows: at.len() as u64,
            proof: WireRangeProof {
                start: proof.start as u64,
                rows: proof.rows.iter().map(row_of).collect(),
                proofs: proof.proofs.iter().map(to_wire).collect(),
                left_boundary: proof
                    .left_boundary
                    .as_ref()
                    .map(|(r, p)| (row_of(r), to_wire(p))),
                right_boundary: proof
                    .right_boundary
                    .as_ref()
                    .map(|(r, p)| (row_of(r), to_wire(p))),
            },
        })
    }

    fn join(
        &self,
        snap: &Snapshot,
        left: &str,
        right: &str,
        left_col: usize,
        right_col: usize,
    ) -> Result<Response, String> {
        // Hash join on share values. Valid because same-domain values get
        // identical shares at this provider (per-domain polynomials, §V-A).
        let left_rows = self.matching_rows(snap, left, &[], &[left_col])?;
        let right_rows = self.matching_rows(snap, right, &[], &[right_col])?;
        let mut by_share: HashMap<i128, Vec<&RowRef>> = HashMap::new();
        for row in &left_rows {
            let share = *row
                .1
                .get(left_col)
                .ok_or_else(|| format!("left column {left_col} out of range"))?;
            by_share.entry(share).or_default().push(row);
        }
        let mut out = Vec::new();
        for rrow in &right_rows {
            let share = *rrow
                .1
                .get(right_col)
                .ok_or_else(|| format!("right column {right_col} out of range"))?;
            if let Some(matches) = by_share.get(&share) {
                for lrow in matches {
                    out.push((owned(lrow), owned(rrow)));
                }
            }
        }
        Ok(Response::Joined(out))
    }
}
#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn rows(data: &[(u64, &[i128])]) -> Vec<Row> {
        data.iter()
            .map(|&(id, shares)| Row {
                id,
                shares: shares.to_vec(),
            })
            .collect()
    }

    fn engine_with_table() -> ProviderEngine {
        let e = ProviderEngine::new();
        let resp = e.execute(&Request::CreateTable {
            name: "emp".into(),
            columns: vec!["name".into(), "salary".into()],
            indexed: vec![true, true],
        });
        assert_eq!(resp, Response::Ack);
        let resp = e.execute(&Request::Insert {
            table: "emp".into(),
            rows: rows(&[
                (1, &[100, 210]),
                (2, &[200, 30]),
                (3, &[100, 42]),
                (4, &[300, 64]),
                (5, &[400, 88]),
            ]),
        });
        assert_eq!(resp, Response::Ack);
        e
    }

    #[test]
    fn create_twice_fails() {
        let e = engine_with_table();
        let resp = e.execute(&Request::CreateTable {
            name: "emp".into(),
            columns: vec!["x".into()],
            indexed: vec![true],
        });
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn exact_match_via_index() {
        let e = engine_with_table();
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![PredAtom::Eq { col: 0, share: 100 }],
            agg: None,
        });
        let Response::Rows(got) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(e.stats().index_probes, 1);
        assert_eq!(e.stats().full_scans, 0);
    }

    #[test]
    fn range_query_via_index() {
        let e = engine_with_table();
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![PredAtom::Range {
                col: 1,
                lo: 40,
                hi: 90,
            }],
            agg: None,
        });
        let Response::Rows(got) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn conjunction_filters_on_both() {
        let e = engine_with_table();
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![
                PredAtom::Eq { col: 0, share: 100 },
                PredAtom::Range {
                    col: 1,
                    lo: 0,
                    hi: 50,
                },
            ],
            agg: None,
        });
        let Response::Rows(got) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn empty_predicate_returns_all() {
        let e = engine_with_table();
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![],
            agg: None,
        });
        let Response::Rows(got) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(got.len(), 5);
        assert_eq!(e.stats().full_scans, 1);
    }

    #[test]
    fn aggregates_over_shares() {
        let e = engine_with_table();
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![],
            agg: Some(AggOp::Sum { col: 1 }),
        });
        assert_eq!(
            resp,
            Response::Agg {
                sum: 210 + 30 + 42 + 64 + 88,
                count: 5,
                row: None
            }
        );

        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![],
            agg: Some(AggOp::Min { col: 1 }),
        });
        let Response::Agg {
            row: Some(row),
            count: 5,
            ..
        } = resp
        else {
            panic!("{resp:?}")
        };
        assert_eq!(row.id, 2); // share 30 is minimal

        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![],
            agg: Some(AggOp::Max { col: 1 }),
        });
        let Response::Agg { row: Some(row), .. } = resp else {
            panic!()
        };
        assert_eq!(row.id, 1); // share 210 is maximal

        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![],
            agg: Some(AggOp::Median { col: 1 }),
        });
        let Response::Agg { row: Some(row), .. } = resp else {
            panic!()
        };
        assert_eq!(row.id, 4); // shares sorted: 30,42,64,88,210 → median 64

        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![PredAtom::Eq { col: 0, share: 999 }],
            agg: Some(AggOp::Median { col: 1 }),
        });
        assert_eq!(
            resp,
            Response::Agg {
                sum: 0,
                count: 0,
                row: None
            }
        );
    }

    #[test]
    fn count_with_predicate() {
        let e = engine_with_table();
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![PredAtom::Range {
                col: 1,
                lo: 0,
                hi: 100,
            }],
            agg: Some(AggOp::Count),
        });
        assert_eq!(
            resp,
            Response::Agg {
                sum: 0,
                count: 4,
                row: None
            }
        );
    }

    #[test]
    fn delete_removes_from_index_too() {
        let e = engine_with_table();
        e.execute(&Request::Delete {
            table: "emp".into(),
            ids: vec![1, 3],
        });
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![PredAtom::Eq { col: 0, share: 100 }],
            agg: None,
        });
        assert_eq!(resp, Response::Rows(RowBlock::default()));
        // Deleting a missing id is a no-op Ack.
        assert_eq!(
            e.execute(&Request::Delete {
                table: "emp".into(),
                ids: vec![99]
            }),
            Response::Ack
        );
    }

    #[test]
    fn update_moves_index_entries() {
        let e = engine_with_table();
        e.execute(&Request::Update {
            table: "emp".into(),
            rows: rows(&[(2, &[100, 31])]),
        });
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![PredAtom::Eq { col: 0, share: 100 }],
            agg: None,
        });
        let Response::Rows(got) = resp else { panic!() };
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        // Old share value no longer matches row 2.
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![PredAtom::Eq { col: 0, share: 200 }],
            agg: None,
        });
        assert_eq!(resp, Response::Rows(RowBlock::default()));
    }

    #[test]
    fn unindexed_column_forces_scan_but_still_filters() {
        let e = ProviderEngine::new();
        e.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["rand".into()],
            indexed: vec![false],
        });
        e.execute(&Request::Insert {
            table: "t".into(),
            rows: rows(&[(1, &[5]), (2, &[9])]),
        });
        let resp = e.execute(&Request::Query {
            table: "t".into(),
            predicate: vec![PredAtom::Eq { col: 0, share: 9 }],
            agg: None,
        });
        let Response::Rows(got) = resp else { panic!() };
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), vec![2]);
        assert_eq!(e.stats().full_scans, 1);
    }

    #[test]
    fn join_on_share_equality() {
        let e = engine_with_table();
        e.execute(&Request::CreateTable {
            name: "mgr".into(),
            columns: vec!["name".into(), "level".into()],
            indexed: vec![true, false],
        });
        e.execute(&Request::Insert {
            table: "mgr".into(),
            rows: rows(&[(10, &[100, 1]), (11, &[500, 2])]),
        });
        let resp = e.execute(&Request::Join {
            left: "emp".into(),
            right: "mgr".into(),
            left_col: 0,
            right_col: 0,
        });
        let Response::Joined(pairs) = resp else {
            panic!("{resp:?}")
        };
        // emp rows 1 and 3 have name-share 100; mgr row 10 matches.
        let mut ids: Vec<(u64, u64)> = pairs.iter().map(|(l, r)| (l.id, r.id)).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![(1, 10), (3, 10)]);
    }

    /// Bad requests are answered with an error. A column past the table's
    /// arity is refused whatever the rows are: each such request below
    /// matches no row or reads an empty table, so no row is ever asked
    /// for the column.
    #[test]
    fn errors_are_responses_not_panics() {
        let e = engine_with_table();
        let ack = e.execute(&Request::CreateTable {
            name: "none".into(),
            columns: vec!["a".into(), "b".into()],
            indexed: vec![true, false],
        });
        assert_eq!(ack, Response::Ack);
        let nothing = || vec![PredAtom::Eq { col: 0, share: 999 }];
        let query = |predicate: Vec<PredAtom>, agg: Option<AggOp>| Request::Query {
            table: "emp".into(),
            predicate,
            agg,
        };
        let join = |left_col: usize, right_col: usize| Request::Join {
            left: "none".into(),
            right: "none".into(),
            left_col,
            right_col,
        };
        for req in [
            Request::Insert {
                table: "nope".into(),
                rows: vec![],
            },
            Request::Query {
                table: "nope".into(),
                predicate: vec![],
                agg: None,
            },
            Request::Insert {
                table: "emp".into(),
                rows: rows(&[(9, &[1])]), // wrong arity
            },
            Request::Insert {
                table: "emp".into(),
                rows: rows(&[(1, &[1, 2])]), // duplicate id
            },
            query(vec![], Some(AggOp::Sum { col: 99 })),
            // Out-of-range columns on requests that read no row.
            query(vec![PredAtom::Eq { col: 9, share: 1 }], None),
            query(
                vec![PredAtom::Range {
                    col: 2,
                    lo: 0,
                    hi: 1,
                }],
                Some(AggOp::Count),
            ),
            query(nothing(), Some(AggOp::Sum { col: 99 })),
            query(nothing(), Some(AggOp::Min { col: 2 })),
            query(nothing(), Some(AggOp::Max { col: 99 })),
            query(nothing(), Some(AggOp::Median { col: 99 })),
            Request::QueryOrdered {
                table: "emp".into(),
                predicate: nothing(),
                order_col: 99,
                desc: false,
                limit: 1,
            },
            Request::GroupedAggregate {
                table: "emp".into(),
                predicate: nothing(),
                group_col: 99,
                agg: AggOp::Count,
            },
            Request::GroupedAggregate {
                table: "emp".into(),
                predicate: nothing(),
                group_col: 0,
                agg: AggOp::Sum { col: 99 },
            },
            join(2, 0),
            join(0, 2),
        ] {
            assert!(
                matches!(e.execute(&req), Response::Error(_)),
                "{req:?} should error"
            );
        }
        // The same requests on columns in range are answered.
        for req in [
            query(nothing(), Some(AggOp::Sum { col: 1 })),
            query(vec![PredAtom::Eq { col: 1, share: 1 }], None),
            join(1, 0),
        ] {
            assert!(
                !matches!(e.execute(&req), Response::Error(_)),
                "{req:?} should be answered"
            );
        }
    }

    #[test]
    fn ordered_query_top_k() {
        let e = engine_with_table();
        // Order by salary share (col 1), ascending, top 3.
        let resp = e.execute(&Request::QueryOrdered {
            table: "emp".into(),
            predicate: vec![],
            order_col: 1,
            desc: false,
            limit: 3,
        });
        let Response::Rows(rows) = resp else {
            panic!("{resp:?}")
        };
        let shares: Vec<i128> = rows.iter().map(|r| r.shares[1]).collect();
        assert_eq!(shares, vec![30, 42, 64]);
        // Descending top 2.
        let resp = e.execute(&Request::QueryOrdered {
            table: "emp".into(),
            predicate: vec![],
            order_col: 1,
            desc: true,
            limit: 2,
        });
        let Response::Rows(rows) = resp else { panic!() };
        assert_eq!(
            rows.iter().map(|r| r.shares[1]).collect::<Vec<_>>(),
            vec![210, 88]
        );
        // With a predicate.
        let resp = e.execute(&Request::QueryOrdered {
            table: "emp".into(),
            predicate: vec![PredAtom::Range {
                col: 1,
                lo: 40,
                hi: 100,
            }],
            order_col: 1,
            desc: true,
            limit: 10,
        });
        let Response::Rows(rows) = resp else { panic!() };
        assert_eq!(
            rows.iter().map(|r| r.shares[1]).collect::<Vec<_>>(),
            vec![88, 64, 42]
        );
        // Bad column errors.
        let resp = e.execute(&Request::QueryOrdered {
            table: "emp".into(),
            predicate: vec![],
            order_col: 9,
            desc: false,
            limit: 1,
        });
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn grouped_aggregate_partials() {
        let e = engine_with_table();
        // Group by name share (col 0), sum salary shares (col 1).
        let resp = e.execute(&Request::GroupedAggregate {
            table: "emp".into(),
            predicate: vec![],
            group_col: 0,
            agg: AggOp::Sum { col: 1 },
        });
        let Response::Groups(groups) = resp else {
            panic!("{resp:?}")
        };
        // name shares: 100 → rows 1,3; 200 → row 2; 300 → row 4; 400 → row 5.
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0].rep_row, 1);
        assert_eq!(groups[0].group_share, 100);
        assert_eq!(groups[0].sum, 210 + 42);
        assert_eq!(groups[0].count, 2);
        assert_eq!(groups[1].rep_row, 2);
        assert_eq!(groups[1].sum, 30);
        // Count variant.
        let resp = e.execute(&Request::GroupedAggregate {
            table: "emp".into(),
            predicate: vec![],
            group_col: 0,
            agg: AggOp::Count,
        });
        let Response::Groups(groups) = resp else {
            panic!()
        };
        assert_eq!(groups[0].count, 2);
        assert_eq!(groups[0].sum, 0);
        // Min is not groupable.
        let resp = e.execute(&Request::GroupedAggregate {
            table: "emp".into(),
            predicate: vec![],
            group_col: 0,
            agg: AggOp::Min { col: 1 },
        });
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn grouped_aggregate_with_predicate() {
        let e = engine_with_table();
        let resp = e.execute(&Request::GroupedAggregate {
            table: "emp".into(),
            predicate: vec![PredAtom::Range {
                col: 1,
                lo: 0,
                hi: 100,
            }],
            group_col: 0,
            agg: AggOp::Sum { col: 1 },
        });
        let Response::Groups(groups) = resp else {
            panic!()
        };
        // Rows with salary share ≤ 100: ids 2,3,4,5 → name groups 200,100,300,400.
        assert_eq!(groups.len(), 4);
        let g100 = groups.iter().find(|g| g.group_share == 100).unwrap();
        assert_eq!((g100.rep_row, g100.sum, g100.count), (3, 42, 1));
    }

    #[test]
    fn commit_and_verified_range() {
        let e = engine_with_table();
        let resp = e.execute(&Request::Commit {
            table: "emp".into(),
            col: 1,
        });
        let Response::Committed { root, total_rows } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(total_rows, 5);

        let resp = e.execute(&Request::VerifiedRange {
            table: "emp".into(),
            col: 1,
            lo: 40,
            hi: 90,
        });
        let Response::ProvedRows { total_rows, proof } = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(total_rows, 5);
        assert_eq!(
            proof.rows.iter().map(|r| r.shares[1]).collect::<Vec<_>>(),
            vec![42, 64, 88]
        );
        assert_eq!(proof.proofs.len(), 3);
        assert!(proof.left_boundary.is_some()); // share 30 below
        assert!(proof.right_boundary.is_some()); // share 210 above

        // Re-committing is idempotent in root for unchanged data.
        let resp = e.execute(&Request::Commit {
            table: "emp".into(),
            col: 1,
        });
        let Response::Committed { root: root2, .. } = resp else {
            panic!()
        };
        assert_eq!(root, root2);
    }

    #[test]
    fn verified_range_refused_after_mutation() {
        let e = engine_with_table();
        e.execute(&Request::Commit {
            table: "emp".into(),
            col: 1,
        });
        e.execute(&Request::Insert {
            table: "emp".into(),
            rows: rows(&[(9, &[500, 70])]),
        });
        let resp = e.execute(&Request::VerifiedRange {
            table: "emp".into(),
            col: 1,
            lo: 0,
            hi: 100,
        });
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");
        // Deleting also invalidates.
        e.execute(&Request::Commit {
            table: "emp".into(),
            col: 1,
        });
        e.execute(&Request::Delete {
            table: "emp".into(),
            ids: vec![9],
        });
        let resp = e.execute(&Request::VerifiedRange {
            table: "emp".into(),
            col: 1,
            lo: 0,
            hi: 100,
        });
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn verified_range_without_commit_errors() {
        let e = engine_with_table();
        let resp = e.execute(&Request::VerifiedRange {
            table: "emp".into(),
            col: 1,
            lo: 0,
            hi: 10,
        });
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn stats_request_counts() {
        let e = engine_with_table();
        let resp = e.execute(&Request::Stats);
        assert_eq!(resp, Response::Stats { tables: 1, rows: 5 });
    }

    #[test]
    fn selective_conjunction_intersects_index_hits() {
        // Satellite regression: with two indexed atoms, the engine must
        // intersect the two smallest index hit sets instead of examining
        // every row matched by a single (unselective) atom.
        let e = ProviderEngine::new();
        e.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["dept".into(), "badge".into()],
            indexed: vec![true, true],
        });
        // dept share is the same for every row (one giant department);
        // badge shares are unique.
        let data: Vec<Row> = (0..3000u64)
            .map(|i| Row {
                id: i,
                shares: vec![100, i as i128 * 3],
            })
            .collect();
        e.execute(&Request::Insert {
            table: "t".into(),
            rows: data,
        });
        let before = e.stats();
        let resp = e.execute(&Request::Query {
            table: "t".into(),
            predicate: vec![
                PredAtom::Eq { col: 0, share: 100 },
                PredAtom::Eq {
                    col: 1,
                    share: 1500,
                },
            ],
            agg: None,
        });
        let Response::Rows(got) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), vec![500]);
        let after = e.stats();
        // One logical index probe per query, zero scans.
        assert_eq!(after.index_probes - before.index_probes, 1);
        assert_eq!(after.full_scans, 0);
        // The badge atom matches exactly one row; the intersection must
        // keep heap lookups at that scale instead of all 3000 dept hits.
        let examined = after.rows_examined - before.rows_examined;
        assert!(examined <= 2, "intersection examined {examined} rows");
    }

    #[test]
    fn top_k_heap_matches_full_sort_ties_included() {
        // Rows with duplicate shares: heap selection must reproduce the
        // stable sort's tie order (ids ascend when asc, descend when desc).
        let data: Vec<RowRef> = vec![
            (1, &[7]),
            (2, &[3]),
            (3, &[7]),
            (4, &[1]),
            (5, &[3]),
            (6, &[9]),
        ];
        let asc = top_k(data.clone(), 0, false, 4);
        assert_eq!(
            asc.iter().map(|r| (r.1[0], r.0)).collect::<Vec<_>>(),
            vec![(1, 4), (3, 2), (3, 5), (7, 1)]
        );
        let desc = top_k(data.clone(), 0, true, 4);
        assert_eq!(
            desc.iter().map(|r| (r.1[0], r.0)).collect::<Vec<_>>(),
            vec![(9, 6), (7, 3), (7, 1), (3, 5)]
        );
        // Limit ≥ n falls back to the full sort; limit 0 yields nothing.
        assert_eq!(top_k(data.clone(), 0, false, 100).len(), 6);
        assert!(top_k(data, 0, true, 0).is_empty());
    }

    #[test]
    fn large_table_index_beats_scan_rows_examined() {
        let e = ProviderEngine::new();
        e.execute(&Request::CreateTable {
            name: "big".into(),
            columns: vec!["v".into()],
            indexed: vec![true],
        });
        let data: Vec<Row> = (0..5000u64)
            .map(|i| Row {
                id: i,
                shares: vec![i as i128 * 3],
            })
            .collect();
        e.execute(&Request::Insert {
            table: "big".into(),
            rows: data,
        });
        let before = e.stats().rows_examined;
        let resp = e.execute(&Request::Query {
            table: "big".into(),
            predicate: vec![PredAtom::Range {
                col: 0,
                lo: 300,
                hi: 330,
            }],
            agg: None,
        });
        let Response::Rows(got) = resp else { panic!() };
        assert_eq!(got.len(), 11); // shares 300,303,...,330
        let examined = e.stats().rows_examined - before;
        assert!(examined <= 12, "index probe examined {examined} rows");
    }

    /// One write of `query_against_model`: the op (insert, delete or
    /// update), the row id and the row's three shares.
    type ModelWrite = (u8, u64, (i128, i128, i128));

    /// `Query` against a plaintext filter over a `BTreeMap`, on every
    /// candidate path: an Eq probe, a Range probe, two indexed atoms (the
    /// intersection), three atoms, an unindexed atom (full scan) and no
    /// atom. Rows come back as the model's, ids strictly ascending, and
    /// `rows_examined` counts the candidates: every row for a scan, the
    /// hit set for one probe, the intersection for two. The table starts
    /// with `prefill` rows inserted in descending id order, and `writes`
    /// land among them.
    fn query_against_model(
        prefill: u64,
        writes: &[ModelWrite],
        eq: i128,
        range: (i128, i128),
        scan: (i128, i128),
    ) {
        use std::collections::BTreeMap;
        let e = ProviderEngine::new();
        let ack = e.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["a".into(), "b".into(), "c".into()],
            indexed: vec![true, true, false],
        });
        assert_eq!(ack, Response::Ack);
        let mut model: BTreeMap<u64, Vec<i128>> = (0..prefill)
            .map(|i| {
                (
                    i * 3,
                    [i, i * 7, i * 5].map(|x| i128::from(x % 24)).to_vec(),
                )
            })
            .collect();
        let seed: Vec<Row> = model
            .iter()
            .rev()
            .map(|(&id, shares)| Row {
                id,
                shares: shares.clone(),
            })
            .collect();
        let ack = e.execute(&Request::Insert {
            table: "t".into(),
            rows: seed,
        });
        assert_eq!(ack, Response::Ack);
        let span = prefill * 3 + 64;
        for &(op, id, (a, b, c)) in writes {
            let (id, shares) = (id % span, [a, b, c]);
            let table = "t".to_string();
            let row = || rows(&[(id, &shares)]);
            let resp = match op % 4 {
                0 | 1 => {
                    let fresh = !model.contains_key(&id);
                    if fresh {
                        model.insert(id, shares.to_vec());
                    }
                    let resp = e.execute(&Request::Insert { table, rows: row() });
                    assert_eq!(matches!(resp, Response::Ack), fresh, "{resp:?}");
                    continue;
                }
                2 => {
                    model.remove(&id);
                    e.execute(&Request::Delete {
                        table,
                        ids: vec![id],
                    })
                }
                _ => {
                    model.insert(id, shares.to_vec());
                    e.execute(&Request::Update { table, rows: row() })
                }
            };
            assert_eq!(resp, Response::Ack);
        }
        let eq_a = PredAtom::Eq { col: 0, share: eq };
        let range_b = PredAtom::Range {
            col: 1,
            lo: range.0,
            hi: range.1,
        };
        let range_c = PredAtom::Range {
            col: 2,
            lo: scan.0,
            hi: scan.1,
        };
        let hits = |atom: &PredAtom| model.values().filter(|s| atom.matches(s)).count();
        let both = model
            .values()
            .filter(|s| eq_a.matches(s) && range_b.matches(s))
            .count();
        for (predicate, examined) in [
            (vec![eq_a.clone()], hits(&eq_a)),
            (vec![range_b.clone()], hits(&range_b)),
            (vec![range_b.clone(), eq_a.clone()], both),
            (vec![range_c.clone(), eq_a, range_b], both),
            (vec![range_c], model.len()),
            (vec![], model.len()),
        ] {
            let before = e.stats().rows_examined;
            let resp = e.execute(&Request::Query {
                table: "t".into(),
                predicate: predicate.clone(),
                agg: None,
            });
            let Response::Rows(got) = resp else {
                panic!("{resp:?}")
            };
            let got: Vec<(u64, Vec<i128>)> = got.iter().map(|r| (r.id, r.shares)).collect();
            let want: Vec<(u64, Vec<i128>)> = model
                .iter()
                .filter(|(_, s)| predicate.iter().all(|a| a.matches(s)))
                .map(|(&id, s)| (id, s.clone()))
                .collect();
            assert_eq!(got, want, "{predicate:?}");
            assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "ids not ascending");
            let counted = e.stats().rows_examined - before;
            assert_eq!(counted, examined as u64, "rows examined for {predicate:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn query_rows_ascend_and_match_a_plaintext_filter(
            prefill in 0u64..1500,
            writes in proptest::collection::vec(
                (0u8..4, proptest::prelude::any::<u64>(), (0i128..24, 0i128..24, 0i128..24)),
                0..600,
            ),
            eq in 0i128..24,
            range in (0i128..24, 0i128..24),
            scan in (0i128..24, 0i128..24),
        ) {
            query_against_model(prefill, &writes, eq, range, scan);
        }
    }

    // ---- durability & snapshot tests ----

    use dasp_storage::recovery::CHECKPOINT_FILE;
    use dasp_storage::wal::{arm_crash_point, disarm_crash_points};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex as StdMutex;

    /// Crash-point hooks are process-global, and any WAL append or
    /// checkpoint in this binary can consume an armed one: every test
    /// that appends or checkpoints takes this gate, not only the ones
    /// that arm a hook.
    pub(crate) static HOOK_GATE: StdMutex<()> = StdMutex::new(());

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dasp-engine-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Durable config with no auto-checkpoint, so tests control exactly
    /// what is in the log vs the image.
    fn tight_cfg() -> DurableConfig {
        DurableConfig {
            checkpoint_every: 0,
            ..DurableConfig::default()
        }
    }

    #[test]
    fn durable_engine_recovers_wal_only_state() {
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("wal-only");
        let root1;
        {
            let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
            assert!(e.wal_stats().is_some());
            e.execute(&Request::CreateTable {
                name: "emp".into(),
                columns: vec!["a".into(), "b".into()],
                indexed: vec![true, false],
            });
            e.execute(&Request::Insert {
                table: "emp".into(),
                rows: rows(&[(1, &[10, 5]), (2, &[20, 6]), (3, &[30, 7])]),
            });
            e.execute(&Request::Delete {
                table: "emp".into(),
                ids: vec![2],
            });
            e.execute(&Request::Increment {
                table: "emp".into(),
                col: 1,
                deltas: vec![(1, 4)],
            });
            let resp = e.execute(&Request::Commit {
                table: "emp".into(),
                col: 0,
            });
            let Response::Committed { root, .. } = resp else {
                panic!("{resp:?}")
            };
            root1 = root;
        }
        let (e, report) = ProviderEngine::recover(&dir).unwrap();
        assert_eq!(report.checkpoint_tables, 0);
        assert_eq!(report.wal_records, 5);
        assert_eq!(report.torn_bytes, 0);
        assert!(!report.wal_reset);
        let resp = e.execute(&Request::Query {
            table: "emp".into(),
            predicate: vec![],
            agg: None,
        });
        let Response::Rows(got) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(
            got.iter()
                .map(|r| (r.id, r.shares.clone()))
                .collect::<Vec<_>>(),
            vec![(1, vec![10, 9]), (3, vec![30, 7])]
        );
        // The commitment survives recovery bit-identically: verified
        // reads work immediately, and re-committing reproduces the root.
        let resp = e.execute(&Request::VerifiedRange {
            table: "emp".into(),
            col: 0,
            lo: 0,
            hi: 100,
        });
        assert!(matches!(resp, Response::ProvedRows { .. }), "{resp:?}");
        let resp = e.execute(&Request::Commit {
            table: "emp".into(),
            col: 0,
        });
        let Response::Committed { root: root2, .. } = resp else {
            panic!()
        };
        assert_eq!(root1, root2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_combines_checkpoint_image_and_log_tail() {
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("ckpt-tail");
        {
            let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
            e.execute(&Request::CreateTable {
                name: "t".into(),
                columns: vec!["v".into()],
                indexed: vec![true],
            });
            let data: Vec<Row> = (0..50u64)
                .map(|i| Row {
                    id: i,
                    shares: vec![i as i128 * 3],
                })
                .collect();
            assert_eq!(
                e.execute(&Request::Insert {
                    table: "t".into(),
                    rows: data,
                }),
                Response::Ack
            );
            e.checkpoint().unwrap();
            let more: Vec<Row> = (50..60u64)
                .map(|i| Row {
                    id: i,
                    shares: vec![i as i128 * 3],
                })
                .collect();
            e.execute(&Request::Insert {
                table: "t".into(),
                rows: more,
            });
            e.execute(&Request::Delete {
                table: "t".into(),
                ids: vec![0, 1],
            });
        }
        let (e, report) = ProviderEngine::recover(&dir).unwrap();
        assert_eq!(report.checkpoint_tables, 1);
        assert_eq!(report.checkpoint_rows, 50);
        assert_eq!(report.wal_records, 2);
        assert_eq!(
            e.execute(&Request::Stats),
            Response::Stats {
                tables: 1,
                rows: 58
            }
        );
        // Indexes were rebuilt: a range probe answers without a scan.
        let resp = e.execute(&Request::Query {
            table: "t".into(),
            predicate: vec![PredAtom::Range {
                col: 0,
                lo: 150,
                hi: 177,
            }],
            agg: Some(AggOp::Count),
        });
        assert_eq!(
            resp,
            Response::Agg {
                sum: 0,
                count: 10,
                row: None
            }
        );
        assert_eq!(e.stats().full_scans, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_loses_only_the_torn_op() {
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("torn");
        {
            let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
            e.execute(&Request::CreateTable {
                name: "t".into(),
                columns: vec!["v".into()],
                indexed: vec![true],
            });
            assert_eq!(
                e.execute(&Request::Insert {
                    table: "t".into(),
                    rows: rows(&[(1, &[11])]),
                }),
                Response::Ack
            );
            arm_crash_point(CrashPoint::MidRecord);
            let resp = e.execute(&Request::Insert {
                table: "t".into(),
                rows: rows(&[(2, &[22])]),
            });
            disarm_crash_points();
            assert!(matches!(resp, Response::Error(_)), "{resp:?}");
            // The engine is poisoned until recovery: no further write may
            // succeed (it could silently outlive the lost one).
            let resp = e.execute(&Request::Insert {
                table: "t".into(),
                rows: rows(&[(3, &[33])]),
            });
            assert!(matches!(resp, Response::Error(_)), "{resp:?}");
        }
        let (e, report) = ProviderEngine::recover(&dir).unwrap();
        // The in-process hook poisons the log before the torn half can be
        // flushed, so the file ends cleanly after the committed prefix
        // (on-disk torn tails are exercised by the fault-injection fuzz).
        assert_eq!(report.wal_records, 2); // create + first insert
        let resp = e.execute(&Request::Query {
            table: "t".into(),
            predicate: vec![],
            agg: None,
        });
        let Response::Rows(got) = resp else {
            panic!("{resp:?}")
        };
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_checkpoint_leaves_log_authoritative() {
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("mid-ckpt");
        {
            let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
            e.execute(&Request::CreateTable {
                name: "t".into(),
                columns: vec!["v".into()],
                indexed: vec![true],
            });
            e.execute(&Request::Insert {
                table: "t".into(),
                rows: rows(&[(1, &[1]), (2, &[2]), (3, &[3]), (4, &[4]), (5, &[5])]),
            });
            arm_crash_point(CrashPoint::MidCheckpoint);
            let res = e.checkpoint();
            disarm_crash_points();
            assert!(res.is_err());
            // Writes are refused; published reads still serve.
            let resp = e.execute(&Request::Insert {
                table: "t".into(),
                rows: rows(&[(6, &[6])]),
            });
            assert!(matches!(resp, Response::Error(_)));
            assert_eq!(
                e.execute(&Request::Stats),
                Response::Stats { tables: 1, rows: 5 }
            );
        }
        let (e, report) = ProviderEngine::recover(&dir).unwrap();
        assert_eq!(report.checkpoint_tables, 0); // meta never swung
        assert_eq!(report.wal_records, 2);
        assert_eq!(
            e.execute(&Request::Stats),
            Response::Stats { tables: 1, rows: 5 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_cut_short_leaves_a_temp_file_that_recovery_ignores() {
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("stray-tmp");
        let table = |name: &str| Request::CreateTable {
            name: name.into(),
            columns: vec!["v".into()],
            indexed: vec![true],
        };
        {
            let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
            e.execute(&table("a"));
            e.execute(&Request::Insert {
                table: "a".into(),
                rows: rows(&[(1, &[1]), (2, &[2])]),
            });
            e.checkpoint().unwrap();
            e.execute(&table("b"));
            e.execute(&Request::Insert {
                table: "b".into(),
                rows: rows(&[(3, &[3])]),
            });
            // The crash comes before table "b" is written, so the temp
            // file holds the new header and table "a" only.
            arm_crash_point(CrashPoint::MidCheckpoint);
            let res = e.checkpoint();
            disarm_crash_points();
            assert!(res.is_err());
        }
        assert!(dir.join("checkpoint.tmp").exists());
        let (e, report) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        assert!(!dir.join("checkpoint.tmp").exists());
        assert_eq!((report.checkpoint_tables, report.checkpoint_rows), (1, 2));
        assert_eq!((report.wal_records, report.wal_reset), (2, false));
        assert_eq!(
            e.execute(&Request::Stats),
            Response::Stats { tables: 2, rows: 3 }
        );
        e.checkpoint().unwrap();
        drop(e);
        let (e, report) = ProviderEngine::recover(&dir).unwrap();
        assert_eq!((report.checkpoint_tables, report.checkpoint_rows), (2, 3));
        assert_eq!(report.wal_records, 0);
        assert_eq!(
            e.execute(&Request::Stats),
            Response::Stats { tables: 2, rows: 3 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_meta_swing_and_log_retirement_is_safe() {
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("wal-switch");
        {
            let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
            e.execute(&Request::CreateTable {
                name: "t".into(),
                columns: vec!["v".into()],
                indexed: vec![false],
            });
            let data: Vec<Row> = (0..10u64)
                .map(|i| Row {
                    id: i,
                    shares: vec![i as i128],
                })
                .collect();
            e.execute(&Request::Insert {
                table: "t".into(),
                rows: data,
            });
            arm_crash_point(CrashPoint::BeforeWalSwitch);
            let res = e.checkpoint();
            disarm_crash_points();
            assert!(res.is_err());
        }
        // meta.bin now points at the new image (generation 1) while the
        // log still carries generation 0. Recovery must reset the log —
        // replaying those superseded records on top of the image would
        // double-apply the create and inserts.
        let (e, report) = ProviderEngine::recover(&dir).unwrap();
        assert!(report.wal_reset, "{report:?}");
        assert_eq!(report.checkpoint_rows, 10);
        assert_eq!(report.wal_records, 0);
        assert_eq!(
            e.execute(&Request::Stats),
            Response::Stats {
                tables: 1,
                rows: 10
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn readers_see_whole_batches_never_partial() {
        // Bulk inserts of 100 rows each race with readers counting rows:
        // a snapshot reader must only ever observe a multiple of 100.
        let e = Arc::new(ProviderEngine::new());
        e.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["v".into()],
            indexed: vec![false],
        });
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let e = Arc::clone(&e);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let resp = e.execute(&Request::Query {
                            table: "t".into(),
                            predicate: vec![],
                            agg: Some(AggOp::Count),
                        });
                        let Response::Agg { count, .. } = resp else {
                            panic!("{resp:?}")
                        };
                        assert_eq!(count % 100, 0, "reader saw a torn batch: {count}");
                    }
                })
            })
            .collect();
        for batch in 0..30u64 {
            let data: Vec<Row> = (0..100u64)
                .map(|i| Row {
                    id: batch * 100 + i,
                    shares: vec![batch as i128],
                })
                .collect();
            assert_eq!(
                e.execute(&Request::Insert {
                    table: "t".into(),
                    rows: data,
                }),
                Response::Ack
            );
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // Writer read-own-write: everything inserted is visible.
        let resp = e.execute(&Request::Query {
            table: "t".into(),
            predicate: vec![],
            agg: Some(AggOp::Count),
        });
        assert_eq!(
            resp,
            Response::Agg {
                sum: 0,
                count: 3000,
                row: None
            }
        );
    }

    #[test]
    fn pinned_reader_gets_identical_rows_after_later_writes() {
        let e = ProviderEngine::new();
        e.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["a".into(), "b".into()],
            indexed: vec![true, false],
        });
        let data: Vec<Row> = (0..3000u64)
            .map(|id| Row {
                id,
                shares: vec![id as i128 * 3, 0],
            })
            .collect();
        assert_eq!(
            e.execute(&Request::Insert {
                table: "t".into(),
                rows: data,
            }),
            Response::Ack
        );
        let reads = [
            Request::Query {
                table: "t".into(),
                predicate: vec![],
                agg: None,
            },
            Request::Query {
                table: "t".into(),
                predicate: vec![PredAtom::Range {
                    col: 0,
                    lo: 600,
                    hi: 2400,
                }],
                agg: None,
            },
        ];
        // Pin the epoch the way `try_execute` does, and hold it across
        // the writes.
        let pinned = e.published.read().clone();
        let answer = |snap: &Snapshot| -> Vec<Vec<u8>> {
            reads
                .iter()
                .map(|r| e.execute_read(snap, r).expect("read").encode())
                .collect()
        };
        let before = answer(&pinned);
        // Every write kind, on rows from before the pin and on new ones.
        let writes = [
            Request::Insert {
                table: "t".into(),
                rows: (5000..5200u64)
                    .map(|id| Row {
                        id,
                        shares: vec![id as i128 * 3, 1],
                    })
                    .collect(),
            },
            Request::Update {
                table: "t".into(),
                rows: (100..400u64)
                    .map(|id| Row {
                        id,
                        shares: vec![-(id as i128), 2],
                    })
                    .collect(),
            },
            Request::Delete {
                table: "t".into(),
                ids: (0..5100u64).step_by(7).collect(),
            },
            Request::Increment {
                table: "t".into(),
                col: 1,
                deltas: (1..3000u64).step_by(7).map(|id| (id, 40)).collect(),
            },
        ];
        for write in &writes {
            assert_eq!(e.execute(write), Response::Ack, "{write:?}");
        }
        assert_eq!(answer(&pinned), before, "a pinned epoch saw a later write");
        let live = e.published.read().clone();
        assert_ne!(answer(&live), before);
    }

    #[test]
    fn bulk_built_table_equals_row_by_row_inserts() {
        let columns = ["a".to_string(), "b".to_string(), "c".to_string()];
        let indexed = [true, false, true];
        let rows: Vec<(u64, Vec<i128>)> = (0..500u64)
            .map(|id| (id * 2, vec![(id % 13) as i128, id as i128, -(id as i128)]))
            .collect();
        // The image loader's path: the rows tree from the sorted rows,
        // then every index from one sort.
        let mut bulk = TableSnap::new(&columns, &indexed, false);
        assert!(bulk.indexes.iter().all(Option::is_none));
        bulk.rows = PMap::from_sorted(rows.clone()).unwrap();
        bulk.build_indexes().unwrap();
        let mut one_by_one = TableSnap::new(&columns, &indexed, true);
        for (id, shares) in rows.iter().rev() {
            one_by_one.insert_row(*id, shares.clone());
        }
        assert!(bulk.rows.iter().eq(one_by_one.rows.iter()));
        assert_eq!(bulk.indexes.len(), 3);
        for (b, o) in bulk.indexes.iter().zip(&one_by_one.indexes) {
            match (b, o) {
                (Some(b), Some(o)) => assert!(b.keys().eq(o.keys())),
                (None, None) => {}
                _ => panic!("index presence differs"),
            }
        }
        // Ids out of order or repeated mean a corrupt image.
        let mut swapped = rows.clone();
        swapped.swap(3, 4);
        assert!(PMap::from_sorted(swapped).is_none());
        let mut repeated = rows;
        repeated[4].0 = repeated[3].0;
        assert!(PMap::from_sorted(repeated).is_none());
    }

    #[test]
    fn index_keys_order_like_share_then_id() {
        let shares = [
            i128::MIN,
            -(1 << 64) - 1,
            -(1 << 64),
            -1,
            0,
            1,
            u64::MAX as i128,
        ];
        let shares = shares
            .into_iter()
            .chain([1 << 64, (1 << 64) + 1, i128::MAX]);
        let pairs: Vec<(i128, u64)> = shares
            .flat_map(|s| [0, 7, u64::MAX].map(|id| (s, id)))
            .collect();
        for a in &pairs {
            for b in &pairs {
                assert_eq!(
                    index_key(a.0, a.1).cmp(&index_key(b.0, b.1)),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn a_directory_from_before_packed_rows_is_refused_not_misread() {
        // The previous release's log: version 1 in the header, then one
        // framed record in the old fixed-width layout. It holds
        // acknowledged writes, so it must be neither replayed (the bytes
        // mean something else now) nor reset.
        let dir = test_dir("old-wal");
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join(WAL_FILE);
        let mut old_log = b"DWAL\x01\0\0\0\0\0\0\0\0\0\0\0".to_vec();
        old_log.extend(b"\x09\0\0\0\xde\xad\xbe\xef\x01\0\0\0\0\0\0\0\0");
        std::fs::write(&wal_path, &old_log).unwrap();
        assert!(matches!(
            ProviderEngine::recover(&dir),
            Err(RecoveryError::Storage(dasp_storage::StorageError::Corrupt(
                "unknown wal version"
            )))
        ));
        assert_eq!(std::fs::read(&wal_path).unwrap(), old_log);
        // A checkpoint of another version is read first and refused the
        // same way.
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        std::fs::write(&checkpoint_path, b"DCKP\x02\0\0\0\0\0\0\0\0\0\0\0").unwrap();
        assert!(matches!(
            ProviderEngine::recover(&dir),
            Err(RecoveryError::CorruptMeta("unknown version"))
        ));
        assert_eq!(std::fs::read(&wal_path).unwrap(), old_log);
        let _ = std::fs::remove_dir_all(&dir);

        // The paged layout of the release before this one, byte for byte
        // as it is left by: create `t`, insert (1, [10]), checkpoint,
        // insert (7, [70]). `meta.bin` (version 2) names heap page 0 of
        // `data.db` as table `t`, and the log of generation 1 holds the
        // acknowledged second insert. Read naively the directory has no
        // checkpoint, so generation 0, and its log would be reset; it must
        // be refused with every byte in place.
        let dir = test_dir("paged-layout");
        std::fs::create_dir_all(&dir).unwrap();
        let mut body = 1u64.to_le_bytes().to_vec(); // generation
        body.extend(1u32.to_le_bytes()); // tables
        body.extend(1u32.to_le_bytes());
        body.extend(b"t");
        body.extend(1u32.to_le_bytes()); // columns
        body.extend(1u32.to_le_bytes());
        body.extend(b"v");
        body.extend(1u32.to_le_bytes()); // indexed flags
        body.push(1);
        body.extend(1u32.to_le_bytes()); // heap pages
        body.extend(0u32.to_le_bytes());
        body.extend(0u32.to_le_bytes()); // committed columns
        let mut meta = b"DCKP\x02\0\0\0".to_vec();
        meta.extend((body.len() as u32).to_le_bytes());
        meta.extend(dasp_storage::wal::crc32(&body).to_le_bytes());
        meta.extend(body);
        // A heap page: type, one slot, free space from 4091, the slot
        // (offset 4091, 5 bytes), and the row block of (1, [10]) at 4091.
        let mut page = vec![0u8; 4096];
        page[..9].copy_from_slice(&[1, 1, 0, 0xfb, 0x0f, 0xfb, 0x0f, 5, 0]);
        page[4091..].copy_from_slice(&[1, 1, 2, 1, 20]);
        let insert = Request::Insert {
            table: "t".into(),
            rows: rows(&[(7, &[70])]),
        }
        .encode();
        let mut log = b"DWAL\x02\0\0\0".to_vec();
        log.extend(1u64.to_le_bytes());
        log.extend((insert.len() as u32).to_le_bytes());
        log.extend(dasp_storage::wal::crc32(&insert).to_le_bytes());
        log.extend(insert);
        let files = [("meta.bin", meta), ("data.db", page), (WAL_FILE, log)];
        for (name, bytes) in &files {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        // Either paged file alone is enough to refuse.
        for present in [&files[..], &files[1..]] {
            for (name, bytes) in present {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
            assert!(matches!(
                ProviderEngine::recover(&dir),
                Err(RecoveryError::CorruptMeta(
                    "paged checkpoint layout of an earlier release"
                ))
            ));
            for (name, bytes) in present {
                assert_eq!(&std::fs::read(dir.join(name)).unwrap(), bytes, "{name}");
            }
            assert!(!dir.join(CHECKPOINT_FILE).exists());
            let _ = std::fs::remove_file(dir.join("meta.bin"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_record_matches_the_wire_layout() {
        // The image's records are wire row blocks, one per leaf of the
        // rows tree: every record decodes with the wire decoder, none
        // holds more rows than a leaf (`pmap::MAX`) whatever the shares,
        // and recovery reads back every row.
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("ckpt-layout");
        let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        e.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["a".into(), "b".into(), "c".into(), "d".into()],
            indexed: vec![true, false, false, false],
        });
        let data: Vec<Row> = (0..2500u64)
            .map(|i| Row {
                id: u64::MAX - 2 * i,
                shares: vec![i128::MIN + i as i128, -1, 0, i128::MAX - i as i128],
            })
            .collect();
        let insert = Request::Insert {
            table: "t".into(),
            rows: data.clone(),
        };
        assert_eq!(e.execute(&insert), Response::Ack);
        e.checkpoint().unwrap();
        let all = Request::Query {
            table: "t".into(),
            predicate: vec![],
            agg: None,
        };
        let live = e.execute(&all);
        {
            let (meta, mut image) = CheckpointReader::open(&dir).unwrap();
            assert_eq!(meta.tables.len(), 1);
            assert_eq!(meta.tables[0].rows, 2500);
            let mut stored: Vec<usize> = Vec::new();
            while stored.iter().sum::<usize>() < 2500 {
                let bytes = image.record().unwrap();
                stored.push(RowBlock::decode(bytes).expect("a wire row block").len());
            }
            assert!(
                stored.iter().all(|&n| (1..=LEAF_MAX).contains(&n)),
                "{stored:?}"
            );
            assert_eq!(stored.iter().sum::<usize>(), 2500);
            assert_eq!(stored.len() as u64, leaves_encoded(&e));
            image.finish().unwrap();
        }
        drop(e);
        let (recovered, report) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        assert_eq!((report.checkpoint_rows, report.wal_records), (2500, 0));
        assert_eq!(recovered.execute(&all), live);
        let Response::Rows(got) = live else {
            panic!("{live:?}")
        };
        let mut want = data;
        want.reverse();
        assert_eq!(got.to_rows(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    use crate::pmap::MAX as LEAF_MAX;

    /// Rows-tree leaves `e`'s checkpoints have encoded so far.
    fn leaves_encoded(e: &ProviderEngine) -> u64 {
        e.write
            .lock()
            .store
            .as_ref()
            .map_or(0, |store| store.leaves_encoded)
    }

    fn whole_table(e: &ProviderEngine, table: &str) -> Response {
        e.execute(&Request::Query {
            table: table.into(),
            predicate: vec![],
            agg: None,
        })
    }

    #[test]
    fn a_warm_checkpoint_encodes_only_the_leaves_written() {
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("ckpt-warm");
        let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        e.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["a".into(), "b".into()],
            indexed: vec![true, false],
        });
        // Even ids in a scattered order, so leaves are split mid-way.
        let n = 5000u64;
        let row = |id: u64, v: i128| Row {
            id,
            shares: vec![v, -v],
        };
        let data: Vec<Row> = (0..n)
            .map(|i| (i * 7919) % n * 2)
            .map(|id| row(id, id as i128))
            .collect();
        assert_eq!(
            e.execute(&Request::Insert {
                table: "t".into(),
                rows: data,
            }),
            Response::Ack
        );
        e.checkpoint().unwrap();
        let cold = leaves_encoded(&e);
        assert!(cold >= n / LEAF_MAX as u64, "{cold} leaves for {n} rows");
        // Nothing written: nothing encoded.
        e.checkpoint().unwrap();
        assert_eq!(leaves_encoded(&e), cold);

        // Ten rows of each write, scattered over the table, each its own
        // request.
        let mut written = 0u64;
        for i in 0..10u64 {
            let at = (i * 2671) % n * 2;
            let requests = [
                Request::Insert {
                    table: "t".into(),
                    rows: vec![row(at + 1, -7)],
                },
                Request::Update {
                    table: "t".into(),
                    rows: vec![row((at + 1000) % (2 * n), 9)],
                },
                Request::Delete {
                    table: "t".into(),
                    ids: vec![(at + 2000) % (2 * n)],
                },
                Request::Increment {
                    table: "t".into(),
                    col: 1,
                    deltas: vec![((at + 3000) % (2 * n), 5)],
                },
            ];
            for request in &requests {
                assert_eq!(e.execute(request), Response::Ack, "{request:?}");
                written += 1;
            }
        }
        e.checkpoint().unwrap();
        let warm = leaves_encoded(&e) - cold;
        assert!(
            (1..=2 * written).contains(&warm),
            "{warm} leaves encoded for {written} rows written"
        );

        let live = whole_table(&e, "t");
        drop(e);
        let (recovered, report) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        assert_eq!(report.wal_records, 0);
        assert_eq!(report.checkpoint_rows, n);
        assert_eq!(whole_table(&recovered, "t"), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_image_of_1024_row_records_still_recovers() {
        // Images written before records were leaves hold 1 024 rows per
        // record; the same header and rows in that layout recover the same
        // table.
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("ckpt-1024");
        let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        e.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["a".into(), "b".into(), "c".into()],
            indexed: vec![true, false, true],
        });
        let data: Vec<Row> = (0..2500u64)
            .map(|i| Row {
                id: i * 3,
                shares: vec![i as i128 - 1250, i128::MAX - i as i128, (i % 7) as i128],
            })
            .collect();
        let insert = Request::Insert {
            table: "t".into(),
            rows: data,
        };
        assert_eq!(e.execute(&insert), Response::Ack);
        e.checkpoint().unwrap();
        let live = whole_table(&e, "t");
        drop(e);

        let (meta, mut image) = CheckpointReader::open(&dir).unwrap();
        let mut rows = Vec::new();
        while (rows.len() as u64) < meta.tables[0].rows {
            rows.extend(RowBlock::decode(image.record().unwrap()).unwrap().to_rows());
        }
        image.finish().unwrap();
        let mut file = CheckpointWriter::create(&dir, &meta).unwrap();
        for chunk in rows.chunks(1024) {
            let block: RowBlock = chunk.iter().collect();
            file.record(&CheckpointWriter::frame(&block.encode()).unwrap())
                .unwrap();
        }
        file.commit().unwrap();

        let (recovered, report) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        assert_eq!((report.checkpoint_rows, report.wal_records), (2500, 0));
        assert_eq!(whole_table(&recovered, "t"), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Everything recovery must reproduce, read off the published
    /// snapshot: per table (by name) its `indexed` flags, rows, the keys
    /// of each index (`None` where the column has none), and every
    /// commitment root. Panics if an index's presence disagrees with its
    /// flag.
    type EngineImage = (
        Vec<(
            String,
            Vec<bool>,
            Vec<(u64, Vec<i128>)>,
            Vec<Option<Vec<IndexKey>>>,
        )>,
        Vec<((String, usize), [u8; 32])>,
    );

    fn engine_image(e: &ProviderEngine) -> EngineImage {
        let snap = e.published.read().clone();
        let mut tables: Vec<_> = snap
            .tables
            .iter()
            .map(|(name, t)| {
                for (index, &indexed) in t.indexes.iter().zip(t.indexed.iter()) {
                    assert_eq!(index.is_some(), indexed, "table {name:?}: index presence");
                }
                (
                    name.clone(),
                    t.indexed.to_vec(),
                    t.rows.iter().map(|(&id, s)| (id, s.clone())).collect(),
                    t.indexes
                        .iter()
                        .map(|i| i.as_ref().map(|i| i.keys().copied().collect()))
                        .collect(),
                )
            })
            .collect();
        tables.sort();
        let mut roots: Vec<_> = snap
            .commitments
            .iter()
            .map(|(key, at)| (key.clone(), at.root()))
            .collect();
        roots.sort();
        (tables, roots)
    }

    /// Table `a` is `(x, y, z)` with `x` and `z` indexed; table `b` is
    /// `(p, q)` with `q` indexed. `y` and `p` take increments.
    fn create_for(table: &str) -> Request {
        let (columns, indexed) = if table == "a" {
            (vec!["x", "y", "z"], vec![true, false, true])
        } else {
            (vec!["p", "q"], vec![false, true])
        };
        Request::CreateTable {
            name: table.into(),
            columns: columns.into_iter().map(String::from).collect(),
            indexed,
        }
    }

    /// Run a random program of writes, checkpoints and reopens against
    /// one durable engine. At every reopen, and at the end, the
    /// recovered engine must equal the one that was dropped.
    fn recovery_against_live(program: &[(u8, bool, u64)]) {
        use rand::{Rng, SeedableRng};
        let dir = test_dir("recover-live");
        let (mut e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        let reopen = |e: ProviderEngine| {
            let live = engine_image(&e);
            drop(e);
            let (recovered, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
            assert_eq!(engine_image(&recovered), live, "recovered != live");
            recovered
        };
        for &(kind, table_b, seed) in program {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let table = if table_b { "b" } else { "a" };
            let arity = if table_b { 2 } else { 3 };
            let unindexed = usize::from(!table_b);
            // A run of ids from a small space, so runs overlap (rejected
            // inserts, updates of live rows), and few share values, so a
            // share repeats in an index under different ids.
            let start = rng.gen_range(0..400u64);
            let run = start..start + rng.gen_range(1..60u64);
            let rows: Vec<Row> = run
                .clone()
                .map(|id| Row {
                    id,
                    shares: (0..arity)
                        .map(|_| rng.gen_range(-3i64..12).into())
                        .collect(),
                })
                .collect();
            let request = match kind {
                0..=4 => Request::Insert {
                    table: table.into(),
                    rows,
                },
                5 => Request::Update {
                    table: table.into(),
                    rows: rows.into_iter().step_by(3).collect(),
                },
                6 => Request::Delete {
                    table: table.into(),
                    ids: run.step_by(2).collect(),
                },
                7 => Request::Increment {
                    table: table.into(),
                    col: unindexed,
                    deltas: run
                        .step_by(4)
                        .map(|id| (id, rng.gen_range(-5i64..5).into()))
                        .collect(),
                },
                8 => Request::Commit {
                    table: table.into(),
                    col: rng.gen_range(0..arity),
                },
                9 => create_for(table),
                10 => {
                    assert_eq!(e.execute(&Request::DropAllTables), Response::Ack);
                    create_for(table)
                }
                11 => {
                    e.checkpoint().unwrap();
                    continue;
                }
                _ => {
                    e = reopen(e);
                    continue;
                }
            };
            // Rejected requests (a duplicate id, a missing table or row)
            // are part of the program: they must not reach the log.
            e.execute(&request);
        }
        drop(reopen(e));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_builds_only_the_commitments_no_later_write_dropped() {
        let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let dir = test_dir("owed-commitments");
        let (e, _) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        let ok = |request: Request| {
            let resp = e.execute(&request);
            assert!(matches!(resp, Response::Committed { .. }), "{resp:?}");
        };
        for table in ["a", "b"] {
            assert_eq!(e.execute(&create_for(table)), Response::Ack);
        }
        e.execute(&Request::Insert {
            table: "a".into(),
            rows: rows(&[(1, &[1, 2, 3]), (2, &[4, 5, 6])]),
        });
        e.execute(&Request::Insert {
            table: "b".into(),
            rows: rows(&[(1, &[7, 8]), (2, &[9, 10])]),
        });
        let commit = |table: &str, col| Request::Commit {
            table: table.into(),
            col,
        };
        ok(commit("a", 0));
        ok(commit("b", 0));
        e.checkpoint().unwrap();
        // The log drops the image's commitment to `b`, commits `b` again
        // and drops that too, and adds one to `a`.
        e.execute(&Request::Delete {
            table: "b".into(),
            ids: vec![2],
        });
        ok(commit("b", 1));
        e.execute(&Request::Update {
            table: "b".into(),
            rows: rows(&[(1, &[11, 12])]),
        });
        ok(commit("a", 2));
        let live = engine_image(&e);
        let committed: Vec<_> = live.1.iter().map(|(key, _)| key.clone()).collect();
        assert_eq!(committed, vec![("a".to_string(), 0), ("a".to_string(), 2)]);
        drop(e);
        let (recovered, report) = ProviderEngine::durable(&dir, tight_cfg()).unwrap();
        assert_eq!(report.wal_records, 4);
        assert_eq!(engine_image(&recovered), live);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn a_recovered_engine_equals_the_live_one_indexes_included(
            program in proptest::collection::vec(
                (0u8..13, proptest::prelude::any::<bool>(), proptest::prelude::any::<u64>()),
                0..80,
            ),
        ) {
            let _gate = HOOK_GATE.lock().unwrap_or_else(|e| e.into_inner());
            recovery_against_live(&program);
        }
    }
}
