//! The data source D: outsourcing, query rewriting and reconstruction.
//!
//! Execution of a query (§V-A):
//! 1. split the client predicate into *server-evaluable* conjuncts
//!    (supported by the column's share mode) and a *residual*;
//! 2. rewrite the server-evaluable part into one share-space request per
//!    provider;
//! 3. fan out, collect ≥ k responses, zip rows by client-assigned row id;
//! 4. reconstruct values (interpolate-and-confirm decode for
//!    order-preserving columns, Lagrange for field-mode columns);
//! 5. apply the residual filter, check and strip ringers, overlay any
//!    pending lazy updates.

use crate::journal::LazyJournal;
use crate::keys::ClientKeys;
use crate::schema::{Predicate, TableSchema, Value, ValueCodec};
use crate::{ClientError, Result};
use dasp_crypto::merkle::MerkleProof;
use dasp_field::{lagrange_eval_at, Fp};
use dasp_net::QuorumMode::{All, FirstK};
use dasp_net::{
    Cluster, HealthSnapshot, ProviderId, QuorumError, QuorumMode, QuorumOptions, Refusal,
    RetryPolicy,
};
use dasp_server::proto::{AggOp, PredAtom, Request, Response, Row, RowBlock};
use dasp_server::proto::{WireMerkleProof, WireRangeProof};
use dasp_sss::{CoeffPrfs, FieldBasis, FieldShare, FieldSharing, OpBasis, OpSharing, ShareMode};
use dasp_verify::merkle_table::{CommittedRow, RangeProof};
use dasp_verify::{majority_reconstruct_field, majority_reconstruct_op, RingerSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-query options.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Query all n providers and majority-verify every reconstructed
    /// value (detects and identifies Byzantine providers). Default:
    /// query providers until k respond, trust them.
    pub verify: bool,
}

/// Result of an aggregate query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggResult {
    /// The aggregated value (None for COUNT-only or empty input).
    pub value: Option<Value>,
    /// Number of matching rows.
    pub count: u64,
}

/// A reconstructed row: client row id plus decoded values.
pub type DecodedRow = (u64, Vec<Value>);

/// One reconstructed GROUP BY result row.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    /// Smallest row id in the group (stable ordering key).
    pub rep_row: u64,
    /// The decoded group value.
    pub group: Value,
    /// SUM of the aggregated column (None for COUNT-only queries).
    pub sum: Option<Value>,
    /// Rows in the group.
    pub count: u64,
}

/// One conjunct's placement in an [`ExplainReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainConjunct {
    /// Human-readable form of the client-side conjunct.
    pub predicate: String,
    /// True if providers evaluate it; false if it is residual
    /// (client-side after full transfer).
    pub server_side: bool,
    /// The share-space atom provider 0 would receive (what it *sees*).
    pub rewritten: Option<String>,
    /// What evaluating this conjunct reveals to a provider.
    pub leaks: &'static str,
}

/// The rewriting plan for a SELECT, without executing it — `EXPLAIN`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainReport {
    /// Target table.
    pub table: String,
    /// Per-conjunct placement.
    pub conjuncts: Vec<ExplainConjunct>,
    /// Overall execution strategy.
    pub strategy: String,
}

impl std::fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "EXPLAIN SELECT ... FROM {}", self.table)?;
        for c in &self.conjuncts {
            writeln!(
                f,
                "  {} -> {}{}",
                c.predicate,
                if c.server_side {
                    "server-side"
                } else {
                    "RESIDUAL (client-side)"
                },
                match &c.rewritten {
                    Some(r) => format!("; provider 0 sees {r}; leaks {}", c.leaks),
                    None => format!("; leaks {}", c.leaks),
                }
            )?;
        }
        write!(f, "  strategy: {}", self.strategy)
    }
}

/// A table's column plan: its schema and, for every column, how a value
/// becomes a code and how a code becomes shares. It is a function of the
/// schema and the keys alone, so it is resolved once when the table is
/// registered, and every statement shares it: encode, the batched decode
/// and the per-share decode all read it, and none rebuilds a text codec,
/// re-derives a domain key or its coefficient PRFs, or clones an OPSS
/// sharer.
struct ColumnPlan {
    schema: TableSchema,
    /// Parallel to `schema.columns`.
    columns: Vec<PlannedColumn>,
}

struct PlannedColumn {
    value: ValueCodec,
    share: ShareCodec,
}

enum ShareCodec {
    Random,
    /// The domain's coefficient PRFs, derived once: every insert, rewrite
    /// and rebuild evaluates with them and runs no HMAC.
    Deterministic(CoeffPrfs),
    OrderPreserving(OpSharing),
}

impl ColumnPlan {
    fn new(keys: &ClientKeys, schema: TableSchema) -> Result<Self> {
        let columns = schema
            .columns
            .iter()
            .map(|col| {
                let value = ValueCodec::new(&col.ctype)?;
                let share = match col.mode {
                    ShareMode::Random => ShareCodec::Random,
                    ShareMode::Deterministic => {
                        ShareCodec::Deterministic(keys.coeff_prfs(&col.domain))
                    }
                    ShareMode::OrderPreserving => ShareCodec::OrderPreserving(
                        keys.op_sharing(&col.domain, value.domain_size())?,
                    ),
                };
                Ok(PlannedColumn { value, share })
            })
            .collect::<Result<_>>()?;
        Ok(ColumnPlan { schema, columns })
    }

    fn column(&self, idx: usize) -> Result<&PlannedColumn> {
        self.columns
            .get(idx)
            .ok_or_else(|| ClientError::Schema(format!("no column {idx}")))
    }
}

/// Encode one chunk of rows column-major: per column, encode the codes
/// for the whole chunk and drive the sss batch APIs, so per-column setup
/// (PRF derivation, coefficient evaluation) amortizes across rows.
/// `seeds[r]` seeds row r's RNG stream for random-mode columns. Output
/// shape is `[row][provider][column]`; every sharing lists providers in
/// index order.
fn encode_chunk(
    field: &FieldSharing,
    plan: &ColumnPlan,
    rows: &[Vec<Value>],
    seeds: &[u64],
) -> Result<Vec<Vec<Vec<i128>>>> {
    let n = field.n();
    let ncols = plan.columns.len();
    let mut out: Vec<Vec<Vec<i128>>> = rows
        .iter()
        .map(|_| (0..n).map(|_| Vec::with_capacity(ncols)).collect())
        .collect();
    let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
    let mut codes = Vec::with_capacity(rows.len());
    for (c, col) in plan.columns.iter().enumerate() {
        codes.clear();
        for row in rows {
            codes.push(col.value.encode(row.get(c).ok_or_else(arity_mismatch)?)?);
        }
        match &col.share {
            ShareCodec::Random => {
                for ((row, &code), rng) in out.iter_mut().zip(&codes).zip(&mut rngs) {
                    let split = field.split_random(Fp::from_u64(code), rng);
                    push_shares(row, split.iter().map(|s| s.y.to_u64() as i128));
                }
            }
            ShareCodec::Deterministic(prfs) => {
                let split = field.split_deterministic_batch_with(&codes, prfs);
                for (row, shares) in out.iter_mut().zip(split) {
                    push_shares(row, shares.iter().map(|s| s.y.to_u64() as i128));
                }
            }
            ShareCodec::OrderPreserving(sharing) => {
                for (row, shares) in out.iter_mut().zip(sharing.share_batch(&codes)?) {
                    push_shares(row, shares);
                }
            }
        }
    }
    Ok(out)
}

/// Append one row's shares, listed in provider order, to its
/// per-provider share tuples.
fn push_shares(row: &mut [Vec<i128>], shares: impl IntoIterator<Item = i128>) {
    for (at_provider, y) in row.iter_mut().zip(shares) {
        at_provider.push(y);
    }
}

/// Quorum answers zipped by row id: the rows that at least k providers
/// returned, in id order, each with where it sits in every answer.
struct Zipped {
    /// Who sent each answer, in response order.
    providers: Vec<ProviderId>,
    /// Each answer's columns.
    cols: Vec<Vec<Vec<i128>>>,
    /// The zipped rows' ids, ascending.
    ids: Vec<u64>,
    /// `ids.len()` × `providers.len()`: the row's index in that answer's
    /// columns, or [`ABSENT`].
    at: Vec<usize>,
}

/// The provider did not return the row.
const ABSENT: usize = usize::MAX;

impl Zipped {
    /// Zip the answers by merging their id lists, one copy of a row per
    /// provider (a join result can list a row several times). Providers
    /// answer in id order, so a list is sorted only if it does not ascend.
    fn new(responses: Vec<(ProviderId, RowBlock)>, k: usize) -> Self {
        let mut providers = Vec::with_capacity(responses.len());
        let mut cols = Vec::with_capacity(responses.len());
        // Per answer, its (id, row index) pairs in ascending id order.
        let mut lists: Vec<std::vec::IntoIter<(u64, usize)>> = Vec::with_capacity(responses.len());
        for (p, block) in responses {
            let (ids, columns) = block.into_parts();
            let ascends = ids.is_sorted_by(|a, b| a < b);
            let mut list: Vec<(u64, usize)> = ids.into_iter().zip(0..).collect();
            if !ascends {
                list.sort_by_key(|&(id, _)| id);
                list.dedup_by_key(|&mut (id, _)| id);
            }
            providers.push(p);
            cols.push(columns);
            lists.push(list.into_iter());
        }
        let mut heads: Vec<Option<(u64, usize)>> = lists.iter_mut().map(Iterator::next).collect();
        let mut zipped = Zipped {
            providers,
            cols,
            ids: Vec::new(),
            at: Vec::new(),
        };
        while let Some(id) = heads.iter().flatten().map(|&(id, _)| id).min() {
            let row_start = zipped.at.len();
            for (head, list) in heads.iter_mut().zip(&mut lists) {
                match *head {
                    Some((head_id, row)) if head_id == id => {
                        zipped.at.push(row);
                        *head = list.next();
                    }
                    _ => zipped.at.push(ABSENT),
                }
            }
            // Rows not confirmed by k providers cannot be reconstructed;
            // under verification this is suspicious but non-fatal (the row
            // may genuinely not match at a lagging provider after an
            // update race).
            let confirmed = zipped
                .at
                .iter()
                .skip(row_start)
                .filter(|&&row| row != ABSENT);
            if confirmed.count() >= k {
                zipped.ids.push(id);
            } else {
                zipped.at.truncate(row_start);
            }
        }
        zipped
    }

    /// Where zipped row `r` sits in each answer.
    fn places(&self, r: usize) -> &[usize] {
        let width = self.providers.len();
        self.at.get(r * width..(r + 1) * width).unwrap_or_default()
    }

    /// The share answer `slot` holds for column `col` of zipped row `r`.
    fn share(&self, r: usize, slot: usize, col: usize) -> Option<i128> {
        let row = *self.places(r).get(slot)?;
        self.cols.get(slot)?.get(col)?.get(row).copied()
    }

    /// The zipped rows grouped by the answers (slots, ascending) that
    /// hold them: reconstruction weights depend only on who answered.
    fn groups(&self) -> HashMap<Vec<usize>, Vec<usize>> {
        let mut groups: HashMap<Vec<usize>, Vec<usize>> = HashMap::new();
        let mut slots = Vec::with_capacity(self.providers.len());
        for r in 0..self.ids.len() {
            slots.clear();
            let places = self.places(r).iter().enumerate();
            slots.extend(places.filter_map(|(slot, &row)| (row != ABSENT).then_some(slot)));
            match groups.get_mut(slots.as_slice()) {
                Some(rows_idx) => rows_idx.push(r),
                None => {
                    groups.insert(slots.clone(), vec![r]);
                }
            }
        }
        groups
    }
}

/// A stored field-mode share as a field element. Shares are canonical
/// (< p) when written, but provider-side additive increments (§V-C)
/// accumulate without reduction, so a share outside `[0, p)` is reduced
/// mod p. Corrupt values (including negatives) reduce to *wrong* field
/// elements, which the basis cross-check or the majority vote rejects.
fn field_share(y: i128) -> Fp {
    const P: i128 = dasp_field::MODULUS as i128;
    let canonical = if (0..P).contains(&y) {
        y
    } else {
        y.rem_euclid(P)
    };
    Fp::from_u64(canonical as u64)
}

/// Decode the field-mode columns of one chunk of rows, all answered by
/// the answers `slots`, against the basis precomputed for those.
fn decode_field_chunk(
    zipped: &Zipped,
    slots: &[usize],
    rows_idx: &[usize],
    field_cols: &[usize],
    basis: &FieldBasis,
) -> Result<Vec<Vec<u64>>> {
    let mut ys = Vec::with_capacity(slots.len());
    rows_idx
        .iter()
        .map(|&r| {
            field_cols
                .iter()
                .map(|&c| {
                    ys.clear();
                    for &slot in slots {
                        let share = zipped.share(r, slot, c).ok_or_else(arity_mismatch)?;
                        ys.push(field_share(share));
                    }
                    Ok(basis.reconstruct_row(&ys)?.to_u64())
                })
                .collect()
        })
        .collect()
}

fn not_on_polynomial() -> ClientError {
    ClientError::Reconstruction("share is not on the expected polynomial".into())
}

fn arity_mismatch() -> ClientError {
    ClientError::Reconstruction("row arity mismatch".into())
}

/// Providers a [`QuorumMode::FirstK`] round asks up front beyond its
/// response target, racing a straggler.
const HEDGE: usize = 1;

/// A verdict on one answer: `Err` says what is wrong with it.
type Verdict = std::result::Result<(), String>;

/// A check of one decoded answer, given its round and provider.
type Accept<'a> = &'a dyn Fn(usize, ProviderId, &Response) -> Verdict;

/// The check of an answer that needs none beyond decoding.
fn anything(_: usize, _: ProviderId, _: &Response) -> Verdict {
    Ok(())
}

/// The check of an answer that must be rows.
pub(crate) fn rows_only(_: usize, _: ProviderId, resp: &Response) -> Verdict {
    match resp {
        Response::Rows(_) => Ok(()),
        other => Err(format!("unexpected {other:?}")),
    }
}

/// The check of a write's answer.
fn acked(_: usize, _: ProviderId, resp: &Response) -> Verdict {
    match resp {
        Response::Ack => Ok(()),
        other => Err(format!("unexpected {other:?}")),
    }
}

/// A round that fell short of k accepted answers, told as too few `what`.
fn short_of(k: usize, what: &'static str) -> impl Fn(ClientError) -> ClientError {
    move |e| match e {
        ClientError::Quorum(q) => {
            ClientError::Reconstruction(format!("only {} {what}, need {k}", q.got))
        }
        other => other,
    }
}

/// What one [`ask`] returned.
pub(crate) struct Answers {
    /// The quorum engine's verdict on each round.
    #[allow(clippy::type_complexity)]
    results: Vec<std::result::Result<Vec<(ProviderId, Vec<u8>)>, QuorumError>>,
    /// Each accepted answer but an `Ack`, decoded, by (round, provider).
    /// The engine settles a request on the first answer it accepts and
    /// checks nothing after that, so this is the answer it returns.
    accepted: HashMap<(usize, ProviderId), Response>,
    /// Every provider with a rejected answer (undecodable, an error, or
    /// refused by the check), each named once.
    rejected: Vec<ProviderId>,
}

impl Answers {
    /// Each round's accepted `(provider, answer)` pairs in request order,
    /// or its post-mortem.
    fn rounds(self) -> Vec<Result<Vec<(ProviderId, Response)>>> {
        let mut accepted = self.accepted;
        let mut answer = |round, p| accepted.remove(&(round, p)).unwrap_or(Response::Ack);
        let mut rounds = Vec::with_capacity(self.results.len());
        for (round, winners) in self.results.into_iter().enumerate() {
            rounds.push(match winners {
                Ok(winners) => Ok(winners
                    .into_iter()
                    .map(|(p, _)| (p, answer(round, p)))
                    .collect()),
                Err(e) => Err(e.into()),
            });
        }
        rounds
    }

    /// The answers of a one-round call.
    pub(crate) fn one(self) -> Result<Vec<(ProviderId, Response)>> {
        self.rounds().pop().unwrap_or_else(|| {
            Err(ClientError::Provider(
                "the quorum engine returned no round".into(),
            ))
        })
    }
}

/// The one way the client asks providers: `rounds` of per-provider
/// requests in one quorum-engine run, each round judged on its own.
/// Every answer is decoded once and must pass `accept`; a provider error,
/// an undecodable answer or a refused one counts as a failed attempt,
/// which charges the provider's breaker and makes a
/// [`QuorumMode::FirstK`] round ask its next provider. An undecodable or
/// refused answer is retried per `retry`; a provider error is final, as
/// asking again would only repeat it.
/// [`QuorumMode::FirstK`] rounds return once `need + extra` answers are
/// in (`need` suffices), skip providers with open breakers and hedge by
/// [`HEDGE`]; [`QuorumMode::All`] rounds wait for every provider.
pub(crate) fn ask(
    cluster: &Cluster,
    rounds: Vec<Vec<(ProviderId, Vec<u8>)>>,
    need: usize,
    extra: usize,
    mode: QuorumMode,
    retry: RetryPolicy,
    accept: Accept<'_>,
) -> Answers {
    let accepted = RefCell::new(HashMap::new());
    let rejected = RefCell::new(Vec::new());
    let validate = |round: usize, p: ProviderId, bytes: &[u8]| {
        let verdict = match Response::decode(bytes) {
            Ok(Response::Error(msg)) => Err(Refusal::Final(format!("provider {p}: {msg}"))),
            Ok(resp) => accept(round, p, &resp)
                .map(|()| resp)
                .map_err(|reason| Refusal::Retry(format!("provider {p}: {reason}"))),
            Err(e) => Err(Refusal::Retry(format!(
                "provider {p}: undecodable response: {e}"
            ))),
        };
        match verdict {
            Ok(Response::Ack) => Ok(()),
            Ok(resp) => {
                accepted.borrow_mut().insert((round, p), resp);
                Ok(())
            }
            Err(refusal) => {
                let mut rejected = rejected.borrow_mut();
                if !rejected.contains(&p) {
                    rejected.push(p);
                }
                Err(refusal)
            }
        }
    };
    let opts = QuorumOptions {
        retry,
        hedge: HEDGE,
        extra,
        mode,
        validate: Some(&validate),
    };
    let results = cluster.call_quorum_rounds(rounds, need, &opts);
    Answers {
        results,
        accepted: accepted.into_inner(),
        rejected: rejected.into_inner(),
    }
}

/// The write path: every listed provider must acknowledge. All of them
/// are asked ([`QuorumMode::All`]: a write silently skipping a provider
/// would fork the share state), and nothing is retried (a provider that
/// applied the write but dropped the ack would apply it twice).
pub(crate) fn write(cluster: &Cluster, reqs: Vec<(ProviderId, Vec<u8>)>) -> Result<()> {
    let need = reqs.len();
    let none = RetryPolicy::none();
    let answers = ask(cluster, vec![reqs], need, 0, All, none, &acked);
    for round in answers.results {
        round?;
    }
    Ok(())
}

/// One request per provider `0..n`, as `make` builds it.
fn to_each(
    n: usize,
    mut make: impl FnMut(ProviderId) -> Result<Vec<u8>>,
) -> Result<Vec<(ProviderId, Vec<u8>)>> {
    (0..n).map(|p| Ok((p, make(p)?))).collect()
}

/// The row blocks of answers that must all be rows.
pub(crate) fn row_blocks(
    answers: Vec<(ProviderId, Response)>,
) -> Result<Vec<(ProviderId, RowBlock)>> {
    answers
        .into_iter()
        .map(|(p, resp)| match resp {
            Response::Rows(rows) => Ok((p, rows)),
            other => Err(ClientError::Provider(format!("unexpected {other:?}"))),
        })
        .collect()
}

struct TableState {
    plan: Arc<ColumnPlan>,
    next_id: u64,
    /// Ringers per column name.
    ringers: HashMap<String, RingerSet>,
    /// Lazy-update overlay: row id → replacement values.
    pending: HashMap<u64, Vec<Value>>,
    /// Merkle roots per (column name → provider → (root, total rows)),
    /// established by [`DataSource::commit_table`].
    commitments: HashMap<String, HashMap<ProviderId, ([u8; 32], usize)>>,
}

/// The data source D.
pub struct DataSource {
    keys: ClientKeys,
    cluster: Cluster,
    tables: HashMap<String, TableState>,
    rng: StdRng,
    lazy: bool,
    /// Retry schedule for idempotent reads (writes are never retried —
    /// an omission-faulty provider applies the write before dropping the
    /// ack, so a retry could double-apply it).
    retry: RetryPolicy,
    /// Reconstruction bases keyed by provider subset (in response order).
    /// Reads from a healthy cluster hit the same subset over and over, so
    /// the O(k²) Lagrange solve happens once per subset, not per value.
    basis_cache: HashMap<Vec<usize>, FieldBasis>,
    /// Order-preserving interpolation weights, keyed and reused the same
    /// way. They depend only on the points X, so every OP column shares
    /// them.
    op_basis_cache: HashMap<Vec<usize>, OpBasis>,
    /// Durable journal of the lazy-update queue (None = memory only).
    journal: Option<LazyJournal>,
    /// Journal entries recovered for tables this client hasn't
    /// (re)registered yet; merged into `pending` at `create_table`.
    orphan_pending: HashMap<String, HashMap<u64, Vec<Value>>>,
    /// Faulty providers identified by the last verified query.
    pub last_faulty: Vec<ProviderId>,
}

impl DataSource {
    /// Bind keys to a running cluster. The cluster must have exactly
    /// `keys.n()` providers.
    pub fn new(keys: ClientKeys, cluster: Cluster) -> Result<Self> {
        if cluster.n() != keys.n() {
            return Err(ClientError::Schema(format!(
                "cluster has {} providers, keys expect {}",
                cluster.n(),
                keys.n()
            )));
        }
        Ok(DataSource {
            keys,
            cluster,
            tables: HashMap::new(),
            rng: StdRng::from_entropy(),
            lazy: false,
            retry: RetryPolicy::default(),
            basis_cache: HashMap::new(),
            op_basis_cache: HashMap::new(),
            journal: None,
            orphan_pending: HashMap::new(),
            last_faulty: Vec::new(),
        })
    }

    /// Bind keys to remote TCP providers: dial one socket per address
    /// and run the whole client stack — rewriting, reconstruction,
    /// quorum, hedging, verification — over the wire. The transport is
    /// invisible above [`Cluster`]; everything else is [`Self::new`].
    /// `workers` is unused: [`Cluster::connect_tcp`] runs no client
    /// threads to size.
    pub fn connect_tcp(
        keys: ClientKeys,
        addrs: &[std::net::SocketAddr],
        timeout: std::time::Duration,
        _workers: usize,
    ) -> Result<Self> {
        let cluster = Cluster::connect_tcp(addrs, timeout)
            .map_err(|e| ClientError::Schema(format!("tcp connect: {e}")))?;
        Self::new(keys, cluster)
    }

    /// Deterministic RNG variant for reproducible tests/benchmarks. The
    /// seed also fixes retry-backoff jitter, so fault-injection runs
    /// replay with identical timing decisions.
    pub fn with_seed(keys: ClientKeys, cluster: Cluster, seed: u64) -> Result<Self> {
        let mut ds = Self::new(keys, cluster)?;
        ds.rng = StdRng::seed_from_u64(seed);
        ds.retry.jitter_seed = seed;
        Ok(ds)
    }

    /// The underlying cluster (failure injection, traffic stats).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Replace the read-retry schedule.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Point-in-time provider health: breaker states, failure streaks,
    /// latency EWMAs.
    pub fn health(&self) -> HealthSnapshot {
        self.cluster.health().snapshot()
    }

    /// The key material (for direct share computations in tests).
    pub fn keys(&self) -> &ClientKeys {
        &self.keys
    }

    /// The column specs of a table (for projections and tooling).
    pub fn schema_columns(&self, table: &str) -> Result<&[crate::schema::ColumnSpec]> {
        Ok(&self.table(table)?.plan.schema.columns)
    }

    /// Switch updates to lazy buffering (§V-C). Buffered updates overlay
    /// query results until [`DataSource::flush`] pushes them out.
    pub fn set_lazy(&mut self, lazy: bool) {
        self.lazy = lazy;
    }

    /// Enable lazy buffering backed by a durable journal at `path`
    /// (§V-C): every queue mutation is write-ahead logged with
    /// per-record fsync, so queued re-shares survive a client restart.
    /// Recovers whatever an earlier session left in the journal —
    /// entries for already-registered tables overlay immediately; the
    /// rest attach when their table is next registered via
    /// [`DataSource::create_table`]. Returns how many queued updates
    /// were recovered.
    pub fn set_lazy_journal(&mut self, path: &std::path::Path) -> Result<usize> {
        let (journal, recovered) = LazyJournal::open(path)?;
        let mut count = 0usize;
        for (table, entries) in recovered {
            count += entries.len();
            if let Some(state) = self.tables.get_mut(&table) {
                state.pending.extend(entries);
            } else {
                self.orphan_pending
                    .entry(table)
                    .or_default()
                    .extend(entries);
            }
        }
        self.journal = Some(journal);
        self.lazy = true;
        Ok(count)
    }

    // ---- schema & share construction ----

    /// Create a table on every provider.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(ClientError::Schema(format!(
                "table {:?} already exists",
                schema.name
            )));
        }
        let indexed: Vec<bool> = schema
            .columns
            .iter()
            .map(|c| c.mode.supports_equality())
            .collect();
        let req = Request::CreateTable {
            name: schema.name.clone(),
            columns: schema.columns.iter().map(|c| c.name.clone()).collect(),
            indexed,
        };
        let name = schema.name.clone();
        let plan = Arc::new(ColumnPlan::new(&self.keys, schema)?);
        let req = req.encode();
        write(&self.cluster, to_each(self.keys.n(), |_| Ok(req.clone()))?)?;
        // Journal-recovered lazy updates queued for this table by an
        // earlier session re-attach here.
        let pending = self.orphan_pending.remove(&name).unwrap_or_default();
        self.tables.insert(
            name,
            TableState {
                plan,
                next_id: 1,
                ringers: HashMap::new(),
                pending,
                commitments: HashMap::new(),
            },
        );
        Ok(())
    }

    fn table(&self, name: &str) -> Result<&TableState> {
        self.tables
            .get(name)
            .ok_or_else(|| ClientError::Schema(format!("no table {name:?}")))
    }

    /// The table's column plan, shared with the statement that reads it.
    fn plan(&self, table: &str) -> Result<Arc<ColumnPlan>> {
        Ok(Arc::clone(&self.table(table)?.plan))
    }

    /// Encode a batch of rows into per-provider share tuples, shape
    /// `[row][provider][column]`. Each row's random-mode sharing draws
    /// from its own RNG stream, seeded up front from the session RNG.
    fn encode_rows(
        &mut self,
        table: &str,
        plan: &ColumnPlan,
        rows: &[Vec<Value>],
    ) -> Result<Vec<Vec<Vec<i128>>>> {
        let ncols = plan.columns.len();
        for values in rows {
            if values.len() != ncols {
                return Err(ClientError::Schema(format!(
                    "row has {} values, table {table:?} has {ncols} columns",
                    values.len()
                )));
            }
        }
        let seeds: Vec<u64> = rows.iter().map(|_| self.rng.gen()).collect();
        encode_chunk(self.keys.field(), plan, rows, &seeds)
    }

    /// Insert rows; returns the assigned row ids.
    pub fn insert(&mut self, table: &str, rows: &[Vec<Value>]) -> Result<Vec<u64>> {
        let base_id = {
            let state = self
                .tables
                .get_mut(table)
                .ok_or_else(|| ClientError::Schema(format!("no table {table:?}")))?;
            let base = state.next_id;
            state.next_id += rows.len() as u64;
            base
        };
        let ids: Vec<u64> = (0..rows.len() as u64).map(|i| base_id + i).collect();
        self.insert_with_ids(table, &ids, rows)?;
        Ok(ids)
    }

    fn insert_with_ids(&mut self, table: &str, ids: &[u64], rows: &[Vec<Value>]) -> Result<()> {
        let plan = self.plan(table)?;
        let encoded = self.encode_rows(table, &plan, rows)?;
        let n = self.keys.n();
        let mut per_provider: Vec<Vec<Row>> = vec![Vec::with_capacity(rows.len()); n];
        for (id, row_shares) in ids.iter().zip(encoded) {
            for (p, shares) in row_shares.into_iter().enumerate() {
                per_provider[p].push(Row { id: *id, shares });
            }
        }
        let reqs: Vec<(ProviderId, Vec<u8>)> = per_provider
            .into_iter()
            .enumerate()
            .map(|(p, rows)| {
                (
                    p,
                    Request::Insert {
                        table: table.to_string(),
                        rows,
                    }
                    .encode(),
                )
            })
            .collect();
        write(&self.cluster, reqs)
    }

    // ---- predicate rewriting ----

    /// Split a conjunction into (server-evaluable conjuncts, residual).
    fn split_predicate<'p>(
        &self,
        schema: &TableSchema,
        predicate: &'p [Predicate],
    ) -> Result<(Vec<&'p Predicate>, Vec<&'p Predicate>)> {
        let mut server = Vec::new();
        let mut residual = Vec::new();
        for pred in predicate {
            let col = &schema.columns[schema.col(pred.col())?];
            let evaluable = match pred {
                Predicate::Eq { .. } => col.mode.supports_equality(),
                Predicate::Between { .. } | Predicate::Prefix { .. } => col.mode.supports_range(),
            };
            if evaluable {
                server.push(pred);
            } else {
                residual.push(pred);
            }
        }
        Ok((server, residual))
    }

    /// Rewrite server-evaluable conjuncts into provider `p`'s share space.
    fn rewrite_for_provider(
        &self,
        plan: &ColumnPlan,
        server_preds: &[&Predicate],
        provider: ProviderId,
    ) -> Result<Vec<PredAtom>> {
        let schema = &plan.schema;
        let mut atoms = Vec::with_capacity(server_preds.len());
        for pred in server_preds {
            let col_idx = schema.col(pred.col())?;
            let (lo, hi) = pred.code_interval(&schema.columns[col_idx].ctype)?;
            match &plan.column(col_idx)?.share {
                ShareCodec::Deterministic(prfs) => {
                    debug_assert_eq!(lo, hi, "split_predicate admits only Eq here");
                    let share = self
                        .keys
                        .field()
                        .deterministic_share_with(lo, prfs, provider)?
                        .to_u64() as i128;
                    atoms.push(PredAtom::Eq {
                        col: col_idx,
                        share,
                    });
                }
                ShareCodec::OrderPreserving(sharing) => {
                    if lo == hi {
                        atoms.push(PredAtom::Eq {
                            col: col_idx,
                            share: sharing.share_for(lo, provider)?,
                        });
                    } else {
                        let (slo, shi) = sharing.range_for(lo, hi, provider)?;
                        atoms.push(PredAtom::Range {
                            col: col_idx,
                            lo: slo,
                            hi: shi,
                        });
                    }
                }
                ShareCodec::Random => {
                    return Err(ClientError::Unsupported(
                        "random-mode column cannot be filtered server-side".into(),
                    ))
                }
            }
        }
        Ok(atoms)
    }

    /// A one-round read: the first k answers to `reqs`.
    fn first_k(&self, reqs: Vec<(ProviderId, Vec<u8>)>) -> Result<Vec<(ProviderId, Response)>> {
        let (k, retry) = (self.keys.k(), self.retry.clone());
        ask(&self.cluster, vec![reqs], k, 0, FirstK, retry, &anything).one()
    }

    /// Name `providers` in [`DataSource::last_faulty`], each once.
    fn blame(&mut self, providers: impl IntoIterator<Item = ProviderId>) {
        for p in providers {
            if !self.last_faulty.contains(&p) {
                self.last_faulty.push(p);
            }
        }
    }

    // ---- reconstruction ----

    /// Decode one value from its shares, one `(provider, share)` per
    /// answer: the path for verified reads, group keys and rebuilds.
    fn decode_column(
        &mut self,
        col: &PlannedColumn,
        shares: &[(ProviderId, i128)],
        verify: bool,
    ) -> Result<u64> {
        let k = self.keys.k();
        match &col.share {
            ShareCodec::OrderPreserving(sharing) => {
                if verify {
                    let out = majority_reconstruct_op(sharing, shares)
                        .map_err(|e| ClientError::Reconstruction(format!("op majority: {e}")))?;
                    self.blame(out.faulty);
                    u64::try_from(out.value).map_err(|_| {
                        ClientError::Reconstruction("negative reconstructed value".into())
                    })
                } else {
                    // Fast path: binary-search decode from a single share.
                    let &(p, y) = shares
                        .first()
                        .ok_or_else(|| ClientError::Reconstruction("no shares".into()))?;
                    sharing
                        .reconstruct_search(p, y)?
                        .ok_or_else(not_on_polynomial)
                }
            }
            ShareCodec::Deterministic(_) | ShareCodec::Random => {
                // A corrupt share reduces to a wrong field element, loses
                // the majority vote under verification, and thereby both
                // recovers the value and names the sender.
                let field_shares: Vec<FieldShare> = shares
                    .iter()
                    .map(|&(p, y)| FieldShare {
                        provider: p,
                        y: field_share(y),
                    })
                    .collect();
                if verify {
                    let out = majority_reconstruct_field(self.keys.field(), &field_shares)
                        .map_err(|e| ClientError::Reconstruction(format!("field majority: {e}")))?;
                    self.blame(out.faulty);
                    Ok(out.value.to_u64())
                } else {
                    if field_shares.len() < k {
                        return Err(ClientError::Reconstruction(format!(
                            "need {k} shares, have {}",
                            field_shares.len()
                        )));
                    }
                    // Cross-check any shares beyond k instead of silently
                    // trusting the first k — with the quorum layer's one
                    // extra response this turns a Byzantine share into a
                    // loud InconsistentShares error (no-op at exactly k).
                    Ok(self
                        .keys
                        .field()
                        .reconstruct_checked(&field_shares)?
                        .to_u64())
                }
            }
        }
    }

    /// Zip per-provider row blocks by row id and reconstruct each row.
    fn reconstruct_rows(
        &mut self,
        plan: &ColumnPlan,
        responses: Vec<(ProviderId, RowBlock)>,
        verify: bool,
    ) -> Result<Vec<DecodedRow>> {
        let ncols = plan.columns.len();
        if responses
            .iter()
            .any(|(_, block)| !block.is_empty() && block.cols().len() < ncols)
        {
            return Err(arity_mismatch());
        }
        let zipped = Zipped::new(responses, self.keys.k());
        let codes = if verify {
            // Verified reads majority-vote per value and record faulty
            // providers — inherently per-share bookkeeping, kept scalar.
            let mut all = Vec::with_capacity(zipped.ids.len());
            for r in 0..zipped.ids.len() {
                let mut row_codes = Vec::with_capacity(ncols);
                for (c, col) in plan.columns.iter().enumerate() {
                    let shares: Vec<(ProviderId, i128)> = zipped
                        .providers
                        .iter()
                        .enumerate()
                        .filter_map(|(slot, &p)| Some((p, zipped.share(r, slot, c)?)))
                        .collect();
                    row_codes.push(self.decode_column(col, &shares, true)?);
                }
                all.push(row_codes);
            }
            all
        } else {
            self.decode_rows_batched(plan, &zipped)?
        };
        // Decode codes into typed values.
        zipped
            .ids
            .iter()
            .zip(codes)
            .map(|(id, row_codes)| {
                let values = row_codes
                    .into_iter()
                    .zip(&plan.columns)
                    .map(|(code, col)| col.value.decode(code))
                    .collect::<Result<Vec<Value>>>()?;
                Ok((*id, values))
            })
            .collect()
    }

    /// Decode all rows' column codes (no verification), batched: rows are
    /// grouped by the provider subset that answered them and each group
    /// pays one basis per subset (cached across queries). Order-preserving
    /// columns interpolate from the group's first k answers and confirm
    /// against the first ([`OpSharing::reconstruct_batch`]); field-mode
    /// columns take one dot product per value against the group's basis.
    fn decode_rows_batched(&mut self, plan: &ColumnPlan, zipped: &Zipped) -> Result<Vec<Vec<u64>>> {
        let k = self.keys.k();
        let field_cols: Vec<usize> = plan
            .columns
            .iter()
            .enumerate()
            .filter(|(_, col)| !matches!(col.share, ShareCodec::OrderPreserving(_)))
            .map(|(c, _)| c)
            .collect();
        let mut out = vec![vec![0u64; plan.columns.len()]; zipped.ids.len()];
        for (slots, rows_idx) in zipped.groups() {
            let providers: Vec<ProviderId> = slots
                .iter()
                .filter_map(|&slot| zipped.providers.get(slot).copied())
                .collect();
            for (c, col) in plan.columns.iter().enumerate() {
                let ShareCodec::OrderPreserving(sharing) = &col.share else {
                    continue;
                };
                let basis = self.cached_op_basis(&providers, sharing)?;
                let shares = slots
                    .iter()
                    .take(k)
                    .map(|&slot| {
                        let share =
                            |&r: &usize| zipped.share(r, slot, c).ok_or_else(arity_mismatch);
                        rows_idx.iter().map(share).collect()
                    })
                    .collect::<Result<Vec<Vec<i128>>>>()?;
                let decoded = sharing.reconstruct_batch(&basis, &shares)?;
                for (&r, code) in rows_idx.iter().zip(decoded) {
                    if let Some(cell) = out.get_mut(r).and_then(|row| row.get_mut(c)) {
                        *cell = code.ok_or_else(not_on_polynomial)?;
                    }
                }
            }
            if field_cols.is_empty() {
                continue;
            }
            let basis = self.cached_basis(&providers)?;
            let flat = decode_field_chunk(zipped, &slots, &rows_idx, &field_cols, &basis)?;
            for (&r, vals) in rows_idx.iter().zip(flat) {
                let Some(row) = out.get_mut(r) else { continue };
                for (&c, v) in field_cols.iter().zip(vals) {
                    if let Some(cell) = row.get_mut(c) {
                        *cell = v;
                    }
                }
            }
        }
        Ok(out)
    }

    /// The cached reconstruction basis for one provider subset.
    fn cached_basis(&mut self, providers: &[usize]) -> Result<FieldBasis> {
        if let Some(b) = self.basis_cache.get(providers) {
            return Ok(b.clone());
        }
        let b = self.keys.field().basis_for(providers)?;
        self.basis_cache.insert(providers.to_vec(), b.clone());
        Ok(b)
    }

    /// The cached order-preserving basis for one provider subset.
    fn cached_op_basis(&mut self, providers: &[usize], sharing: &OpSharing) -> Result<OpBasis> {
        if let Some(b) = self.op_basis_cache.get(providers) {
            return Ok(b.clone());
        }
        let b = sharing.basis_for(providers)?;
        self.op_basis_cache.insert(providers.to_vec(), b.clone());
        Ok(b)
    }

    // ---- queries ----

    /// Describe how a query would be rewritten and executed, without
    /// running it: which conjuncts the providers evaluate, the exact
    /// share-space atoms provider 0 would receive, and what each leaks.
    pub fn explain(&mut self, table: &str, predicate: &[Predicate]) -> Result<ExplainReport> {
        let plan = self.plan(table)?;
        let schema = &plan.schema;
        let (server_preds, residual) = self.split_predicate(schema, predicate)?;
        let mut conjuncts = Vec::with_capacity(predicate.len());
        for pred in &server_preds {
            let atoms = self.rewrite_for_provider(&plan, &[*pred], 0)?;
            let col = &schema.columns[schema.col(pred.col())?];
            let leaks = match col.mode {
                ShareMode::Deterministic => "equality pattern only",
                ShareMode::OrderPreserving => "equality + order",
                ShareMode::Random => unreachable!("random never server-side"),
            };
            let rewritten = atoms.first().map(|a| match a {
                PredAtom::Eq { col, share } => format!("col{col} = share({share})"),
                PredAtom::Range { col, lo, hi } => {
                    format!("col{col} BETWEEN share({lo}) AND share({hi})")
                }
            });
            conjuncts.push(ExplainConjunct {
                predicate: format!("{pred:?}"),
                server_side: true,
                rewritten,
                leaks,
            });
        }
        for pred in &residual {
            conjuncts.push(ExplainConjunct {
                predicate: format!("{pred:?}"),
                server_side: false,
                rewritten: None,
                leaks: "nothing (information-theoretic)",
            });
        }
        let k = self.keys.k();
        let n = self.keys.n();
        let strategy = if server_preds.is_empty() && !predicate.is_empty() {
            format!(
                "full-table transfer from {k} of {n} providers, filter at client                  (every predicate is on a Random-mode column)"
            )
        } else if conjuncts.iter().any(|c| !c.server_side) {
            format!(
                "provider-side filter on the rewritten atoms, {k}-of-{n} quorum,                  then residual client-side filtering"
            )
        } else if predicate.is_empty() {
            format!("full scan at each provider, {k}-of-{n} quorum")
        } else {
            format!("index probe/range on share space at each provider, {k}-of-{n} quorum")
        };
        Ok(ExplainReport {
            table: table.to_string(),
            conjuncts,
            strategy,
        })
    }

    /// `SELECT * FROM table WHERE conjunction` with default options.
    pub fn select(&mut self, table: &str, predicate: &[Predicate]) -> Result<Vec<DecodedRow>> {
        self.select_opts(table, predicate, QueryOptions::default())
    }

    /// `SELECT *` with explicit options.
    pub fn select_opts(
        &mut self,
        table: &str,
        predicate: &[Predicate],
        opts: QueryOptions,
    ) -> Result<Vec<DecodedRow>> {
        let mut rows = self.select_batch(table, &[predicate], opts)?;
        Ok(rows.pop().unwrap_or_default())
    }

    /// Run a batch of independent `SELECT`s against one table as one
    /// quorum-engine call: every query's requests are in flight at once
    /// and each provider's worker pool serves them side by side, so total
    /// latency approaches the slowest single query rather than the sum.
    /// Results are position-matched to `predicates` and identical to
    /// issuing each query through [`DataSource::select`].
    pub fn query_many(
        &mut self,
        table: &str,
        predicates: &[Vec<Predicate>],
    ) -> Result<Vec<Vec<DecodedRow>>> {
        self.select_batch(table, predicates, QueryOptions::default())
    }

    /// The one read path of [`DataSource::select_opts`] and
    /// [`DataSource::query_many`]: rewrite every query for every provider
    /// (serially, on the caller's thread), gather all of them as rounds
    /// of one engine call, then reconstruct and post-process each in
    /// batch order.
    fn select_batch<P: AsRef<[Predicate]>>(
        &mut self,
        table: &str,
        predicates: &[P],
        opts: QueryOptions,
    ) -> Result<Vec<Vec<DecodedRow>>> {
        if predicates.is_empty() {
            return Ok(Vec::new());
        }
        if opts.verify {
            self.last_faulty.clear();
        }
        let plan = self.plan(table)?;
        let (need, extra, mode) = if opts.verify {
            // Verified reads wait for every provider (fault identification
            // wants the full response set); the floor is k+1 so a lone
            // corrupt share is always outvoted.
            ((self.keys.k() + 1).min(self.keys.n()), 0, All)
        } else {
            // First-k-wins, but ask for one share beyond k when available:
            // reconstruction then cross-checks instead of silently
            // trusting the first k (detects a corrupt share).
            (self.keys.k(), 1, FirstK)
        };
        let n = self.cluster.n();
        let mut rounds = Vec::with_capacity(predicates.len());
        let mut residuals = Vec::with_capacity(predicates.len());
        for predicate in predicates {
            let (server_preds, residual) =
                self.split_predicate(&plan.schema, predicate.as_ref())?;
            rounds.push(to_each(n, |p| {
                Ok(Request::Query {
                    table: table.to_string(),
                    predicate: self.rewrite_for_provider(&plan, &server_preds, p)?,
                    agg: None,
                }
                .encode())
            })?);
            residuals.push(residual);
        }
        let retry = self.retry.clone();
        let gathered = ask(&self.cluster, rounds, need, extra, mode, retry, &anything).rounds();
        let mut out = Vec::with_capacity(predicates.len());
        for ((responses, residual), predicate) in
            gathered.into_iter().zip(residuals).zip(predicates)
        {
            out.push(self.finish_select(
                table,
                predicate.as_ref(),
                &plan,
                &residual,
                responses?,
                opts.verify,
            )?);
        }
        Ok(out)
    }

    /// Turn one query's quorum responses into application rows:
    /// reconstruct shares, apply residual client-side predicates, check
    /// and strip ringers, overlay lazily buffered updates.
    fn finish_select(
        &mut self,
        table: &str,
        predicate: &[Predicate],
        plan: &ColumnPlan,
        residual: &[&Predicate],
        responses: Vec<(ProviderId, Response)>,
        verify: bool,
    ) -> Result<Vec<DecodedRow>> {
        let mut decoded = self.reconstruct_rows(plan, row_blocks(responses)?, verify)?;

        // Residual filtering (random-mode columns, unsupported ranges).
        // Each conjunct's column, codec and code interval are resolved up
        // front so the retain closure is infallible — split_predicate
        // already validated every column. A conjunct whose interval does
        // not resolve matches nothing.
        if !residual.is_empty() {
            let schema = &plan.schema;
            let mut checks = Vec::with_capacity(residual.len());
            for pred in residual {
                let idx = schema.col(pred.col())?;
                let spec = schema.columns.get(idx);
                let interval = spec.and_then(|spec| pred.code_interval(&spec.ctype).ok());
                checks.push((idx, &plan.column(idx)?.value, interval));
            }
            decoded.retain(|(_, values)| {
                checks.iter().all(|&(idx, codec, interval)| {
                    let (Some(value), Some((lo, hi))) = (values.get(idx), interval) else {
                        return false;
                    };
                    codec
                        .encode(value)
                        .is_ok_and(|code| (lo..=hi).contains(&code))
                })
            });
        }

        // Ringer check + strip, then lazy overlay.
        self.apply_ringer_checks(table, predicate, &mut decoded)?;
        self.overlay_pending(table, &mut decoded);
        Ok(decoded)
    }

    fn apply_ringer_checks(
        &self,
        table: &str,
        predicate: &[Predicate],
        decoded: &mut Vec<DecodedRow>,
    ) -> Result<()> {
        let state = self.table(table)?;
        if state.ringers.is_empty() {
            return Ok(());
        }
        let ids: Vec<u64> = decoded.iter().map(|(id, _)| *id).collect();
        for pred in predicate {
            if let Some(set) = state.ringers.get(pred.col()) {
                let (lo, hi) = pred.code_interval(&state.plan.schema.spec(pred.col())?.ctype)?;
                set.check_range_result(lo, hi, &ids).map_err(|e| {
                    ClientError::Provider(format!("execution assurance failed: {e}"))
                })?;
            }
        }
        // Strip all ringer rows from what the application sees.
        decoded.retain(|(id, _)| !state.ringers.values().any(|set| set.is_ringer(*id)));
        Ok(())
    }

    fn overlay_pending(&self, table: &str, decoded: &mut [DecodedRow]) {
        if let Some(state) = self.tables.get(table) {
            for (id, values) in decoded.iter_mut() {
                if let Some(newer) = state.pending.get(id) {
                    *values = newer.clone();
                }
            }
        }
    }

    // ---- aggregates ----

    /// `SELECT COUNT(*) WHERE …` (server-side).
    pub fn count(&mut self, table: &str, predicate: &[Predicate]) -> Result<u64> {
        Ok(self.aggregate(table, "", predicate, AggKind::Count)?.count)
    }

    /// `SELECT SUM(col) WHERE …` — providers sum shares, client
    /// reconstructs the true sum from the share sums (§V-A).
    pub fn sum(&mut self, table: &str, col: &str, predicate: &[Predicate]) -> Result<AggResult> {
        self.aggregate(table, col, predicate, AggKind::Sum)
    }

    /// `SELECT AVG(col) WHERE …` as (sum, count) — returned value is the
    /// floor of the mean.
    pub fn avg(&mut self, table: &str, col: &str, predicate: &[Predicate]) -> Result<AggResult> {
        let r = self.aggregate(table, col, predicate, AggKind::Sum)?;
        let value = match (&r.value, r.count) {
            (Some(Value::Int(sum)), c) if c > 0 => Some(Value::Int(sum / c)),
            _ => None,
        };
        Ok(AggResult {
            value,
            count: r.count,
        })
    }

    /// `SELECT MIN(col) WHERE …` (order-preserving columns only).
    pub fn min(&mut self, table: &str, col: &str, predicate: &[Predicate]) -> Result<AggResult> {
        self.aggregate(table, col, predicate, AggKind::Min)
    }

    /// `SELECT MAX(col) WHERE …` (order-preserving columns only).
    pub fn max(&mut self, table: &str, col: &str, predicate: &[Predicate]) -> Result<AggResult> {
        self.aggregate(table, col, predicate, AggKind::Max)
    }

    /// `SELECT MEDIAN(col) WHERE …` (order-preserving columns only).
    pub fn median(&mut self, table: &str, col: &str, predicate: &[Predicate]) -> Result<AggResult> {
        self.aggregate(table, col, predicate, AggKind::Median)
    }

    /// `SELECT * … ORDER BY col [DESC] LIMIT n`, executed server-side on
    /// an order-preserving column: each provider sorts by share (share
    /// order = value order) and returns only the top rows.
    ///
    /// The whole predicate must be server-evaluable — truncating before a
    /// client-side residual filter would be wrong, so residuals fall back
    /// to a full select + client sort.
    pub fn select_top(
        &mut self,
        table: &str,
        order_col: &str,
        desc: bool,
        limit: u64,
        predicate: &[Predicate],
    ) -> Result<Vec<DecodedRow>> {
        let plan = self.plan(table)?;
        let col_idx = plan.schema.col(order_col)?;
        let sort_col = plan.column(col_idx)?;
        let (server_preds, residual) = self.split_predicate(&plan.schema, predicate)?;
        let has_overlay =
            !self.table(table)?.pending.is_empty() || !self.table(table)?.ringers.is_empty();
        let ordered = matches!(sort_col.share, ShareCodec::OrderPreserving(_));
        if !ordered || !residual.is_empty() || has_overlay {
            // Fallback: fetch, sort client-side, truncate.
            let mut rows = self.select(table, predicate)?;
            let keyed: Result<Vec<(u64, DecodedRow)>> = rows
                .drain(..)
                .map(|(id, values)| {
                    let code = sort_col.value.encode(&values[col_idx])?;
                    Ok((code, (id, values)))
                })
                .collect();
            let mut keyed = keyed?;
            keyed.sort_by_key(|(code, (id, _))| (*code, *id));
            if desc {
                keyed.reverse();
            }
            keyed.truncate(limit as usize);
            return Ok(keyed.into_iter().map(|(_, row)| row).collect());
        }
        let reqs = to_each(self.keys.n(), |p| {
            Ok(Request::QueryOrdered {
                table: table.to_string(),
                predicate: self.rewrite_for_provider(&plan, &server_preds, p)?,
                order_col: col_idx,
                desc,
                limit,
            }
            .encode())
        })?;
        let responses = self.first_k(reqs)?;
        let rows = row_blocks(responses)?;
        // Providers return the SAME logical rows in the SAME order (order
        // preservation is per-provider but consistent); remember it before
        // reconstruction resorts by id.
        let order: Vec<u64> = rows
            .first()
            .map(|(_, block)| block.ids().to_vec())
            .unwrap_or_default();
        let decoded = self.reconstruct_rows(&plan, rows, false)?;
        let by_id: HashMap<u64, Vec<Value>> = decoded.into_iter().collect();
        Ok(order
            .into_iter()
            .filter_map(|id| by_id.get(&id).map(|v| (id, v.clone())))
            .collect())
    }

    /// `SELECT group_col, SUM(agg_col), COUNT(*) … GROUP BY group_col`,
    /// executed server-side: providers return per-group share partials
    /// which the client zips by representative row id and reconstructs.
    pub fn group_by(
        &mut self,
        table: &str,
        group_col: &str,
        sum_col: Option<&str>,
        predicate: &[Predicate],
    ) -> Result<Vec<GroupRow>> {
        let plan = self.plan(table)?;
        let g_idx = plan.schema.col(group_col)?;
        let g_col = plan.column(g_idx)?;
        if matches!(g_col.share, ShareCodec::Random) {
            return Err(ClientError::Unsupported(
                "GROUP BY needs an equality-capable share mode".into(),
            ));
        }
        let s_idx = match sum_col {
            None => None,
            Some(c) => Some(plan.schema.col(c)?),
        };
        let s_col = s_idx.map(|idx| plan.column(idx)).transpose()?;
        let (server_preds, residual) = self.split_predicate(&plan.schema, predicate)?;
        let has_overlay =
            !self.table(table)?.pending.is_empty() || !self.table(table)?.ringers.is_empty();
        if !residual.is_empty() || has_overlay {
            return self.group_by_client_side(table, group_col, sum_col, predicate);
        }
        let agg = match s_idx {
            None => AggOp::Count,
            Some(col) => AggOp::Sum { col },
        };
        let k = self.keys.k();
        let reqs = to_each(self.keys.n(), |p| {
            Ok(Request::GroupedAggregate {
                table: table.to_string(),
                predicate: self.rewrite_for_provider(&plan, &server_preds, p)?,
                group_col: g_idx,
                agg,
            }
            .encode())
        })?;
        let responses = self.first_k(reqs)?;
        // Zip group partials across providers by rep_row.
        let mut by_rep: HashMap<u64, Vec<(ProviderId, dasp_server::proto::GroupPartial)>> =
            HashMap::new();
        for (p, resp) in responses {
            let Response::Groups(groups) = resp else {
                return Err(ClientError::Provider("unexpected group response".into()));
            };
            for g in groups {
                by_rep.entry(g.rep_row).or_default().push((p, g));
            }
        }
        let mut out = Vec::with_capacity(by_rep.len());
        for (rep, partials) in by_rep {
            if partials.len() < k {
                continue; // not confirmed by a quorum
            }
            let count = partials[0].1.count;
            // Reconstruct the group value from its shares.
            let g_shares: Vec<(ProviderId, i128)> =
                partials.iter().map(|(p, g)| (*p, g.group_share)).collect();
            let g_code = self.decode_column(g_col, &g_shares, false)?;
            let group = g_col.value.decode(g_code)?;
            // Reconstruct the sum (mode-dependent), if requested.
            let sum = match s_col {
                None => None,
                Some(_) if count == 0 => Some(Value::Int(0)),
                Some(col) => {
                    let code = match &col.share {
                        ShareCodec::OrderPreserving(sharing) => {
                            let pairs: Vec<(usize, i128)> =
                                partials.iter().map(|(p, g)| (*p, g.sum)).collect();
                            let v = sharing.reconstruct_interpolate(&pairs)?.ok_or_else(|| {
                                ClientError::Reconstruction("inconsistent group sums".into())
                            })?;
                            u64::try_from(v).map_err(|_| {
                                ClientError::Reconstruction("negative group sum".into())
                            })?
                        }
                        ShareCodec::Deterministic(_) | ShareCodec::Random => {
                            let shares: Vec<FieldShare> = partials
                                .iter()
                                .map(|(p, g)| FieldShare {
                                    provider: *p,
                                    y: field_share(g.sum),
                                })
                                .collect();
                            self.keys.field().reconstruct(&shares)?.to_u64()
                        }
                    };
                    Some(Value::Int(code))
                }
            };
            out.push(GroupRow {
                rep_row: rep,
                group,
                sum,
                count,
            });
        }
        out.sort_by_key(|g| g.rep_row);
        Ok(out)
    }

    fn group_by_client_side(
        &mut self,
        table: &str,
        group_col: &str,
        sum_col: Option<&str>,
        predicate: &[Predicate],
    ) -> Result<Vec<GroupRow>> {
        let rows = self.select(table, predicate)?;
        let schema = &self.table(table)?.plan.schema;
        let g_idx = schema.col(group_col)?;
        let s_idx = match sum_col {
            None => None,
            Some(c) => Some(schema.col(c)?),
        };
        let mut groups: HashMap<Value, GroupRow> = HashMap::new();
        for (id, values) in rows {
            let entry = groups.entry(values[g_idx].clone()).or_insert(GroupRow {
                rep_row: id,
                group: values[g_idx].clone(),
                sum: s_idx.map(|_| Value::Int(0)),
                count: 0,
            });
            entry.rep_row = entry.rep_row.min(id);
            entry.count += 1;
            if let (Some(i), Some(Value::Int(acc))) = (s_idx, entry.sum.as_mut()) {
                let Value::Int(v) = values[i] else {
                    return Err(ClientError::Unsupported("SUM over a text column".into()));
                };
                *acc += v;
            }
        }
        let mut out: Vec<GroupRow> = groups.into_values().collect();
        out.sort_by_key(|g| g.rep_row);
        Ok(out)
    }

    fn aggregate(
        &mut self,
        table: &str,
        col: &str,
        predicate: &[Predicate],
        kind: AggKind,
    ) -> Result<AggResult> {
        let plan = self.plan(table)?;
        let schema = &plan.schema;
        let (server_preds, residual) = self.split_predicate(schema, predicate)?;
        let has_pending = !self.table(table)?.pending.is_empty();
        let has_ringers = !self.table(table)?.ringers.is_empty();
        // Server-side aggregation is only sound if the providers see the
        // whole predicate and the data contains no planted/unflushed rows.
        if !residual.is_empty() || has_pending || has_ringers {
            return self.aggregate_client_side(table, col, predicate, kind);
        }
        let col_idx = if matches!(kind, AggKind::Count) {
            0
        } else {
            schema.col(col)?
        };
        let col_spec = schema.columns.get(col_idx);
        if let (AggKind::Min | AggKind::Max | AggKind::Median, Some(spec)) = (&kind, col_spec) {
            if !spec.mode.supports_range() {
                // Order statistics need order-preserving shares.
                return self.aggregate_client_side(table, col, predicate, kind);
            }
        }
        let agg = match kind {
            AggKind::Count => AggOp::Count,
            AggKind::Sum => AggOp::Sum { col: col_idx },
            AggKind::Min => AggOp::Min { col: col_idx },
            AggKind::Max => AggOp::Max { col: col_idx },
            AggKind::Median => AggOp::Median { col: col_idx },
        };
        let reqs = to_each(self.keys.n(), |p| {
            Ok(Request::Query {
                table: table.to_string(),
                predicate: self.rewrite_for_provider(&plan, &server_preds, p)?,
                agg: Some(agg),
            }
            .encode())
        })?;
        let responses = self.first_k(reqs)?;
        let partials: Vec<(ProviderId, i128, u64, Option<Row>)> = responses
            .into_iter()
            .map(|(p, resp)| match resp {
                Response::Agg { sum, count, row } => Ok((p, sum, count, row)),
                other => Err(ClientError::Provider(format!("unexpected {other:?}"))),
            })
            .collect::<Result<_>>()?;
        let count = partials[0].2;
        match kind {
            AggKind::Count => Ok(AggResult { value: None, count }),
            AggKind::Sum => {
                if count == 0 {
                    return Ok(AggResult {
                        value: Some(Value::Int(0)),
                        count: 0,
                    });
                }
                let sum_code = match &plan.column(col_idx)?.share {
                    ShareCodec::OrderPreserving(sharing) => {
                        let pairs: Vec<(usize, i128)> =
                            partials.iter().map(|&(p, s, _, _)| (p, s)).collect();
                        let v = sharing.reconstruct_interpolate(&pairs)?.ok_or_else(|| {
                            ClientError::Reconstruction("inconsistent sum shares".into())
                        })?;
                        u64::try_from(v)
                            .map_err(|_| ClientError::Reconstruction("negative sum".into()))?
                    }
                    ShareCodec::Deterministic(_) | ShareCodec::Random => {
                        let shares: Vec<FieldShare> = partials
                            .iter()
                            .map(|&(p, s, _, _)| FieldShare {
                                provider: p,
                                y: field_share(s),
                            })
                            .collect();
                        self.keys.field().reconstruct(&shares)?.to_u64()
                    }
                };
                Ok(AggResult {
                    value: Some(Value::Int(sum_code)),
                    count,
                })
            }
            AggKind::Min | AggKind::Max | AggKind::Median => {
                if count == 0 {
                    return Ok(AggResult {
                        value: None,
                        count: 0,
                    });
                }
                // Every provider returns the same logical row (order is
                // preserved identically); zip and reconstruct it.
                let rows: Vec<(ProviderId, RowBlock)> = partials
                    .into_iter()
                    .map(|(p, _, _, row)| {
                        row.map(|r| (p, [r].iter().collect()))
                            .ok_or_else(|| ClientError::Provider("missing extremal row".into()))
                    })
                    .collect::<Result<_>>()?;
                let decoded = self.reconstruct_rows(&plan, rows, false)?;
                let (_, values) = decoded.into_iter().next().ok_or_else(|| {
                    ClientError::Reconstruction("extremal row ids disagree".into())
                })?;
                Ok(AggResult {
                    value: Some(values[col_idx].clone()),
                    count,
                })
            }
        }
    }

    /// Fallback: fetch matching rows and aggregate at the client.
    fn aggregate_client_side(
        &mut self,
        table: &str,
        col: &str,
        predicate: &[Predicate],
        kind: AggKind,
    ) -> Result<AggResult> {
        let rows = self.select(table, predicate)?;
        let count = rows.len() as u64;
        if matches!(kind, AggKind::Count) {
            return Ok(AggResult { value: None, count });
        }
        let idx = self.table(table)?.plan.schema.col(col)?;
        let mut nums: Vec<u64> = rows
            .iter()
            .map(|(_, values)| match &values[idx] {
                Value::Int(v) => Ok(*v),
                Value::Str(_) => Err(ClientError::Unsupported(
                    "numeric aggregate over text column".into(),
                )),
            })
            .collect::<Result<_>>()?;
        if nums.is_empty() {
            let value = matches!(kind, AggKind::Sum).then_some(Value::Int(0));
            return Ok(AggResult { value, count: 0 });
        }
        nums.sort_unstable();
        let value = match kind {
            AggKind::Sum => Value::Int(nums.iter().sum()),
            AggKind::Min => Value::Int(nums[0]),
            AggKind::Max => Value::Int(nums[nums.len() - 1]),
            AggKind::Median => Value::Int(nums[nums.len() / 2]),
            AggKind::Count => unreachable!(),
        };
        Ok(AggResult {
            value: Some(value),
            count,
        })
    }

    // ---- joins ----

    /// Equi-join two tables on same-domain columns, executed provider-side
    /// on share equality (§V-A). Returns (left row, right row) pairs.
    pub fn join(
        &mut self,
        left: &str,
        left_col: &str,
        right: &str,
        right_col: &str,
    ) -> Result<Vec<(DecodedRow, DecodedRow)>> {
        let lplan = self.plan(left)?;
        let rplan = self.plan(right)?;
        let li = lplan.schema.col(left_col)?;
        let ri = rplan.schema.col(right_col)?;
        let lc = &lplan.schema.columns[li];
        let rc = &rplan.schema.columns[ri];
        if lc.domain != rc.domain {
            return Err(ClientError::Unsupported(format!(
                "join columns are in different domains ({:?} vs {:?}) — the §V-A scheme only joins within a domain",
                lc.domain, rc.domain
            )));
        }
        if lc.mode != rc.mode || !lc.mode.supports_equality() {
            return Err(ClientError::Unsupported(
                "join columns need matching, equality-capable share modes".into(),
            ));
        }
        if lplan.column(li)?.value.domain_size() != rplan.column(ri)?.value.domain_size() {
            return Err(ClientError::Unsupported(
                "join columns must share a domain size".into(),
            ));
        }
        let req = Request::Join {
            left: left.to_string(),
            right: right.to_string(),
            left_col: li,
            right_col: ri,
        }
        .encode();
        let responses = self.first_k(to_each(self.keys.n(), |_| Ok(req.clone()))?)?;
        // Zip pairs by (left id, right id); reconstruct each side.
        let mut left_rows: Vec<(ProviderId, RowBlock)> = Vec::new();
        let mut right_rows: Vec<(ProviderId, RowBlock)> = Vec::new();
        let mut pair_ids: Vec<(u64, u64)> = Vec::new();
        for (p, resp) in responses {
            let Response::Joined(pairs) = resp else {
                return Err(ClientError::Provider("unexpected join response".into()));
            };
            if pair_ids.is_empty() {
                pair_ids = pairs.iter().map(|(l, r)| (l.id, r.id)).collect();
                pair_ids.sort_unstable();
            }
            left_rows.push((p, pairs.iter().map(|(l, _)| l).collect()));
            right_rows.push((p, pairs.iter().map(|(_, r)| r).collect()));
        }
        let left_decoded = self.reconstruct_rows(&lplan, left_rows, false)?;
        let right_decoded = self.reconstruct_rows(&rplan, right_rows, false)?;
        let lmap: HashMap<u64, Vec<Value>> = left_decoded.into_iter().collect();
        let rmap: HashMap<u64, Vec<Value>> = right_decoded.into_iter().collect();
        let mut out = Vec::with_capacity(pair_ids.len());
        for (lid, rid) in pair_ids {
            if let (Some(lv), Some(rv)) = (lmap.get(&lid), rmap.get(&rid)) {
                out.push(((lid, lv.clone()), (rid, rv.clone())));
            }
        }
        Ok(out)
    }

    // ---- updates (§V-C) ----

    /// Delete matching rows everywhere; returns how many.
    pub fn delete_where(&mut self, table: &str, predicate: &[Predicate]) -> Result<usize> {
        let rows = self.select(table, predicate)?;
        let ids: Vec<u64> = rows.iter().map(|(id, _)| *id).collect();
        if ids.is_empty() {
            return Ok(0);
        }
        let req = Request::Delete {
            table: table.to_string(),
            ids: ids.clone(),
        }
        .encode();
        write(&self.cluster, to_each(self.keys.n(), |_| Ok(req.clone()))?)?;
        let mut cancelled = Vec::new();
        if let Some(state) = self.tables.get_mut(table) {
            for id in &ids {
                if state.pending.remove(id).is_some() {
                    cancelled.push(*id);
                }
            }
        }
        if !cancelled.is_empty() {
            if let Some(journal) = &self.journal {
                journal.log_cancel(table, &cancelled)?;
            }
        }
        Ok(ids.len())
    }

    /// Update matching rows, setting `assignments` columns to new values.
    /// Eager mode re-shares and pushes immediately (retrieve → reconstruct
    /// → re-share, exactly the paper's description); lazy mode buffers.
    pub fn update_where(
        &mut self,
        table: &str,
        predicate: &[Predicate],
        assignments: &[(&str, Value)],
    ) -> Result<usize> {
        let plan = self.plan(table)?;
        let rows = self.select(table, predicate)?;
        // Resolve and type-check each assignment once, so lazy mode can't
        // buffer garbage; with no matching row there is nothing to check.
        let mut sets = Vec::with_capacity(assignments.len());
        if !rows.is_empty() {
            for (col, value) in assignments {
                let idx = plan.schema.col(col)?;
                plan.column(idx)?.value.encode(value)?;
                sets.push((idx, value));
            }
        }
        let mut updated = Vec::with_capacity(rows.len());
        for (id, mut values) in rows {
            for &(idx, value) in &sets {
                values[idx] = value.clone();
            }
            updated.push((id, values));
        }
        let count = updated.len();
        if self.lazy {
            // Journal before the in-memory queue mutation: a crash
            // between the two re-queues the batch on recovery (providers
            // haven't seen it, so replaying is exact, not approximate).
            if let Some(journal) = &self.journal {
                journal.log_pending(table, &updated)?;
            }
            let state = self
                .tables
                .get_mut(table)
                .ok_or_else(|| ClientError::Schema(format!("no table {table:?}")))?;
            for (id, values) in updated {
                state.pending.insert(id, values);
            }
            return Ok(count);
        }
        self.push_updates(table, &updated)?;
        Ok(count)
    }

    fn push_updates(&mut self, table: &str, updated: &[(u64, Vec<Value>)]) -> Result<()> {
        if updated.is_empty() {
            return Ok(());
        }
        let plan = self.plan(table)?;
        let (ids, rows): (Vec<u64>, Vec<Vec<Value>>) = updated.iter().cloned().unzip();
        let encoded = self.encode_rows(table, &plan, &rows)?;
        let n = self.keys.n();
        let mut per_provider: Vec<Vec<Row>> = vec![Vec::with_capacity(updated.len()); n];
        for (id, row_shares) in ids.iter().zip(encoded) {
            for (p, shares) in row_shares.into_iter().enumerate() {
                per_provider[p].push(Row { id: *id, shares });
            }
        }
        let reqs: Vec<(ProviderId, Vec<u8>)> = per_provider
            .into_iter()
            .enumerate()
            .map(|(p, rows)| {
                (
                    p,
                    Request::Update {
                        table: table.to_string(),
                        rows,
                    }
                    .encode(),
                )
            })
            .collect();
        write(&self.cluster, reqs)
    }

    /// §V-C incremental update: add `delta` to a **random-mode** numeric
    /// column of every matching row *without retrieving anything* — the
    /// client splits the delta into fresh random shares and providers add
    /// them in place. The sum of two random sharings is again a uniformly
    /// random sharing of the summed value, so privacy is unchanged.
    ///
    /// One selection round trip (ids only, via the predicate) plus one
    /// increment round trip — versus retrieve-reconstruct-reshare for the
    /// eager path.
    pub fn increment_where(
        &mut self,
        table: &str,
        predicate: &[Predicate],
        col: &str,
        delta: u64,
    ) -> Result<usize> {
        let plan = self.plan(table)?;
        let col_idx = plan.schema.col(col)?;
        let target = plan.column(col_idx)?;
        if !matches!(target.share, ShareCodec::Random) {
            return Err(ClientError::Unsupported(
                "incremental updates require a random-mode column (deterministic and                  order-preserving shares have value-bound structure)"
                    .into(),
            ));
        }
        // Overflow check against the column domain requires values; do a
        // selection (ids + current values) — still one round, and the
        // value check guards domain invariants.
        let rows = self.select(table, predicate)?;
        let mut deltas_per_provider: Vec<Vec<(u64, i128)>> =
            vec![Vec::with_capacity(rows.len()); self.keys.n()];
        for (id, values) in &rows {
            let Value::Int(current) = values[col_idx] else {
                return Err(ClientError::Unsupported("increment on text column".into()));
            };
            let new = current
                .checked_add(delta)
                .ok_or_else(|| ClientError::Schema("increment overflows u64".into()))?;
            if new >= target.value.domain_size() {
                return Err(ClientError::Schema(format!(
                    "row {id}: {current} + {delta} leaves the domain"
                )));
            }
            // Fresh random sharing of the delta, one polynomial per row.
            let shares = self
                .keys
                .field()
                .split_random(Fp::from_u64(delta), &mut self.rng);
            for s in shares {
                deltas_per_provider[s.provider].push((*id, s.y.to_u64() as i128));
            }
        }
        let count = rows.len();
        if count == 0 {
            return Ok(0);
        }
        let reqs: Vec<(ProviderId, Vec<u8>)> = deltas_per_provider
            .into_iter()
            .enumerate()
            .map(|(p, deltas)| {
                (
                    p,
                    Request::Increment {
                        table: table.to_string(),
                        col: col_idx,
                        deltas,
                    }
                    .encode(),
                )
            })
            .collect();
        write(&self.cluster, reqs)?;
        Ok(count)
    }

    /// Flush buffered lazy updates for `table` in one batch per provider.
    ///
    /// With a journal ([`DataSource::set_lazy_journal`]) the queue is
    /// marked flushed only *after* the providers acknowledge, so a crash
    /// mid-flush re-queues the batch on recovery instead of losing it.
    pub fn flush(&mut self, table: &str) -> Result<usize> {
        let pending: Vec<(u64, Vec<Value>)> = {
            let state = self
                .tables
                .get_mut(table)
                .ok_or_else(|| ClientError::Schema(format!("no table {table:?}")))?;
            state.pending.drain().collect()
        };
        let count = pending.len();
        self.push_updates(table, &pending)?;
        if let Some(journal) = &self.journal {
            journal.log_flushed(table)?;
            // A globally drained queue needs no records: truncate.
            let all_empty = self.orphan_pending.values().all(HashMap::is_empty)
                && self.tables.values().all(|t| t.pending.is_empty());
            if all_empty {
                journal.compact()?;
            }
        }
        Ok(count)
    }

    // ---- execution assurance (ringers) ----

    /// Plant `count` ringer rows for `col`; `filler` builds the rest of
    /// each row from the ringer value. Ringers are checked on every query
    /// constraining `col` and stripped from results.
    pub fn plant_ringers(
        &mut self,
        table: &str,
        col: &str,
        count: usize,
        filler: impl Fn(u64) -> Vec<Value>,
    ) -> Result<()> {
        let plan = self.plan(table)?;
        let idx = plan.schema.col(col)?;
        let codec = &plan.column(idx)?.value;
        let domain = codec.domain_size();
        // Ringer ids live far above normal ids to avoid collision.
        let id_base = 1 << 40;
        let mut set = self
            .tables
            .get(table)
            .and_then(|t| t.ringers.get(col).cloned())
            .unwrap_or_default();
        let planted = set.plant(count, domain, id_base + set.len() as u64, &mut self.rng);
        let (ids, rows): (Vec<u64>, Vec<Vec<Value>>) =
            planted.iter().map(|&(id, v)| (id, filler(v))).unzip();
        // Sanity: filler must put the ringer value in `col`.
        for (&(_, v), row) in planted.iter().zip(&rows) {
            let encoded = codec.encode(&row[idx])?;
            if encoded != v {
                return Err(ClientError::Schema(
                    "ringer filler must place the ringer value in the target column".into(),
                ));
            }
        }
        self.insert_with_ids(table, &ids, &rows)?;
        self.tables
            .get_mut(table)
            .ok_or_else(|| ClientError::Schema(format!("no table {table:?}")))?
            .ringers
            .insert(col.to_string(), set);
        Ok(())
    }
}

impl DataSource {
    // ---- disaster recovery (paper §I: "a mechanism to recover the data") ----

    /// Rebuild a wiped/replaced provider's entire state from the
    /// surviving quorum: for every table and row,
    ///
    /// * deterministic and order-preserving shares are recomputed
    ///   directly from the reconstructed values (their construction is
    ///   keyed and deterministic), and
    /// * random-mode shares are *regenerated on the original polynomial*
    ///   by Lagrange-evaluating k surviving shares at the lost provider's
    ///   secret point — so the rebuilt provider is bit-identical to what
    ///   it held before, and existing (k-of-n) invariants are preserved
    ///   without touching any other provider.
    ///
    /// Nothing is written until every share is checked. Each table is
    /// fetched from the other providers in one round, which keeps the
    /// first k + 1 answers (k when no more exist). A peer whose answer is
    /// not rows is named in [`DataSource::last_faulty`] and passed over
    /// like a crashed one. When k + 1 answers are in, every row must come
    /// back from each of them, every deterministic and order-preserving
    /// value must decode by majority, and every random-mode column's
    /// (k+1)-th share must lie on the polynomial of the first k. A
    /// disagreement is [`ClientError::RebuildMismatch`] naming the table,
    /// and leaves the target as it was. With only k answers (n − 1 = k,
    /// or a peer down or passed over) nothing is checkable: the shares are
    /// used as they arrive.
    ///
    /// The target provider must be reachable (it is the replacement
    /// node); at least k *other* providers must be alive.
    pub fn rebuild_provider(&mut self, target: ProviderId) -> Result<usize> {
        let n = self.keys.n();
        if target >= n {
            return Err(ClientError::Schema(format!("no provider {target}")));
        }
        let k = self.keys.k();
        let x_target = self.keys.field_point(target)?;
        self.last_faulty.clear();
        let tables: Vec<String> = self.tables.keys().cloned().collect();
        let mut rebuilt = Vec::with_capacity(tables.len());
        for table in tables {
            let plan = self.plan(&table)?;
            let mismatch = |detail: String| ClientError::RebuildMismatch {
                table: table.clone(),
                detail,
            };
            let req = Request::Query {
                table: table.clone(),
                predicate: vec![],
                agg: None,
            }
            .encode();
            let peers = vec![(0..n)
                .filter(|&p| p != target)
                .map(|p| (p, req.clone()))
                .collect()];
            let extra = usize::from(n - 1 > k);
            let retry = self.retry.clone();
            let answers = ask(&self.cluster, peers, k, extra, FirstK, retry, &rows_only);
            self.blame(answers.rejected.iter().copied());
            let healthy = answers.one().map_err(short_of(k, "healthy providers"));
            let healthy = row_blocks(healthy?)?;
            let answered = healthy.len();
            let checked = answered > k;
            // Zip rows by id.
            let mut by_id: HashMap<u64, Vec<(ProviderId, Vec<i128>)>> = HashMap::new();
            for (p, rows) in healthy {
                for row in rows.iter() {
                    by_id.entry(row.id).or_default().push((p, row.shares));
                }
            }
            // Regenerate this provider's share for every row/column.
            let mut rows: Vec<Row> = Vec::with_capacity(by_id.len());
            for (id, per_provider) in by_id {
                if per_provider.len() < k {
                    return Err(ClientError::Reconstruction(format!(
                        "row {id} lacks a quorum"
                    )));
                }
                if checked && per_provider.len() < answered {
                    return Err(mismatch(format!(
                        "row {id} came back from {} of {answered} providers",
                        per_provider.len()
                    )));
                }
                if per_provider
                    .iter()
                    .any(|(_, s)| s.len() != plan.columns.len())
                {
                    return Err(arity_mismatch());
                }
                let mut shares = Vec::with_capacity(plan.columns.len());
                for (col_idx, col) in plan.columns.iter().enumerate() {
                    let col_shares: Vec<(ProviderId, i128)> = per_provider
                        .iter()
                        .map(|(p, s)| Ok((*p, *s.get(col_idx).ok_or_else(arity_mismatch)?)))
                        .collect::<Result<_>>()?;
                    let disagree = || mismatch(format!("row {id}, column {col_idx}"));
                    let regenerated: i128 = match &col.share {
                        ShareCodec::Random => {
                            // Evaluate the original polynomial at x_target,
                            // once every further share is found on it.
                            let pts: Vec<(Fp, Fp)> = col_shares
                                .iter()
                                .map(|&(p, y)| Ok((self.keys.field_point(p)?, field_share(y))))
                                .collect::<Result<_>>()?;
                            let (first, rest) = pts.split_at(k);
                            let at = |x| {
                                lagrange_eval_at(first, x)
                                    .map_err(|e| ClientError::Reconstruction(e.to_string()))
                            };
                            for &(x, y) in rest {
                                if at(x)? != y {
                                    return Err(disagree());
                                }
                            }
                            at(x_target)?.to_u64() as i128
                        }
                        ShareCodec::Deterministic(prfs) => {
                            let code = self
                                .decode_column(col, &col_shares, checked)
                                .map_err(|e| if checked { disagree() } else { e })?;
                            self.keys
                                .field()
                                .deterministic_share_with(code, prfs, target)?
                                .to_u64() as i128
                        }
                        ShareCodec::OrderPreserving(sharing) => {
                            let code = self
                                .decode_column(col, &col_shares, checked)
                                .map_err(|e| if checked { disagree() } else { e })?;
                            sharing.share_for(code, target)?
                        }
                    };
                    shares.push(regenerated);
                }
                rows.push(Row { id, shares });
            }
            let create = Request::CreateTable {
                name: table.clone(),
                columns: plan.schema.columns.iter().map(|c| c.name.clone()).collect(),
                indexed: plan
                    .schema
                    .columns
                    .iter()
                    .map(|c| c.mode.supports_equality())
                    .collect(),
            };
            rebuilt.push((table, create, rows));
        }
        // Every share checked: wipe the target and write them.
        let to_target = |req: Request| write(&self.cluster, vec![(target, req.encode())]);
        to_target(Request::DropAllTables)?;
        let mut total_rows = 0usize;
        for (table, create, rows) in rebuilt {
            to_target(create)?;
            total_rows += rows.len();
            for chunk in rows.chunks(2000) {
                to_target(Request::Insert {
                    table: table.clone(),
                    rows: chunk.to_vec(),
                })?;
            }
        }
        Ok(total_rows)
    }

    // ---- authenticated (completeness-proved) range queries ----

    /// Establish Merkle commitments for `table` sorted by `col` at every
    /// provider. The client independently rebuilds each provider's tree
    /// from the share rows it fetches — majority-verifying the values
    /// first — and accepts the provider's root only if it matches, so a
    /// provider cannot commit to tampered data unnoticed (below the
    /// collusion threshold). Two round trips: the fetch, then the
    /// challenge. A provider whose fetched table is rejected (undecodable
    /// or an error) is left out of the commitment and named in
    /// [`DataSource::last_faulty`].
    ///
    /// Commitments are invalidated by any subsequent mutation; re-commit
    /// after writes.
    pub fn commit_table(&mut self, table: &str, col: &str) -> Result<usize> {
        let plan = self.plan(table)?;
        let col_idx = plan.schema.col(col)?;
        // Fetch every provider's full share table.
        let req = Request::Query {
            table: table.to_string(),
            predicate: vec![],
            agg: None,
        }
        .encode();
        let want = (self.keys.k() + 1).min(self.keys.n());
        let reqs = to_each(self.keys.n(), |_| Ok(req.clone()))?;
        let retry = self.retry.clone();
        let mut answers = ask(&self.cluster, vec![reqs], want, 0, All, retry, &anything);
        let rejected = std::mem::take(&mut answers.rejected);
        let rows = row_blocks(answers.one()?)?;
        // Majority-verify the data before pinning it.
        self.last_faulty.clear();
        let _decoded = self.reconstruct_rows(&plan, rows.clone(), true)?;
        if !self.last_faulty.is_empty() {
            return Err(ClientError::Reconstruction(format!(
                "providers {:?} returned corrupt shares; refusing to commit",
                self.last_faulty
            )));
        }
        // The commitment leaves out every provider whose table was
        // rejected: name them.
        self.blame(rejected);
        // Build each provider's expected tree locally, then challenge
        // them all at once: each must commit to exactly that tree.
        let mut committed = HashMap::new();
        for (provider, provider_rows) in rows {
            if provider_rows.is_empty() {
                return Err(ClientError::Schema("cannot commit an empty table".into()));
            }
            let leaves: Vec<CommittedRow> = provider_rows
                .iter()
                .map(|r| CommittedRow {
                    id: r.id,
                    shares: r.shares,
                })
                .collect();
            let expected = dasp_verify::AuthenticatedTable::build(leaves, col_idx);
            committed.insert(provider, (expected.root(), expected.len()));
        }
        let challenge = Request::Commit {
            table: table.to_string(),
            col: col_idx,
        }
        .encode();
        let reqs: Vec<_> = committed.keys().map(|&p| (p, challenge.clone())).collect();
        let same_tree = |_: usize, p: ProviderId, resp: &Response| match resp {
            Response::Committed { root, total_rows }
                if committed.get(&p) == Some(&(*root, *total_rows as usize)) =>
            {
                Ok(())
            }
            _ => Err("committed to a different tree than its data".into()),
        };
        let need = reqs.len();
        let none = RetryPolicy::none();
        ask(&self.cluster, vec![reqs], need, 0, All, none, &same_tree).one()?;
        self.tables
            .get_mut(table)
            .ok_or_else(|| ClientError::Schema(format!("no table {table:?}")))?
            .commitments
            .insert(col.to_string(), committed);
        Ok(need)
    }

    /// Range query with per-provider completeness proofs: any withheld or
    /// forged row fails Merkle verification against the committed root.
    /// The committed providers are asked in one first-k round, each for
    /// its own share range; an answer whose proof does not verify is
    /// rejected, named in [`DataSource::last_faulty`], and replaced by the
    /// next committed provider's. Requires a prior
    /// [`DataSource::commit_table`] on an order-preserving column.
    pub fn verified_range(
        &mut self,
        table: &str,
        col: &str,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<DecodedRow>> {
        let plan = self.plan(table)?;
        let col_idx = plan.schema.col(col)?;
        let ShareCodec::OrderPreserving(sharing) = &plan.column(col_idx)?.share else {
            return Err(ClientError::Unsupported(
                "verified ranges need an order-preserving column".into(),
            ));
        };
        let commitments = self.table(table)?.commitments.get(col).ok_or_else(|| {
            ClientError::Unsupported(format!(
                "no commitment for {table}.{col}; call commit_table first"
            ))
        })?;
        // Each committed provider's root, size and share range.
        let mut expect = HashMap::with_capacity(commitments.len());
        let mut reqs = Vec::with_capacity(commitments.len());
        for (&provider, &(root, total)) in commitments {
            let (slo, shi) = sharing.range_for(lo, hi, provider)?;
            expect.insert(provider, (root, total, slo, shi));
            let req = Request::VerifiedRange {
                table: table.to_string(),
                col: col_idx,
                lo: slo,
                hi: shi,
            };
            reqs.push((provider, req.encode()));
        }
        let proved = |_: usize, p: ProviderId, resp: &Response| {
            let (Response::ProvedRows { total_rows, proof }, Some(&(root, total, slo, shi))) =
                (resp, expect.get(&p))
            else {
                return Err(format!("unexpected {resp:?}"));
            };
            if *total_rows as usize != total {
                return Err("changed its table size under a commitment".into());
            }
            wire_to_range_proof(proof)
                .verify(&root, slo, shi, col_idx, total)
                .map_err(|e| format!("failed completeness verification: {e}"))
        };
        let k = self.keys.k();
        let retry = self.retry.clone();
        let answers = ask(&self.cluster, vec![reqs], k, 0, FirstK, retry, &proved);
        self.last_faulty.clone_from(&answers.rejected);
        let verified = answers
            .one()
            .map_err(short_of(k, "providers passed verification"))?;
        let rows = verified
            .into_iter()
            .filter_map(|(p, resp)| match resp {
                Response::ProvedRows { proof, .. } => Some((p, proof.rows.iter().collect())),
                _ => None,
            })
            .collect();
        self.reconstruct_rows(&plan, rows, false)
    }
}

fn wire_to_range_proof(p: &WireRangeProof) -> RangeProof {
    let conv = |wp: &WireMerkleProof| MerkleProof {
        index: wp.index as usize,
        siblings: wp.siblings.clone(),
    };
    let row = |r: &Row| CommittedRow {
        id: r.id,
        shares: r.shares.clone(),
    };
    RangeProof {
        start: p.start as usize,
        rows: p.rows.iter().map(row).collect(),
        proofs: p.proofs.iter().map(conv).collect(),
        left_boundary: p.left_boundary.as_ref().map(|(r, wp)| (row(r), conv(wp))),
        right_boundary: p.right_boundary.as_ref().map(|(r, wp)| (row(r), conv(wp))),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggKind {
    Count,
    Sum,
    Min,
    Max,
    Median,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnSpec;
    use dasp_server::service::provider_fleet;
    use std::time::Duration;

    const SALARY_MAX: u64 = (1 << 20) - 1;

    /// A k = 2, n = 3 source holding one text and one order-preserving
    /// column, with its plan.
    fn source() -> (DataSource, Arc<ColumnPlan>) {
        let keys = ClientKeys::generate(2, 3, &mut StdRng::seed_from_u64(5)).unwrap();
        let cluster = Cluster::spawn_concurrent(provider_fleet(3), Duration::from_millis(500), 1);
        let mut ds = DataSource::with_seed(keys, cluster, 5).unwrap();
        let columns = vec![
            ColumnSpec::text("name", 8, ShareMode::Deterministic),
            ColumnSpec::numeric("salary", SALARY_MAX + 1, ShareMode::OrderPreserving),
        ];
        ds.create_table(TableSchema::new("emp", columns).unwrap())
            .unwrap();
        let plan = ds.plan("emp").unwrap();
        (ds, plan)
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::from("ANA"), Value::Int(0)],
            vec![Value::from("ZOE"), Value::Int(777)],
            vec![Value::from(""), Value::Int(SALARY_MAX)],
        ]
    }

    /// The answers of `order` (response order) for [`rows`] under ids
    /// 1, 2, 3, after `tamper(provider, row, shares)` has edited them.
    fn answers(
        ds: &DataSource,
        plan: &ColumnPlan,
        order: &[ProviderId],
        tamper: impl Fn(ProviderId, usize, &mut [i128]),
    ) -> Vec<(ProviderId, RowBlock)> {
        let encoded = encode_chunk(ds.keys.field(), plan, &rows(), &[1, 2, 3]).unwrap();
        order
            .iter()
            .map(|&p| {
                let held: Vec<(u64, Vec<i128>)> = (1..)
                    .zip(&encoded)
                    .map(|(id, row)| {
                        let mut shares = row[p].clone();
                        tamper(p, id as usize - 1, &mut shares);
                        (id, shares)
                    })
                    .collect();
                (p, held.iter().map(|(id, s)| (*id, s.as_slice())).collect())
            })
            .collect()
    }

    #[test]
    fn perturbed_second_slot_op_share_decodes_through_the_fallback() {
        let (mut ds, plan) = source();
        // Provider 0 answers second. Moving its salary share of row 2 by
        // x₀ − x₂ moves the interpolated value by exactly −x₂: a whole,
        // in-domain, wrong candidate that only the confirmation against
        // provider 2's share rejects, so the search on that share runs.
        let ShareCodec::OrderPreserving(sharing) = &plan.columns[1].share else {
            panic!("salary is order-preserving");
        };
        let x = |p| i128::from(sharing.params().point(p).unwrap());
        let delta = x(0) - x(2);
        let tamper = |p, r, shares: &mut [i128]| {
            if (p, r) == (0, 1) {
                shares[1] += delta;
            }
        };
        let zipped = Zipped::new(answers(&ds, &plan, &[2, 0, 1], tamper), 2);
        let codes = ds.decode_rows_batched(&plan, &zipped).unwrap();
        let salaries: Vec<u64> = codes.iter().map(|row| row[1]).collect();
        assert_eq!(salaries, [0, 777, SALARY_MAX]);
    }

    #[test]
    fn perturbed_first_slot_op_share_is_the_search_error() {
        let (mut ds, plan) = source();
        let tamper = |p, r, shares: &mut [i128]| {
            if (p, r) == (2, 1) {
                shares[1] += 1;
            }
        };
        let zipped = Zipped::new(answers(&ds, &plan, &[2, 0, 1], tamper), 2);
        // The search on the confirming share finds nothing ...
        let ShareCodec::OrderPreserving(sharing) = &plan.columns[1].share else {
            panic!("salary is order-preserving");
        };
        let first = zipped.share(1, 0, 1).unwrap();
        assert_eq!(sharing.reconstruct_search(2, first).unwrap(), None);
        // ... and the batch decode reports exactly that.
        assert_eq!(
            ds.decode_rows_batched(&plan, &zipped),
            Err(ClientError::Reconstruction(
                "share is not on the expected polynomial".into()
            ))
        );
    }

    #[test]
    fn text_column_round_trips_through_the_plan() {
        let (mut ds, plan) = source();
        let want: Vec<DecodedRow> = (1..).zip(rows()).collect();
        let batched = answers(&ds, &plan, &[1, 0], |_, _, _| {});
        assert_eq!(ds.reconstruct_rows(&plan, batched, false).unwrap(), want);
        let verified = answers(&ds, &plan, &[0, 1, 2], |_, _, _| {});
        assert_eq!(ds.reconstruct_rows(&plan, verified, true).unwrap(), want);
        assert!(ds.last_faulty.is_empty());
    }
}
