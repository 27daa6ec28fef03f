//! Durable write-ahead log with leader/follower group commit.
//!
//! The log stores opaque payloads (the provider engine logs encoded
//! requests; the client's lazy-update journal logs buffered assignments)
//! in length + CRC32-framed records behind a generation-stamped header.
//!
//! **Who flushes.** [`Wal::append`] only queues the framed record in
//! memory. The first [`Wal::commit`] that finds its [`Lsn`] not yet
//! durable and no flush in flight becomes the *leader*: it takes
//! everything queued, releases the state lock, does one write + one
//! fsync itself, then publishes the new durable LSN and wakes everyone.
//! A committer that finds a flush in flight is a *follower*: it waits,
//! re-checks, and if its record missed that batch it leads the next
//! one, which by then carries every record queued during the previous
//! fsync. Batching therefore comes from the disk's own latency: a lone
//! writer pays exactly one write + fsync and `c` concurrent writers
//! share one, with no flusher thread, no timer and nothing to tune.
//!
//! **The contract.** `commit(lsn)` returns `Ok` only after a
//! `sync_data` that covered `lsn` has returned. A failed flush poisons
//! the log: every waiting and every later `append`/`commit` gets the
//! error, and nothing queued after a simulated tear reaches the file.
//! `append` alone promises nothing: the record stays in memory until
//! the next `commit` (anyone's) or until the [`Wal`] is dropped, which
//! flushes what is queued unless the log is poisoned. There is no
//! background flush.
//!
//! Recovery ([`Wal::open`]) scans the file, returns every complete
//! record, and truncates a torn tail (a crash mid-write leaves a partial
//! frame; anything after the last intact frame is discarded). A header
//! generation different from the caller's expectation means the log
//! belongs to a superseded checkpoint epoch and is reset instead of
//! replayed — that is what makes "rename checkpoint meta, then retire
//! the log" crash-safe without a second atomic step.
//!
//! Crash points ([`CrashPoint`]) instrument the commit and checkpoint
//! paths: set `DASP_CRASH_POINT` (optionally `DASP_CRASH_AFTER=n`) to
//! abort the process at the n-th hit — the kill-and-recover stress runs
//! on this — or arm an in-process hook from tests to simulate the same
//! torn states without losing the test harness.

use crate::{Result, StorageError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Log sequence number: the count of framed bytes appended up to and
/// including a record. It starts at the recovered length and keeps
/// counting across [`Wal::switch_generation`], so an LSN handed out
/// before a checkpoint still reads as durable after it. A record is
/// durable once the log's durable LSN reaches its own.
pub type Lsn = u64;

const WAL_MAGIC: [u8; 4] = *b"DWAL";
/// Version 2: records hold requests whose rows are packed row blocks.
const WAL_VERSION: u32 = 2;
/// magic + version + generation.
pub(crate) const WAL_HEADER_LEN: u64 = 16;
/// Sanity bound on a single record (a request batch is well below this).
const MAX_RECORD: u32 = 64 << 20;

// ---- CRC32 (IEEE 802.3, slice-by-16) ----

/// Slice-by-16 lookup tables: table 0 is the classic byte-at-a-time
/// table; table j folds a byte that sits j positions deeper in the
/// message, so sixteen bytes fold with sixteen independent loads per
/// step (16 KiB of tables — comfortably L1-resident).
static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            tables[j][i] = (tables[j - 1][i] >> 8) ^ tables[0][(tables[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// One slice-by-16 table lookup: fold byte `b & 0xFF` through table `j`.
/// `j` is a literal below 16 and the mask keeps the byte below 256, so
/// both lookups always hit and compile to plain loads.
#[inline(always)]
fn crc_tab(j: usize, b: u32) -> u32 {
    CRC_TABLES
        .get(j)
        .and_then(|table| table.get((b & 0xFF) as usize))
        .copied()
        .unwrap_or(0)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`, as used by the
/// WAL frames, the checkpoint file and the RPC frame layer. Slice-by-16:
/// every RPC payload, logged request and checkpointed row passes
/// through it.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let (blocks, tail) = data.as_chunks::<16>();
    for &[c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15] in blocks {
        let a = u32::from_le_bytes([c0, c1, c2, c3]) ^ crc;
        let b = u32::from_le_bytes([c4, c5, c6, c7]);
        let d = u32::from_le_bytes([c8, c9, c10, c11]);
        let e = u32::from_le_bytes([c12, c13, c14, c15]);
        crc = crc_tab(15, a)
            ^ crc_tab(14, a >> 8)
            ^ crc_tab(13, a >> 16)
            ^ crc_tab(12, a >> 24)
            ^ crc_tab(11, b)
            ^ crc_tab(10, b >> 8)
            ^ crc_tab(9, b >> 16)
            ^ crc_tab(8, b >> 24)
            ^ crc_tab(7, d)
            ^ crc_tab(6, d >> 8)
            ^ crc_tab(5, d >> 16)
            ^ crc_tab(4, d >> 24)
            ^ crc_tab(3, e)
            ^ crc_tab(2, e >> 8)
            ^ crc_tab(1, e >> 16)
            ^ crc_tab(0, e >> 24);
    }
    for &b in tail {
        crc = (crc >> 8) ^ crc_tab(0, crc ^ b as u32);
    }
    !crc
}

// ---- crash points ----

/// Instrumented moments in the durability paths where a process can be
/// made to die, for crash-recovery testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// While a record frame is being appended: half the frame reaches
    /// the file (a torn tail), the rest never does.
    MidRecord,
    /// After record bytes reach the file but before fsync: complete
    /// frames may survive, but nothing was acknowledged.
    BeforeFsync,
    /// Immediately after fsync, before any acknowledgement is produced.
    AfterFsync,
    /// Mid-checkpoint: part of the new image is written, the metadata
    /// still points at the old one.
    MidCheckpoint,
    /// After the checkpoint metadata rename, before the old log is
    /// retired.
    BeforeWalSwitch,
}

impl CrashPoint {
    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "mid-record" => CrashPoint::MidRecord,
            "before-fsync" => CrashPoint::BeforeFsync,
            "after-fsync" => CrashPoint::AfterFsync,
            "mid-checkpoint" => CrashPoint::MidCheckpoint,
            "before-wal-switch" => CrashPoint::BeforeWalSwitch,
            _ => return None,
        })
    }
}

struct EnvCrash {
    point: CrashPoint,
    countdown: AtomicI64,
}

fn env_crash() -> &'static Option<EnvCrash> {
    static ENV: OnceLock<Option<EnvCrash>> = OnceLock::new();
    ENV.get_or_init(|| {
        let point = std::env::var("DASP_CRASH_POINT").ok()?;
        let point = CrashPoint::from_name(&point)?;
        let after = std::env::var("DASP_CRASH_AFTER")
            .ok()
            .and_then(|v| v.parse::<i64>().ok())
            .unwrap_or(1)
            .max(1);
        Some(EnvCrash {
            point,
            countdown: AtomicI64::new(after),
        })
    })
}

fn armed_hook() -> &'static Mutex<Option<CrashPoint>> {
    static HOOK: Mutex<Option<CrashPoint>> = Mutex::new(None);
    &HOOK
}

/// Arm an in-process crash hook: the next time `point` is reached the
/// operation fails (leaving the same on-disk state a real crash there
/// would) instead of aborting the process. One-shot; tests that use this
/// must serialize themselves (the hook is global).
pub fn arm_crash_point(point: CrashPoint) {
    if let Ok(mut hook) = armed_hook().lock() {
        *hook = Some(point);
    }
}

/// Disarm any armed in-process crash hook.
pub fn disarm_crash_points() {
    if let Ok(mut hook) = armed_hook().lock() {
        *hook = None;
    }
}

/// Report reaching a crash point. Aborts the process if the environment
/// (`DASP_CRASH_POINT`, `DASP_CRASH_AFTER`) selects this point; returns
/// `true` if an in-process hook is armed for it (the caller then
/// simulates the crash's on-disk effect and fails the operation).
pub fn crash_point_hit(point: CrashPoint) -> bool {
    if let Some(env) = env_crash() {
        if env.point == point && env.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            // A real kill: no destructors, no flushes — exactly the
            // state a power cut at this instant would leave.
            std::process::abort();
        }
    }
    if let Ok(mut hook) = armed_hook().lock() {
        if *hook == Some(point) {
            *hook = None;
            return true;
        }
    }
    false
}

// ---- configuration ----

/// Placeholder kept for [`Wal::open`]'s signature: group commit needs no
/// tuning (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalConfig {}

/// Counters for the E19 experiment and tests.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (this generation).
    pub records: u64,
    /// fsync calls issued by commit leaders.
    pub fsyncs: u64,
    /// Durable bytes past the header.
    pub durable_bytes: u64,
}

// ---- the log ----

struct WalState {
    /// Framed bytes appended since the last leader took its batch.
    queued: Vec<u8>,
    /// LSN of the last appended record (durable, in flight or queued).
    end_lsn: Lsn,
    durable_lsn: Lsn,
    /// LSN at which the current generation's file body starts.
    gen_start: Lsn,
    /// A leader has taken a batch and is writing it with `state` released.
    flushing: bool,
    records: u64,
    fsyncs: u64,
    /// First failure; everything after it errors out.
    error: Option<&'static str>,
    generation: u64,
}

/// What [`Wal::open`] found on disk.
pub struct WalRecovery {
    /// The opened log, positioned after the last intact record.
    pub wal: Wal,
    /// Every complete record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of torn tail truncated away.
    pub torn_bytes: u64,
    /// The log carried a different generation and was reset (its records
    /// belong to a superseded checkpoint and are not returned).
    pub reset: bool,
}

/// A durable append-only record log with group commit. See the module
/// docs for the protocol.
pub struct Wal {
    state: Mutex<WalState>,
    /// Wakes followers: a flush finished (durable LSN advanced / error).
    durable: Condvar,
    /// The log file. Locked only by the leader (after releasing `state`)
    /// and by `switch_generation` (while holding `state`, no leader in
    /// flight).
    file: Mutex<File>,
    path: PathBuf,
}

impl Wal {
    /// Open (or create) the log at `path` for checkpoint `generation`,
    /// replaying complete records and truncating any torn tail. A log
    /// stamped with a different generation is reset to an empty log of
    /// the requested generation.
    pub fn open(path: &Path, generation: u64, _config: WalConfig) -> Result<WalRecovery> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let mut reset = false;
        let mut records = Vec::new();
        let mut torn_bytes = 0u64;
        let mut end = 0u64;
        if len < WAL_HEADER_LEN {
            reset = len > 0;
            Self::write_header(&mut file, generation)?;
        } else {
            let mut header = [0u8; WAL_HEADER_LEN as usize];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut header)?;
            let [m0, m1, m2, m3, v0, v1, v2, v3, file_gen @ ..] = header;
            let magic_ok = [m0, m1, m2, m3] == WAL_MAGIC;
            if magic_ok && u32::from_le_bytes([v0, v1, v2, v3]) != WAL_VERSION {
                // Another release's log. Its records are acknowledged
                // writes in a layout this one would misread, so neither
                // replaying nor resetting it is safe.
                return Err(StorageError::Corrupt("unknown wal version"));
            }
            let file_gen = u64::from_le_bytes(file_gen);
            if !magic_ok || file_gen != generation {
                reset = true;
                Self::write_header(&mut file, generation)?;
            } else {
                let mut body = Vec::with_capacity((len - WAL_HEADER_LEN) as usize);
                file.read_to_end(&mut body)?;
                let (parsed, good_end) = Self::parse_records(&body);
                records = parsed;
                torn_bytes = body.len() as u64 - good_end;
                if torn_bytes > 0 {
                    file.set_len(WAL_HEADER_LEN + good_end)?;
                    file.sync_data()?;
                }
                end = good_end;
            }
        }
        file.seek(SeekFrom::End(0))?;
        Ok(WalRecovery {
            wal: Wal {
                state: Mutex::new(WalState {
                    queued: Vec::new(),
                    end_lsn: end,
                    durable_lsn: end,
                    gen_start: 0,
                    flushing: false,
                    records: records.len() as u64,
                    fsyncs: 0,
                    error: None,
                    generation,
                }),
                durable: Condvar::new(),
                file: Mutex::new(file),
                path: path.to_path_buf(),
            },
            records,
            torn_bytes,
            reset,
        })
    }

    fn write_header(file: &mut File, generation: u64) -> Result<()> {
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&generation.to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(())
    }

    /// Parse complete `[len][crc][payload]` frames; returns the records
    /// and the offset of the first byte that is not part of an intact
    /// frame (the torn-tail boundary).
    fn parse_records(body: &[u8]) -> (Vec<Vec<u8>>, u64) {
        let mut records = Vec::new();
        let mut at = 0usize;
        while let Some(header) = body.get(at..at + 8) {
            // dasp::allow(P3): `header` is an 8-byte slice by construction
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
            let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if len > MAX_RECORD {
                break;
            }
            let Some(payload) = body.get(at + 8..at + 8 + len as usize) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            records.push(payload.to_vec());
            at += 8 + len as usize;
        }
        (records, at as u64)
    }

    /// Park until the flush in flight publishes its outcome.
    fn wait_flush<'a>(
        &'a self,
        state: MutexGuard<'a, WalState>,
    ) -> Result<MutexGuard<'a, WalState>> {
        self.durable
            .wait(state)
            .map_err(|_| StorageError::Corrupt("wal state poisoned"))
    }

    /// Queue one record, returning the [`Lsn`] to pass to
    /// [`Wal::commit`]. The record is *not* durable yet, and nothing
    /// writes it until some `commit` (or `Drop`) flushes the queue.
    pub fn append(&self, payload: &[u8]) -> Result<Lsn> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= MAX_RECORD)
            .ok_or(StorageError::RecordTooLarge(payload.len()))?;
        let crc = crc32(payload);
        let frame_len = payload.len() + 8;
        let mut state = self
            .state
            .lock()
            .map_err(|_| StorageError::Corrupt("wal state poisoned"))?;
        if let Some(err) = state.error {
            return Err(StorageError::Corrupt(err));
        }
        let start = state.queued.len();
        state.queued.reserve(frame_len);
        state.queued.extend_from_slice(&len.to_le_bytes());
        state.queued.extend_from_slice(&crc.to_le_bytes());
        state.queued.extend_from_slice(payload);
        if crash_point_hit(CrashPoint::MidRecord) {
            // Simulate a crash halfway through the frame: only the first
            // half stays queued (after everything already queued, as the
            // real write order would have it), and the log is poisoned
            // before the half can ever count as a record.
            state.queued.truncate(start + frame_len / 2);
            state.error = Some("wal crashed mid-record");
            self.durable.notify_all();
            return Err(StorageError::Corrupt("wal crashed mid-record"));
        }
        state.end_lsn += frame_len as u64;
        state.records += 1;
        Ok(state.end_lsn)
    }

    /// Block until everything up to `lsn` is durable, flushing the queue
    /// as leader if nobody else is (see the module docs). An `lsn` that
    /// was never handed out by [`Wal::append`] is an error, not a wait.
    pub fn commit(&self, lsn: Lsn) -> Result<()> {
        let mut state = self
            .state
            .lock()
            .map_err(|_| StorageError::Corrupt("wal state poisoned"))?;
        loop {
            if state.durable_lsn >= lsn {
                return Ok(());
            }
            if let Some(err) = state.error {
                return Err(StorageError::Corrupt(err));
            }
            if lsn > state.end_lsn {
                return Err(StorageError::LsnPastEnd {
                    lsn,
                    end: state.end_lsn,
                });
            }
            state = if state.flushing {
                self.wait_flush(state)?
            } else {
                self.lead_flush(state)?
            };
        }
    }

    /// Lead one flush: take everything queued, write + fsync it with
    /// `state` released so appenders keep queueing, then publish the
    /// outcome and wake the followers.
    fn lead_flush<'a>(
        &'a self,
        mut state: MutexGuard<'a, WalState>,
    ) -> Result<MutexGuard<'a, WalState>> {
        let batch = std::mem::take(&mut state.queued);
        let batch_end = state.end_lsn;
        state.flushing = true;
        drop(state);
        let io = self.write_batch(&batch);
        let mut state = self
            .state
            .lock()
            .map_err(|_| StorageError::Corrupt("wal state poisoned"))?;
        state.flushing = false;
        match io {
            Ok(crashed_after_fsync) => {
                state.durable_lsn = batch_end;
                state.fsyncs += 1;
                if crashed_after_fsync {
                    state.error = Some("wal crashed after fsync");
                }
            }
            Err(_) => state.error = Some("wal flush failed"),
        }
        self.durable.notify_all();
        Ok(state)
    }

    /// One write + one fsync for a whole batch. `Ok(true)`: the bytes are
    /// durable but the `AfterFsync` hook fired.
    fn write_batch(&self, batch: &[u8]) -> std::io::Result<bool> {
        let mut file = self
            .file
            .lock()
            .map_err(|_| std::io::Error::other("wal file poisoned"))?;
        file.write_all(batch)?;
        if crash_point_hit(CrashPoint::BeforeFsync) {
            // Bytes are in the file, durability was never promised: fail
            // without syncing.
            return Err(std::io::Error::other("crash before fsync"));
        }
        file.sync_data()?;
        Ok(crash_point_hit(CrashPoint::AfterFsync))
    }

    /// Append + commit in one call (fsync-per-record semantics for this
    /// record, still sharing the fsync with concurrent appenders).
    pub fn append_durable(&self, payload: &[u8]) -> Result<Lsn> {
        let lsn = self.append(payload)?;
        self.commit(lsn)?;
        Ok(lsn)
    }

    /// The current logical end of the log (including queued records).
    pub fn end_lsn(&self) -> Lsn {
        self.state.lock().map(|s| s.end_lsn).unwrap_or(0)
    }

    /// The log's checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.state.lock().map(|s| s.generation).unwrap_or(0)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> WalStats {
        self.state
            .lock()
            .map(|s| WalStats {
                records: s.records,
                fsyncs: s.fsyncs,
                durable_bytes: s.durable_lsn - s.gen_start,
            })
            .unwrap_or_default()
    }

    /// Retire every record and restamp the log as `generation`: the
    /// checkpoint that superseded the records has been made durable.
    /// Waits out an in-flight flush first. Queued-but-unflushed records
    /// are dropped and count as durable (they are part of the checkpoint
    /// image by construction — the caller quiesced writers), so a
    /// `commit` of any LSN handed out before the switch returns `Ok`.
    pub fn switch_generation(&self, generation: u64) -> Result<()> {
        let mut state = self
            .state
            .lock()
            .map_err(|_| StorageError::Corrupt("wal state poisoned"))?;
        while state.flushing {
            state = self.wait_flush(state)?;
        }
        if let Some(err) = state.error {
            return Err(StorageError::Corrupt(err));
        }
        {
            let mut file = self
                .file
                .lock()
                .map_err(|_| StorageError::Corrupt("wal file poisoned"))?;
            Self::write_header(&mut file, generation)?;
            file.seek(SeekFrom::End(0))?;
        }
        state.queued.clear();
        state.gen_start = state.end_lsn;
        state.durable_lsn = state.end_lsn;
        state.records = 0;
        state.generation = generation;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Wal {
    /// Flush whatever was appended but never committed, unless the log
    /// is poisoned. Errors have nobody to go to: a caller that needs to
    /// know calls [`Wal::commit`] first.
    fn drop(&mut self) {
        if let Ok(state) = self.state.lock() {
            if state.error.is_none() && !state.queued.is_empty() {
                drop(self.lead_flush(state));
            }
        }
    }
}

// In `wal/tests/mod.rs`: dasp-lint skips `tests/` directories, not files.
#[cfg(test)]
mod tests;
