use super::*;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

impl Wal {
    /// The on-disk frame `append` queues, built apart from it so the
    /// torn-tail tests do not depend on the code they check.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }
}

/// Records a reader sees in the file right now, without opening (and so
/// without truncating or flushing) the log.
fn records_on_disk(path: &Path) -> Vec<Vec<u8>> {
    let bytes = std::fs::read(path).unwrap();
    Wal::parse_records(&bytes[WAL_HEADER_LEN as usize..]).0
}

/// The crash hook is process-global and one-shot: a test that arms it
/// holds the gate exclusively, and every test whose `append`/`commit`
/// could consume a hook armed by another holds it shared.
static HOOK_GATE: RwLock<()> = RwLock::new(());

fn hooks_unarmed() -> RwLockReadGuard<'static, ()> {
    HOOK_GATE.read().unwrap_or_else(|e| e.into_inner())
}

fn hooks_mine() -> RwLockWriteGuard<'static, ()> {
    HOOK_GATE.write().unwrap_or_else(|e| e.into_inner())
}

fn temp_wal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dasp-wal-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("wal.log")
}

#[test]
fn crc32_known_vector() {
    // IEEE CRC32 of "123456789".
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn append_commit_reopen_roundtrip() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("roundtrip");
    let _ = std::fs::remove_file(&path);
    {
        let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
        assert!(rec.records.is_empty());
        for i in 0..10u32 {
            rec.wal.append_durable(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(rec.wal.stats().records, 10);
        assert!(rec.wal.stats().fsyncs >= 1);
    }
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    assert_eq!(rec.records.len(), 10);
    assert_eq!(rec.torn_bytes, 0);
    assert!(!rec.reset);
    for (i, r) in rec.records.iter().enumerate() {
        assert_eq!(r.as_slice(), (i as u32).to_le_bytes());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn group_commit_coalesces_fsyncs() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("group");
    let _ = std::fs::remove_file(&path);
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    let wal = Arc::new(rec.wal);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let wal = Arc::clone(&wal);
            s.spawn(move || {
                for i in 0..8u64 {
                    wal.append_durable(&(t * 100 + i).to_le_bytes()).unwrap();
                }
            });
        }
    });
    let stats = wal.stats();
    assert_eq!(stats.records, 64);
    assert!(
        stats.fsyncs < 64,
        "64 concurrent commits used {} fsyncs; group commit must coalesce",
        stats.fsyncs
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_tail_is_truncated_on_open() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("torn");
    let _ = std::fs::remove_file(&path);
    {
        let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
        rec.wal.append_durable(b"keep-me").unwrap();
    }
    // Simulate a crash mid-append: half a frame at the tail.
    let frame = Wal::frame(b"torn-away");
    {
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
    }
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    assert_eq!(rec.records.len(), 1);
    assert_eq!(rec.records[0], b"keep-me");
    assert!(rec.torn_bytes > 0);
    // The truncation is durable: reopening is clean.
    drop(rec);
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    assert_eq!((rec.records.len(), rec.torn_bytes), (1, 0));
    // Appending after recovery extends the intact prefix.
    rec.wal.append_durable(b"after").unwrap();
    drop(rec);
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    assert_eq!(rec.records, vec![b"keep-me".to_vec(), b"after".to_vec()]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_crc_truncates_from_corruption() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("crc");
    let _ = std::fs::remove_file(&path);
    {
        let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
        rec.wal.append_durable(b"one").unwrap();
        rec.wal.append_durable(b"two").unwrap();
    }
    // Flip a payload byte of the second record.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    assert_eq!(rec.records, vec![b"one".to_vec()]);
    assert!(rec.torn_bytes > 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn generation_mismatch_resets_log() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("gen");
    let _ = std::fs::remove_file(&path);
    {
        let rec = Wal::open(&path, 3, WalConfig::default()).unwrap();
        rec.wal.append_durable(b"old-epoch").unwrap();
    }
    let rec = Wal::open(&path, 4, WalConfig::default()).unwrap();
    assert!(rec.reset);
    assert!(rec.records.is_empty());
    assert_eq!(rec.wal.generation(), 4);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn switch_generation_retires_records() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("switch");
    let _ = std::fs::remove_file(&path);
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    rec.wal.append_durable(b"pre-checkpoint").unwrap();
    rec.wal.switch_generation(1).unwrap();
    rec.wal.append_durable(b"post-checkpoint").unwrap();
    drop(rec);
    let rec = Wal::open(&path, 1, WalConfig::default()).unwrap();
    assert!(!rec.reset);
    assert_eq!(rec.records, vec![b"post-checkpoint".to_vec()]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mid_record_hook_leaves_recoverable_torn_tail() {
    let _gate = hooks_mine();
    let path = temp_wal_path("hook");
    let _ = std::fs::remove_file(&path);
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    rec.wal.append_durable(b"committed").unwrap();
    arm_crash_point(CrashPoint::MidRecord);
    assert!(rec.wal.append(b"torn-by-hook").is_err());
    disarm_crash_points();
    // Everything after the simulated crash fails.
    assert!(rec.wal.append(b"nope").is_err());
    drop(rec);
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    assert_eq!(rec.records, vec![b"committed".to_vec()]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_payloads_and_large_payloads_roundtrip() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("sizes");
    let _ = std::fs::remove_file(&path);
    let big = vec![0xA5u8; 100_000];
    {
        let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
        rec.wal.append_durable(b"").unwrap();
        rec.wal.append_durable(&big).unwrap();
    }
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    assert_eq!(rec.records.len(), 2);
    assert!(rec.records[0].is_empty());
    assert_eq!(rec.records[1], big);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn one_commit_flushes_everything_queued() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("one-fsync");
    let _ = std::fs::remove_file(&path);
    let wal = Wal::open(&path, 0, WalConfig::default()).unwrap().wal;
    let lsns: Vec<Lsn> = (0..50u32)
        .map(|i| wal.append(&i.to_le_bytes()).unwrap())
        .collect();
    assert_eq!(wal.stats().fsyncs, 0, "append alone never touches the disk");
    assert!(records_on_disk(&path).is_empty());
    wal.commit(*lsns.last().unwrap()).unwrap();
    assert_eq!(wal.stats().fsyncs, 1);
    assert_eq!(records_on_disk(&path).len(), 50);
    for lsn in lsns {
        wal.commit(lsn).unwrap();
    }
    assert_eq!(wal.stats().fsyncs, 1, "already-durable LSNs cost nothing");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn commit_past_end_is_an_error_not_a_wait() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("past-end");
    let _ = std::fs::remove_file(&path);
    let wal = Wal::open(&path, 0, WalConfig::default()).unwrap().wal;
    let past_end = || {
        let end = wal.end_lsn();
        match wal.commit(end + 1) {
            Err(StorageError::LsnPastEnd { lsn, end: at }) => assert_eq!((lsn, at), (end + 1, end)),
            other => panic!("commit past end returned {other:?}"),
        }
    };
    past_end();
    let before_switch = wal.append_durable(b"pre").unwrap();
    past_end();
    let dropped = wal
        .append(b"queued, then superseded by the checkpoint")
        .unwrap();
    wal.switch_generation(1).unwrap();
    past_end();
    // LSNs keep counting across the switch: one handed out before it is
    // covered by the checkpoint, never mistaken for a new-epoch offset.
    wal.commit(before_switch).unwrap();
    wal.commit(dropped).unwrap();
    assert_eq!(
        wal.stats(),
        WalStats {
            fsyncs: 1,
            ..WalStats::default()
        }
    );
    let after_switch = wal.append_durable(b"post").unwrap();
    assert!(after_switch > dropped);
    assert_eq!(wal.stats().durable_bytes, 8 + 4);
    past_end();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ack_means_on_disk_under_concurrent_committers() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("ack-on-disk");
    let _ = std::fs::remove_file(&path);
    let wal = Wal::open(&path, 0, WalConfig::default()).unwrap().wal;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (wal, path) = (&wal, &path);
            s.spawn(move || {
                for i in 0..200u64 {
                    let record = (t * 1000 + i).to_le_bytes();
                    wal.append_durable(&record).unwrap();
                    assert!(
                        records_on_disk(path).iter().any(|r| r == &record),
                        "record {t}/{i} acknowledged before it reached the file"
                    );
                }
            });
        }
    });
    let stats = wal.stats();
    assert_eq!((stats.records, stats.durable_bytes), (800, 800 * 16));
    assert!((1..=800).contains(&stats.fsyncs), "{} fsyncs", stats.fsyncs);
    drop(wal);
    assert_eq!(
        Wal::open(&path, 0, WalConfig::default())
            .unwrap()
            .records
            .len(),
        800
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn drop_flushes_uncommitted_appends() {
    let _gate = hooks_unarmed();
    let path = temp_wal_path("drop-flush");
    let _ = std::fs::remove_file(&path);
    let wal = Wal::open(&path, 0, WalConfig::default()).unwrap().wal;
    wal.append_durable(b"committed").unwrap();
    wal.append(b"never committed").unwrap();
    assert_eq!(records_on_disk(&path).len(), 1);
    drop(wal);
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    assert_eq!(
        rec.records,
        vec![b"committed".to_vec(), b"never committed".to_vec()]
    );
    assert_eq!(rec.torn_bytes, 0);
    let _ = std::fs::remove_file(&path);
}

/// A follower parked behind a leader must come back with the error that
/// poisons the log, whichever hook raises it. The leader is held at the
/// file lock so the follower's record misses its batch; the follower is
/// released only by the leader's (or the tearing append's) `notify_all`.
fn follower_gets_the_poisoning_error(tag: &str, point: CrashPoint, expect: &str) {
    let _gate = hooks_mine();
    let path = temp_wal_path(tag);
    let _ = std::fs::remove_file(&path);
    let wal = Wal::open(&path, 0, WalConfig::default()).unwrap().wal;
    let (appended_tx, appended_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let stall = wal.file.lock().unwrap();
        let leader = s.spawn(|| wal.append_durable(b"leader"));
        while !wal.state.lock().unwrap().flushing {
            std::thread::yield_now();
        }
        let follower = s.spawn(|| {
            let lsn = wal.append(b"follower").unwrap();
            appended_tx.send(()).unwrap();
            wal.commit(lsn)
        });
        appended_rx.recv().unwrap();
        arm_crash_point(point);
        if point == CrashPoint::MidRecord {
            assert!(wal.append(b"torn").is_err());
        }
        drop(stall);
        let led = leader.join().unwrap();
        match point {
            // The leader's batch predates the failure and is on disk.
            CrashPoint::MidRecord | CrashPoint::AfterFsync => assert!(led.is_ok(), "{led:?}"),
            _ => assert!(led.is_err()),
        }
        match follower.join().unwrap() {
            Err(StorageError::Corrupt(what)) => assert_eq!(what, expect),
            other => panic!("follower returned {other:?}"),
        }
    });
    disarm_crash_points();
    assert!(wal.append(b"after").is_err(), "the log stays poisoned");
    drop(wal);
    // Nothing queued after the leader took its batch reached the file.
    let rec = Wal::open(&path, 0, WalConfig::default()).unwrap();
    assert_eq!(rec.records, vec![b"leader".to_vec()]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn follower_fails_when_leader_crashes_before_fsync() {
    follower_gets_the_poisoning_error("follow-before", CrashPoint::BeforeFsync, "wal flush failed");
}

#[test]
fn follower_fails_when_leader_crashes_after_fsync() {
    follower_gets_the_poisoning_error(
        "follow-after",
        CrashPoint::AfterFsync,
        "wal crashed after fsync",
    );
}

#[test]
fn follower_fails_when_an_append_tears_mid_record() {
    follower_gets_the_poisoning_error(
        "follow-mid",
        CrashPoint::MidRecord,
        "wal crashed mid-record",
    );
}
