//! Durable journal for the §V-C lazy-update reshare queue.
//!
//! Lazy mode buffers re-shares client-side: updates overlay query results
//! until [`crate::DataSource::flush`] pushes them to the providers. That
//! buffer used to live only in memory, so a client crash silently lost
//! every queued re-share. The journal write-ahead-logs each queue
//! mutation — enqueue, cancel, flush — into a [`dasp_storage::Wal`] with
//! per-record fsync, and replays the intact prefix on open, so a
//! restarted client resumes with exactly the queue it had acknowledged.
//!
//! The log compacts by truncation whenever the whole queue drains: the
//! journal's contract is "replay reproduces the queue", and an empty
//! queue needs no records.

use crate::schema::Value;
use crate::{ClientError, Result};
use dasp_net::{WireReader, WireWriter};
use dasp_storage::{Wal, WalConfig};
use std::collections::HashMap;
use std::path::Path;

/// Queue contents recovered from a journal: table → row id → values.
pub type RecoveredQueue = HashMap<String, HashMap<u64, Vec<Value>>>;

const TAG_PENDING: u8 = 0;
const TAG_CANCEL: u8 = 1;
const TAG_FLUSHED: u8 = 2;

const VALUE_INT: u8 = 0;
const VALUE_STR: u8 = 1;

fn journal_err(context: &str, e: impl std::fmt::Display) -> ClientError {
    ClientError::Journal(format!("{context}: {e}"))
}

fn write_value(w: &mut WireWriter, v: &Value) {
    match v {
        Value::Int(n) => {
            w.u8(VALUE_INT).u64(*n);
        }
        Value::Str(s) => {
            w.u8(VALUE_STR).string(s);
        }
    }
}

fn read_value(r: &mut WireReader) -> Result<Value> {
    let tag = r.u8().map_err(|e| journal_err("value tag", e))?;
    match tag {
        VALUE_INT => Ok(Value::Int(
            r.u64().map_err(|e| journal_err("int value", e))?,
        )),
        VALUE_STR => Ok(Value::Str(
            r.string().map_err(|e| journal_err("str value", e))?,
        )),
        other => Err(ClientError::Journal(format!("unknown value tag {other}"))),
    }
}

/// The client-side write-ahead log of the lazy-update queue.
pub struct LazyJournal {
    wal: Wal,
}

impl LazyJournal {
    /// Open (or create) the journal at `path` and replay it into the
    /// queue it represents. A torn tail from a crashed append is
    /// truncated by the WAL layer; every intact record replays.
    pub fn open(path: &Path) -> Result<(Self, RecoveredQueue)> {
        // The client journal always runs generation 0: compaction
        // truncates in place instead of switching generations, so an
        // open can never mistake live records for superseded ones.
        let rec =
            Wal::open(path, 0, WalConfig::default()).map_err(|e| journal_err("journal open", e))?;
        let mut queue = RecoveredQueue::new();
        for record in &rec.records {
            Self::replay(&mut queue, record)?;
        }
        let journal = LazyJournal { wal: rec.wal };
        // Everything cancelled/flushed again? Start from a clean file.
        if queue.values().all(HashMap::is_empty) {
            queue.clear();
            journal.compact()?;
        }
        Ok((journal, queue))
    }

    fn replay(queue: &mut RecoveredQueue, record: &[u8]) -> Result<()> {
        let mut r = WireReader::new(record);
        let tag = r.u8().map_err(|e| journal_err("record tag", e))?;
        match tag {
            TAG_PENDING => {
                let table = r.string().map_err(|e| journal_err("table name", e))?;
                let count = r.u64().map_err(|e| journal_err("row count", e))? as usize;
                let slot = queue.entry(table).or_default();
                for _ in 0..count {
                    let id = r.u64().map_err(|e| journal_err("row id", e))?;
                    let arity = r.u64().map_err(|e| journal_err("arity", e))? as usize;
                    let mut values = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        values.push(read_value(&mut r)?);
                    }
                    slot.insert(id, values);
                }
            }
            TAG_CANCEL => {
                let table = r.string().map_err(|e| journal_err("table name", e))?;
                let count = r.u64().map_err(|e| journal_err("id count", e))? as usize;
                let slot = queue.entry(table).or_default();
                for _ in 0..count {
                    let id = r.u64().map_err(|e| journal_err("row id", e))?;
                    slot.remove(&id);
                }
            }
            TAG_FLUSHED => {
                let table = r.string().map_err(|e| journal_err("table name", e))?;
                queue.remove(&table);
            }
            other => return Err(ClientError::Journal(format!("unknown record tag {other}"))),
        }
        Ok(())
    }

    fn append(&self, record: &[u8]) -> Result<()> {
        self.wal
            .append_durable(record)
            .map(|_| ())
            .map_err(|e| journal_err("journal append", e))
    }

    /// Record a batch of enqueued lazy updates.
    pub fn log_pending(&self, table: &str, rows: &[(u64, Vec<Value>)]) -> Result<()> {
        let mut w = WireWriter::new();
        w.u8(TAG_PENDING).string(table).u64(rows.len() as u64);
        for (id, values) in rows {
            w.u64(*id).u64(values.len() as u64);
            for v in values {
                write_value(&mut w, v);
            }
        }
        self.append(&w.finish())
    }

    /// Record that queued updates for `ids` were superseded (deleted
    /// rows carry no re-share).
    pub fn log_cancel(&self, table: &str, ids: &[u64]) -> Result<()> {
        let mut w = WireWriter::new();
        w.u8(TAG_CANCEL).string(table).u64(ids.len() as u64);
        for id in ids {
            w.u64(*id);
        }
        self.append(&w.finish())
    }

    /// Record that `table`'s whole queue reached the providers.
    pub fn log_flushed(&self, table: &str) -> Result<()> {
        let mut w = WireWriter::new();
        w.u8(TAG_FLUSHED).string(table);
        self.append(&w.finish())
    }

    /// Truncate the journal. Only sound when the in-memory queue is
    /// empty — replaying an empty file must reproduce the queue.
    pub fn compact(&self) -> Result<()> {
        self.wal
            .switch_generation(0)
            .map_err(|e| journal_err("journal compact", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn journal_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dasp-journal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("lazy.journal")
    }

    fn values(n: u64) -> Vec<Value> {
        vec![Value::Int(n), Value::Str("AB".into())]
    }

    #[test]
    fn queue_survives_reopen() {
        let path = journal_path("reopen");
        {
            let (j, recovered) = LazyJournal::open(&path).unwrap();
            assert!(recovered.is_empty());
            j.log_pending("t", &[(1, values(10)), (2, values(20))])
                .unwrap();
            j.log_pending("u", &[(7, values(70))]).unwrap();
            j.log_cancel("t", &[2]).unwrap();
        }
        let (_j, recovered) = LazyJournal::open(&path).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered["t"].len(), 1);
        assert_eq!(recovered["t"][&1], values(10));
        assert_eq!(recovered["u"][&7], values(70));
    }

    #[test]
    fn flush_empties_table_and_drained_journal_compacts() {
        let path = journal_path("flush");
        {
            let (j, _) = LazyJournal::open(&path).unwrap();
            j.log_pending("t", &[(1, values(1))]).unwrap();
            j.log_flushed("t").unwrap();
        }
        let (_j, recovered) = LazyJournal::open(&path).unwrap();
        assert!(recovered.is_empty());
        // The drained journal was truncated back to a bare header.
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, 16, "journal not compacted: {len} bytes");
    }

    #[test]
    fn torn_tail_recovers_committed_prefix() {
        let path = journal_path("torn");
        {
            let (j, _) = LazyJournal::open(&path).unwrap();
            j.log_pending("t", &[(1, values(1))]).unwrap();
            j.log_pending("t", &[(2, values(2))]).unwrap();
        }
        // Tear the final record mid-frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);
        let (_j, recovered) = LazyJournal::open(&path).unwrap();
        assert_eq!(recovered["t"].len(), 1);
        assert_eq!(recovered["t"][&1], values(1));
    }
}
