//! Per-provider durable storage.
//!
//! Each database service provider in the paper's deployment holds a
//! table of *shares* and must not lose them across a crash (§I, trust
//! issue 3). The provider answers every query from memory; this crate
//! supplies the two files that make that memory durable:
//!
//! * [`wal`] — the write-ahead log with leader/follower group commit:
//!   every write op is logged before it is acknowledged.
//! * [`recovery`] — the checkpoint file: the packed share rows of every
//!   table, written once front to back and swung in by rename, plus the
//!   typed errors recovery reports.

pub mod recovery;
pub mod wal;

pub use recovery::{CheckpointMeta, CheckpointReader, CheckpointWriter, RecoveryError, TableMeta};
pub use wal::{CrashPoint, Lsn, Wal, WalConfig, WalRecovery, WalStats};

/// Errors from the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record was too large to frame.
    RecordTooLarge(usize),
    /// The log is unreadable or poisoned by an earlier failure.
    Corrupt(&'static str),
    /// A WAL commit named an LSN past the end of the log: no such record
    /// was ever appended, so no flush could make it durable.
    LsnPastEnd {
        /// The LSN asked for.
        lsn: u64,
        /// The log's end at the time.
        end: u64,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::RecordTooLarge(n) => write!(f, "record of {n} bytes too large"),
            StorageError::Corrupt(what) => write!(f, "corrupt storage: {what}"),
            StorageError::LsnPastEnd { lsn, end } => {
                write!(f, "wal commit of lsn {lsn} past the end of the log ({end})")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StorageError>;
