//! Per-provider storage engine.
//!
//! Each database service provider in the paper's deployment stores a
//! table of *shares* and must answer exact-match and range scans over
//! them (§V-A). This crate supplies the storage substrate a real DAS
//! would run on:
//!
//! * [`page`] — 4 KiB slotted pages for variable-length records.
//! * [`pager`] — page allocation over a backend ([`pager::MemBackend`]
//!   for simulation speed, [`pager::FileBackend`] for durability).
//! * [`buffer`] — a clock-eviction buffer pool over the pager.
//! * [`btree`] — a B+tree with fixed 24-byte composite keys
//!   (big-endian share value ‖ row id) supporting ordered range scans —
//!   the index that makes order-preserving-share range queries cheap.
//! * [`heap`] — heap files of variable-length tuples addressed by
//!   [`RecordId`].
//!
//! Keys order shares correctly because [`btree::encode_i128`] maps
//! `i128` share values to big-endian byte strings with the sign bit
//! flipped, so byte order equals numeric order.

pub mod btree;
pub mod buffer;
pub mod heap;
pub mod page;
pub mod pager;
pub mod recovery;
pub mod wal;

pub use btree::BTree;
pub use buffer::BufferPool;
pub use heap::HeapFile;
pub use page::{Page, PAGE_SIZE};
pub use pager::{FileBackend, MemBackend, PageId, Pager};
pub use recovery::{CheckpointMeta, RecoveryError, TableMeta};
pub use wal::{CrashPoint, Lsn, Wal, WalConfig, WalRecovery, WalStats};

/// Address of a record inside a heap file: page number plus slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Pack into a u64 (for use as a B+tree value).
    pub fn to_u64(self) -> u64 {
        ((self.page as u64) << 16) | self.slot as u64
    }

    /// Unpack from a u64.
    pub fn from_u64(v: u64) -> Self {
        RecordId {
            page: (v >> 16) as u32,
            slot: (v & 0xffff) as u16,
        }
    }
}

/// Errors from the storage engine.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (file backend only).
    Io(std::io::Error),
    /// A page id was out of range.
    BadPage(PageId),
    /// A slot id was invalid or deleted.
    BadSlot(RecordId),
    /// A record was too large to ever fit in a page.
    RecordTooLarge(usize),
    /// Page payload corrupted (bad type tag or offsets).
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
            StorageError::BadPage(p) => write!(f, "bad page id {p}"),
            StorageError::BadSlot(r) => write!(f, "bad slot {r:?}"),
            StorageError::RecordTooLarge(n) => write!(f, "record of {n} bytes too large"),
            StorageError::Corrupt(what) => write!(f, "corrupt page: {what}"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_id_roundtrip() {
        for (page, slot) in [(0u32, 0u16), (1, 2), (0xabcdef, 0xffff), (u32::MAX, 7)] {
            let rid = RecordId { page, slot };
            assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
        }
    }

    #[test]
    fn record_id_ordering_is_page_major() {
        let a = RecordId { page: 1, slot: 9 };
        let b = RecordId { page: 2, slot: 0 };
        assert!(a < b);
        assert!(a.to_u64() < b.to_u64());
    }
}
