//! Crash-recovery support: typed recovery errors and the checkpoint
//! metadata that pairs a pager image with a WAL generation.
//!
//! A durable provider directory holds three files:
//!
//! * `data.db` — the pager file with the last checkpoint's heap image,
//! * `meta.bin` — this module's [`CheckpointMeta`]: which pages belong
//!   to which table, which commitments were published, and the WAL
//!   generation the image supersedes,
//! * `wal.log` — the write-ahead log of operations since the checkpoint.
//!
//! `meta.bin` is replaced atomically (tmp + fsync + rename + directory
//! fsync), so recovery always sees either the old or the new checkpoint,
//! never a blend. The generation stamp links the two: a WAL whose header
//! generation differs from `meta.bin`'s belongs to a superseded epoch and
//! is reset, not replayed — that is the invariant that makes the
//! checkpoint/log switch crash-safe without a multi-file transaction.
//!
//! All parsing here returns a typed [`RecoveryError`]; nothing panics on
//! corrupt input (torn-tail fuzzing in `tests/fault_injection.rs` holds
//! this line at every byte offset).

use crate::wal::crc32;
use crate::{PageId, StorageError};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Why recovery could not produce an engine.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem failure while reading the directory, metadata, or log.
    Io(std::io::Error),
    /// The storage layer rejected the checkpoint image.
    Storage(StorageError),
    /// `meta.bin` exists but does not parse (real disk corruption: the
    /// file is written atomically, so a torn write cannot produce this).
    CorruptMeta(&'static str),
    /// A WAL record survived its CRC but does not decode as an
    /// operation, or replaying it failed — the log and image disagree.
    Replay(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery io error: {e}"),
            RecoveryError::Storage(e) => write!(f, "recovery storage error: {e}"),
            RecoveryError::CorruptMeta(what) => write!(f, "corrupt checkpoint meta: {what}"),
            RecoveryError::Replay(what) => write!(f, "wal replay failed: {what}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

impl From<StorageError> for RecoveryError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Io(io) => RecoveryError::Io(io),
            other => RecoveryError::Storage(other),
        }
    }
}

/// One table's slice of the checkpoint image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Column names, in order.
    pub columns: Vec<String>,
    /// Which columns carry an index (rebuilt from the heap on recovery).
    pub indexed: Vec<bool>,
    /// Heap pages holding the table's rows, in heap-file order.
    pub pages: Vec<PageId>,
}

/// The durable checkpoint descriptor stored in `meta.bin`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// WAL generation this image supersedes; the live log must carry the
    /// same stamp to be replayed.
    pub generation: u64,
    /// Tables in the image.
    pub tables: Vec<TableMeta>,
    /// `(table, column)` pairs whose Merkle commitments were published
    /// at checkpoint time (rebuilt deterministically on recovery).
    pub committed: Vec<(String, u32)>,
}

const META_MAGIC: [u8; 4] = *b"DCKP";
/// Version 2: the image's heap records are packed row blocks.
const META_VERSION: u32 = 2;
/// Parse sanity bound: no real deployment has a billion tables.
const MAX_COUNT: u32 = 1 << 24;

/// Name of the metadata file inside a provider directory.
pub const META_FILE: &str = "meta.bin";
/// Name of the pager file inside a provider directory.
pub const DATA_FILE: &str = "data.db";
/// Name of the write-ahead log inside a provider directory.
pub const WAL_FILE: &str = "wal.log";

struct MetaReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> MetaReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoveryError> {
        let slice = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or(RecoveryError::CorruptMeta("truncated body"))?;
        self.at += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, RecoveryError> {
        let b = self.take(4)?;
        // dasp::allow(P3): take(4) yields exactly 4 bytes or errors
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, RecoveryError> {
        let b = self.take(8)?;
        // dasp::allow(P3): take(8) yields exactly 8 bytes or errors
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn count(&mut self) -> Result<u32, RecoveryError> {
        let n = self.u32()?;
        if n > MAX_COUNT {
            return Err(RecoveryError::CorruptMeta("implausible count"));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, RecoveryError> {
        let len = self.count()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| RecoveryError::CorruptMeta("non-utf8 string"))
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

impl CheckpointMeta {
    /// Serialize to the on-disk format: magic, version, body length,
    /// body CRC32, body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&self.generation.to_le_bytes());
        body.extend_from_slice(&(self.tables.len() as u32).to_le_bytes());
        for table in &self.tables {
            put_string(&mut body, &table.name);
            body.extend_from_slice(&(table.columns.len() as u32).to_le_bytes());
            for col in &table.columns {
                put_string(&mut body, col);
            }
            body.extend_from_slice(&(table.indexed.len() as u32).to_le_bytes());
            for &ix in &table.indexed {
                body.push(u8::from(ix));
            }
            body.extend_from_slice(&(table.pages.len() as u32).to_le_bytes());
            for &page in &table.pages {
                body.extend_from_slice(&page.to_le_bytes());
            }
        }
        body.extend_from_slice(&(self.committed.len() as u32).to_le_bytes());
        for (table, col) in &self.committed {
            put_string(&mut body, table);
            body.extend_from_slice(&col.to_le_bytes());
        }
        let mut out = Vec::with_capacity(body.len() + 16);
        out.extend_from_slice(&META_MAGIC);
        out.extend_from_slice(&META_VERSION.to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parse the on-disk format, verifying magic, length, and CRC.
    pub fn decode(bytes: &[u8]) -> Result<Self, RecoveryError> {
        let mut r = MetaReader { bytes, at: 0 };
        if r.take(4)? != META_MAGIC {
            return Err(RecoveryError::CorruptMeta("bad magic"));
        }
        if r.u32()? != META_VERSION {
            return Err(RecoveryError::CorruptMeta("unknown version"));
        }
        let body_len = r.u32()? as usize;
        let crc = r.u32()?;
        let body = r.take(body_len)?;
        if r.at != bytes.len() {
            return Err(RecoveryError::CorruptMeta("trailing bytes"));
        }
        if crc32(body) != crc {
            return Err(RecoveryError::CorruptMeta("crc mismatch"));
        }
        let mut r = MetaReader { bytes: body, at: 0 };
        let generation = r.u64()?;
        let ntables = r.count()?;
        let mut tables = Vec::with_capacity(ntables.min(1024) as usize);
        for _ in 0..ntables {
            let name = r.string()?;
            let ncols = r.count()?;
            let mut columns = Vec::with_capacity(ncols.min(1024) as usize);
            for _ in 0..ncols {
                columns.push(r.string()?);
            }
            let nindexed = r.count()?;
            let mut indexed = Vec::with_capacity(nindexed.min(1024) as usize);
            for _ in 0..nindexed {
                indexed.push(r.take(1)?[0] != 0);
            }
            let npages = r.count()?;
            let mut pages = Vec::with_capacity(npages.min(1024) as usize);
            for _ in 0..npages {
                pages.push(r.u32()?);
            }
            tables.push(TableMeta {
                name,
                columns,
                indexed,
                pages,
            });
        }
        let ncommitted = r.count()?;
        let mut committed = Vec::with_capacity(ncommitted.min(1024) as usize);
        for _ in 0..ncommitted {
            let table = r.string()?;
            let col = r.u32()?;
            committed.push((table, col));
        }
        if r.at != body.len() {
            return Err(RecoveryError::CorruptMeta("trailing body bytes"));
        }
        Ok(CheckpointMeta {
            generation,
            tables,
            committed,
        })
    }

    /// Atomically replace `meta.bin` in `dir`: write a temp file, fsync
    /// it, rename over the target, fsync the directory. A crash at any
    /// point leaves either the old or the new metadata intact.
    pub fn write_atomic(&self, dir: &Path) -> Result<(), RecoveryError> {
        let tmp = dir.join("meta.bin.tmp");
        let target = dir.join(META_FILE);
        {
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            file.write_all(&self.encode())?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &target)?;
        // Make the rename itself durable.
        File::open(dir)?.sync_all()?;
        Ok(())
    }

    /// Read `meta.bin` from `dir`; `None` if it does not exist (a fresh
    /// directory, generation 0, empty image).
    pub fn read(dir: &Path) -> Result<Option<Self>, RecoveryError> {
        let path = dir.join(META_FILE);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(RecoveryError::Io(e)),
        };
        Self::decode(&bytes).map(Some)
    }
}

/// Paths of the durable files inside a provider directory.
pub fn provider_paths(dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
    (dir.join(DATA_FILE), dir.join(META_FILE), dir.join(WAL_FILE))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointMeta {
        CheckpointMeta {
            generation: 7,
            tables: vec![
                TableMeta {
                    name: "accounts".into(),
                    columns: vec!["balance".into(), "owner".into()],
                    indexed: vec![true, false],
                    pages: vec![1, 2, 9],
                },
                TableMeta {
                    name: "empty".into(),
                    columns: vec![],
                    indexed: vec![],
                    pages: vec![4],
                },
            ],
            committed: vec![("accounts".into(), 0), ("accounts".into(), 1)],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let meta = sample();
        let decoded = CheckpointMeta::decode(&meta.encode()).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn default_roundtrip() {
        let meta = CheckpointMeta::default();
        assert_eq!(CheckpointMeta::decode(&meta.encode()).unwrap(), meta);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = CheckpointMeta::decode(&bytes[..cut]);
            assert!(err.is_err(), "truncation at {cut} must not parse");
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x5A;
            // Either a typed error or (never) a silent wrong parse: the
            // CRC covers the body, the header fields are checked.
            if let Ok(parsed) = CheckpointMeta::decode(&evil) {
                panic!("byte {i} corrupted silently: {parsed:?}");
            }
        }
    }

    #[test]
    fn atomic_write_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dasp-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(CheckpointMeta::read(&dir).unwrap().is_none());
        let meta = sample();
        meta.write_atomic(&dir).unwrap();
        assert_eq!(CheckpointMeta::read(&dir).unwrap(), Some(meta.clone()));
        // Overwrite with a newer generation.
        let mut newer = meta;
        newer.generation += 1;
        newer.write_atomic(&dir).unwrap();
        assert_eq!(
            CheckpointMeta::read(&dir).unwrap().unwrap().generation,
            newer.generation
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
