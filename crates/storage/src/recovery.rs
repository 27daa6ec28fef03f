//! Crash-recovery support: typed recovery errors and the checkpoint file
//! that pairs a table image with a WAL generation.
//!
//! A durable provider directory holds two files:
//!
//! * `checkpoint.bin` — the last checkpoint: a [`CheckpointMeta`] header
//!   (which tables exist, how many rows each holds, which commitments
//!   were published, and the WAL generation the image supersedes)
//!   followed by every table's rows as `[len][crc][payload]` records,
//!   tables in header order (a writer frames a record once with
//!   [`CheckpointWriter::frame`] and may write the same bytes into
//!   every checkpoint after),
//! * `wal.log` — the write-ahead log of operations since the checkpoint.
//!
//! A checkpoint is written once, front to back, by a
//! [`CheckpointWriter`]: stream to `checkpoint.tmp`, `sync_data`, rename
//! over `checkpoint.bin`, fsync the directory. Recovery therefore always
//! sees either the old or the new image, never a blend, and reads it
//! once, front to back, with a [`CheckpointReader`]. The generation
//! stamp links the two files: a WAL whose header generation differs from
//! the checkpoint's belongs to a superseded epoch and is reset, not
//! replayed — that is the invariant that makes the checkpoint/log switch
//! crash-safe without a multi-file transaction.
//!
//! All parsing here returns a typed [`RecoveryError`]; nothing panics on
//! corrupt input (truncation and bit-flip fuzzing in
//! `tests/fault_injection.rs` holds this line at every byte offset).

use crate::StorageError;
use dasp_crypto::crc32;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Why recovery could not produce an engine.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem failure while reading the directory, checkpoint, or log.
    Io(std::io::Error),
    /// The storage layer rejected the log.
    Storage(StorageError),
    /// The checkpoint does not parse, or the directory holds a layout
    /// this release does not read. The file is written by rename, so a
    /// torn write cannot produce this: it is real corruption.
    CorruptMeta(&'static str),
    /// A WAL record or checkpoint row block survived its CRC but does not
    /// decode, or replaying it failed — the log and image disagree.
    Replay(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery io error: {e}"),
            RecoveryError::Storage(e) => write!(f, "recovery storage error: {e}"),
            RecoveryError::CorruptMeta(what) => write!(f, "corrupt checkpoint: {what}"),
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
    /// Which columns carry an index (rebuilt from the rows on recovery).
    pub indexed: Vec<bool>,
    /// Rows the table's records hold between them.
    pub rows: u64,
}

/// The header of `checkpoint.bin`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// WAL generation this image supersedes; the live log must carry the
    /// same stamp to be replayed.
    pub generation: u64,
    /// Tables in the image, in the order their records follow.
    pub tables: Vec<TableMeta>,
    /// `(table, column)` pairs whose Merkle commitments were published
    /// at checkpoint time (rebuilt deterministically on recovery).
    pub committed: Vec<(String, u32)>,
}

const META_MAGIC: [u8; 4] = *b"DCKP";
/// Version 3: one sequential file, the header then each table's records.
const META_VERSION: u32 = 3;
/// magic + version + body length + body CRC.
const META_HEADER_LEN: usize = 16;
/// A record's length and CRC, framed as the WAL frames its records.
const RECORD_HEADER_LEN: usize = 8;
/// Parse sanity bound: no real deployment has a billion tables.
const MAX_COUNT: u32 = 1 << 24;

/// Name of the checkpoint file inside a provider directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Where a checkpoint is written before its rename.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Name of the write-ahead log inside a provider directory.
pub const WAL_FILE: &str = "wal.log";
/// The paged layout of earlier releases (a descriptor plus a page file).
/// Its image is unreadable here, and its log may be of a later
/// generation than "no checkpoint": recovery refuses such a directory
/// rather than reset that log.
const PAGED_LAYOUT: [&str; 2] = ["meta.bin", "data.db"];

struct MetaReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> MetaReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        MetaReader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoveryError> {
        let slice = self
            .bytes
            .get(self.at..self.at + n)
            .ok_or(RecoveryError::CorruptMeta("truncated body"))?;
        self.at += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], RecoveryError> {
        self.take(N)?
            .try_into()
            .map_err(|_| RecoveryError::CorruptMeta("truncated body"))
    }

    fn u32(&mut self) -> Result<u32, RecoveryError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, RecoveryError> {
        self.array().map(u64::from_le_bytes)
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

    /// The fixed header: magic and version checked; body length and CRC.
    fn header(&mut self) -> Result<(usize, u32), RecoveryError> {
        if self.array()? != META_MAGIC {
            return Err(RecoveryError::CorruptMeta("bad magic"));
        }
        if self.u32()? != META_VERSION {
            return Err(RecoveryError::CorruptMeta("unknown version"));
        }
        Ok((self.u32()? as usize, self.u32()?))
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
            body.extend_from_slice(&table.rows.to_le_bytes());
        }
        body.extend_from_slice(&(self.committed.len() as u32).to_le_bytes());
        for (table, col) in &self.committed {
            put_string(&mut body, table);
            body.extend_from_slice(&col.to_le_bytes());
        }
        let mut out = Vec::with_capacity(body.len() + META_HEADER_LEN);
        out.extend_from_slice(&META_MAGIC);
        out.extend_from_slice(&META_VERSION.to_le_bytes());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parse exactly one encoded header, verifying magic, length and CRC.
    pub fn decode(bytes: &[u8]) -> Result<Self, RecoveryError> {
        let mut r = MetaReader::new(bytes);
        let (body_len, crc) = r.header()?;
        let body = r.take(body_len)?;
        if r.at != bytes.len() {
            return Err(RecoveryError::CorruptMeta("trailing bytes"));
        }
        Self::decode_body(body, crc)
    }

    fn decode_body(body: &[u8], crc: u32) -> Result<Self, RecoveryError> {
        if crc32(body) != crc {
            return Err(RecoveryError::CorruptMeta("crc mismatch"));
        }
        let mut r = MetaReader::new(body);
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
            let indexed = r.take(nindexed as usize)?.iter().map(|&b| b != 0).collect();
            let rows = r.u64()?;
            tables.push(TableMeta {
                name,
                columns,
                indexed,
                rows,
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
}

/// Streams one checkpoint to `checkpoint.tmp`; [`CheckpointWriter::commit`]
/// makes it `checkpoint.bin`. Dropped uncommitted (an error or a crash
/// mid-checkpoint), it leaves the old checkpoint in force and a stray
/// temp file that the next recovery removes.
pub struct CheckpointWriter {
    file: BufWriter<File>,
    dir: PathBuf,
}

impl CheckpointWriter {
    /// Start a checkpoint in `dir` with `meta` as its header.
    pub fn create(dir: &Path, meta: &CheckpointMeta) -> crate::Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(CHECKPOINT_TMP))?;
        let mut file = BufWriter::with_capacity(1 << 16, file);
        file.write_all(&meta.encode())?;
        Ok(CheckpointWriter {
            file,
            dir: dir.to_path_buf(),
        })
    }

    /// `payload` as one record: its length and CRC, then the payload.
    pub fn frame(payload: &[u8]) -> crate::Result<Box<[u8]>> {
        let len = u32::try_from(payload.len())
            .map_err(|_| StorageError::RecordTooLarge(payload.len()))?;
        let mut record = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&crc32(payload).to_le_bytes());
        record.extend_from_slice(payload);
        Ok(record.into_boxed_slice())
    }

    /// Append one record made by [`CheckpointWriter::frame`].
    pub fn record(&mut self, record: &[u8]) -> crate::Result<()> {
        self.file.write_all(record)?;
        Ok(())
    }

    /// The atomic swing: sync the temp file, rename it over
    /// `checkpoint.bin`, and fsync the directory so the rename itself is
    /// durable. A crash at any point leaves either the old or the new
    /// checkpoint intact.
    pub fn commit(self) -> crate::Result<()> {
        let file = self.file.into_inner().map_err(|e| e.into_error())?;
        file.sync_data()?;
        std::fs::rename(
            self.dir.join(CHECKPOINT_TMP),
            self.dir.join(CHECKPOINT_FILE),
        )?;
        File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

/// Reads one checkpoint front to back: the header on open, then one
/// record per [`CheckpointReader::record`] call.
pub struct CheckpointReader {
    /// `None` for a directory that has never checkpointed.
    file: Option<BufReader<File>>,
    /// The last record's payload; every record is read into it.
    record: Vec<u8>,
}

/// Replace `buf` with the next `len` bytes of `r`, or fail with `what`
/// if the file ends first. Grows with the bytes actually read, so a
/// corrupt length cannot allocate more than the file holds.
fn read_exact_into(
    r: &mut impl BufRead,
    len: usize,
    buf: &mut Vec<u8>,
    what: &'static str,
) -> Result<(), RecoveryError> {
    buf.clear();
    let mut r = r.take(len as u64);
    loop {
        let chunk = r.fill_buf()?;
        let n = chunk.len();
        if n == 0 {
            break;
        }
        buf.extend_from_slice(chunk);
        r.consume(n);
    }
    if buf.len() != len {
        return Err(RecoveryError::CorruptMeta(what));
    }
    Ok(())
}

impl CheckpointReader {
    /// Open `dir`'s checkpoint for recovery. A directory without one
    /// yields the empty generation-0 image. A stray `checkpoint.tmp` (a
    /// checkpoint that never swung) is removed; a directory in the paged
    /// layout of earlier releases is refused with every file untouched.
    pub fn open(dir: &Path) -> Result<(CheckpointMeta, Self), RecoveryError> {
        if PAGED_LAYOUT.iter().any(|name| dir.join(name).exists()) {
            return Err(RecoveryError::CorruptMeta(
                "paged checkpoint layout of an earlier release",
            ));
        }
        if let Err(e) = std::fs::remove_file(dir.join(CHECKPOINT_TMP)) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(e.into());
            }
        }
        let file = match File::open(dir.join(CHECKPOINT_FILE)) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let reader = CheckpointReader {
                    file: None,
                    record: Vec::new(),
                };
                return Ok((CheckpointMeta::default(), reader));
            }
            Err(e) => return Err(e.into()),
        };
        let mut file = BufReader::with_capacity(1 << 16, file);
        let mut buf = Vec::new();
        read_exact_into(&mut file, META_HEADER_LEN, &mut buf, "truncated header")?;
        let (body_len, crc) = MetaReader::new(&buf).header()?;
        read_exact_into(&mut file, body_len, &mut buf, "truncated body")?;
        let meta = CheckpointMeta::decode_body(&buf, crc)?;
        let reader = CheckpointReader {
            file: Some(file),
            record: buf,
        };
        Ok((meta, reader))
    }

    /// The next record's payload, CRC-checked. It lives until the next
    /// call, which reads into the same buffer.
    pub fn record(&mut self) -> Result<&[u8], RecoveryError> {
        let file = self
            .file
            .as_mut()
            .ok_or(RecoveryError::CorruptMeta("record past the end"))?;
        read_exact_into(
            file,
            RECORD_HEADER_LEN,
            &mut self.record,
            "truncated record",
        )?;
        let mut head = MetaReader::new(&self.record);
        let (len, crc) = (head.u32()? as usize, head.u32()?);
        read_exact_into(file, len, &mut self.record, "truncated record")?;
        if crc32(&self.record) != crc {
            return Err(RecoveryError::CorruptMeta("record crc mismatch"));
        }
        Ok(&self.record)
    }

    /// Check that the file ends after the last record the header called
    /// for.
    pub fn finish(self) -> Result<(), RecoveryError> {
        if let Some(mut file) = self.file {
            if file.read(&mut [0u8])? != 0 {
                return Err(RecoveryError::CorruptMeta("trailing bytes"));
            }
        }
        Ok(())
    }
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
                    rows: 3,
                },
                TableMeta {
                    name: "empty".into(),
                    columns: vec![],
                    indexed: vec![],
                    rows: 0,
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
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (empty, reader) = CheckpointReader::open(&dir).unwrap();
        assert_eq!(empty, CheckpointMeta::default());
        reader.finish().unwrap();
        let meta = sample();
        let records: [&[u8]; 3] = [b"first", b"", b"third"];
        let mut writer = CheckpointWriter::create(&dir, &meta).unwrap();
        for record in records {
            writer
                .record(&CheckpointWriter::frame(record).unwrap())
                .unwrap();
        }
        writer.commit().unwrap();
        let (read, mut reader) = CheckpointReader::open(&dir).unwrap();
        assert_eq!(read, meta);
        for record in records {
            assert_eq!(reader.record().unwrap(), record);
        }
        reader.finish().unwrap();
        // Overwrite with a newer generation; an uncommitted writer after
        // it changes nothing, and its temp file is gone after the open.
        let mut newer = meta;
        newer.generation += 1;
        CheckpointWriter::create(&dir, &newer)
            .unwrap()
            .commit()
            .unwrap();
        drop(CheckpointWriter::create(&dir, &sample()).unwrap());
        assert!(dir.join(CHECKPOINT_TMP).exists());
        let (read, _) = CheckpointReader::open(&dir).unwrap();
        assert_eq!(read.generation, newer.generation);
        assert!(!dir.join(CHECKPOINT_TMP).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
