//! Hand-rolled binary wire format and the TCP frame codec.
//!
//! Little-endian fixed-width integers, length-prefixed byte strings and
//! sequences. Every RPC payload in the workspace is encoded with
//! [`WireWriter`] and decoded with [`WireReader`], which checks bounds so
//! corrupted messages surface as [`WireError`] instead of panics — that is
//! load-bearing for the Byzantine-failure experiments.
//!
//! On top of the payload codec sits the *frame* layer used by the real
//! TCP transport (see [`crate::reactor`] and [`crate::transport`]): each
//! message travels as
//!
//! ```text
//! magic: u32 | len: u32 | crc: u32 | token: u64 | kind: u8 | payload
//! └────────── header (12 bytes) ──┘ └───────── body (len bytes) ─────┘
//! ```
//!
//! `len` counts the body (token + kind + payload); `crc` is the CRC-32
//! (IEEE) of the body, so a flipped bit anywhere in the body is detected
//! before the payload reaches [`WireReader`]. `token` is the connection-
//! level multiplexing id: responses may return out of order and the
//! client matches them back to callers by token — the same discipline the
//! in-process worker pools use. [`FrameDecoder`] is incremental (sockets
//! deliver arbitrary splits) and never over-reads: a corrupt header or
//! checksum yields a typed [`FrameError`] so the connection can be closed
//! cleanly instead of panicking or resynchronising on attacker-chosen
//! bytes.
//!
//! Two *batch* frame kinds amortize that framing over many small RPCs
//! (the wire analogue of the WAL's group commit): a
//! [`FrameKind::BatchRequest`]/[`FrameKind::BatchResponse`] body packs N
//! token-tagged sub-messages —
//!
//! ```text
//! token: u64 (= sub count) | kind: u8 | repeat: sub_token: u64 | sub_len: u32 | sub_payload
//! ```
//!
//! — under one header, one length prefix and one CRC, so a coalescing
//! client pays one syscall and one checksum per *batch* instead of per
//! query. Build one with [`BatchFrameBuilder`] (in-place, zero-alloc),
//! walk one with [`batch_items`]. Every encode entry point also has an
//! `*_into` form that appends to a caller-owned scratch buffer, which is
//! what the reactor and transport use to keep the hot path allocation-free.

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the field needs.
    Truncated { wanted: usize, left: usize },
    /// A tag byte had no matching variant.
    BadTag(u8),
    /// A length prefix exceeded the sanity bound.
    LengthOverflow(u64),
    /// A string was not UTF-8.
    BadUtf8,
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { wanted, left } => {
                write!(f, "truncated: wanted {wanted} bytes, {left} left")
            }
            WireError::BadTag(t) => write!(f, "bad tag byte {t:#x}"),
            WireError::LengthOverflow(n) => write!(f, "length {n} too large"),
            WireError::BadUtf8 => write!(f, "invalid utf-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum length prefix we accept (guards against corrupt lengths
/// allocating gigabytes).
const MAX_LEN: u64 = 1 << 32;

/// An append-only message encoder.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finish, yielding the encoded bytes. Consumes the writer's buffer
    /// in place — no copy on this path (it sits under every encoded RPC
    /// payload in the workspace).
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `i128`.
    pub fn i128(&mut self, v: i128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u128`.
    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a bool (one byte).
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Append length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append bytes as they are, no length prefix: for a layout whose
    /// reader learns the length some other way (see [`WireReader::raw`]).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Append a sequence with a callback per element.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) -> &mut Self {
        self.u64(items.len() as u64);
        for item in items {
            f(self, item);
        }
        self
    }
}

/// A checked message decoder.
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wrap encoded bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Error unless fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.buf.len()))
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                wanted: n,
                left: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read an `i128`.
    pub fn i128(&mut self) -> Result<i128, WireError> {
        Ok(i128::from_le_bytes(self.array()?))
    }

    /// Read a `u128`.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// Read a bool, rejecting tags other than 0/1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        if len > MAX_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        self.take(len as usize)
    }

    /// Read exactly `n` bytes written by [`WireWriter::raw`].
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        std::str::from_utf8(b)
            .map(|s| s.to_string())
            .map_err(|_| WireError::BadUtf8)
    }

    /// Read a sequence with a callback per element.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let len = self.u64()?;
        if len > MAX_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        // Each element is at least one byte; cheap sanity cap.
        if (len as usize) > self.buf.len() {
            return Err(WireError::Truncated {
                wanted: len as usize,
                left: self.buf.len(),
            });
        }
        let mut out = Vec::with_capacity(len as usize);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Frame layer: CRC-framed, length-prefixed messages for the TCP transport.
// ---------------------------------------------------------------------------

/// Frame magic: catches endpoint mismatches and stream desynchronisation
/// immediately instead of misparsing a length out of payload bytes.
pub const FRAME_MAGIC: u32 = 0xDA5B_F7A3;

/// Bytes of framing around a payload: 12-byte header + token + kind.
pub const FRAME_OVERHEAD: usize = 12 + 8 + 1;

/// Default cap on one frame's body. Large enough for a full batch insert
/// of shares, small enough that a corrupt length cannot OOM a provider.
pub const MAX_FRAME_BODY: u32 = 64 << 20;

/// CRC-32 (IEEE 802.3) of a frame body: the same checksum, and the same
/// function, that frames WAL and checkpoint records.
pub use dasp_crypto::crc32;

/// Direction tag of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → provider, one request payload.
    Request,
    /// Provider → client, one response payload.
    Response,
    /// Client → provider, N token-tagged sub-requests in one frame.
    BatchRequest,
    /// Provider → client, N token-tagged sub-responses in one frame.
    BatchResponse,
}

impl FrameKind {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
            FrameKind::BatchRequest => 2,
            FrameKind::BatchResponse => 3,
        }
    }

    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameKind::Request),
            1 => Some(FrameKind::Response),
            2 => Some(FrameKind::BatchRequest),
            3 => Some(FrameKind::BatchResponse),
            _ => None,
        }
    }

    /// True for the two batch envelope kinds.
    pub fn is_batch(self) -> bool {
        matches!(self, FrameKind::BatchRequest | FrameKind::BatchResponse)
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Connection-level multiplexing token (responses echo the request's).
    pub token: u64,
    /// Request or response.
    pub kind: FrameKind,
    /// The application payload ([`WireWriter`]-encoded).
    pub payload: Vec<u8>,
}

/// Frame decoding failure. Every variant means the stream is unusable;
/// the peer's only safe move is to close the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header's magic did not match [`FRAME_MAGIC`].
    BadMagic(u32),
    /// The body length is below the fixed token+kind floor or above `max`.
    BadLength {
        /// Length the header claimed.
        len: u32,
        /// Decoder's configured cap.
        max: u32,
    },
    /// Body checksum mismatch: bytes were corrupted in flight.
    BadCrc {
        /// Checksum the header carried.
        expected: u32,
        /// Checksum of the received body.
        actual: u32,
    },
    /// Unknown [`FrameKind`] tag.
    BadKind(u8),
    /// A batch body ended mid-sub-message (truncated tag or a sub-length
    /// claiming more bytes than the body holds). The envelope CRC was
    /// valid, so this is a peer logic error, not line corruption — the
    /// connection is closed either way.
    BadBatch {
        /// Bytes the next sub-message field needed.
        wanted: usize,
        /// Bytes actually left in the body.
        left: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadLength { len, max } => {
                write!(f, "frame body length {len} outside [9, {max}]")
            }
            FrameError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:#010x}, body {actual:#010x}"
                )
            }
            FrameError::BadKind(k) => write!(f, "bad frame kind tag {k:#04x}"),
            FrameError::BadBatch { wanted, left } => {
                write!(
                    f,
                    "truncated batch sub-message: wanted {wanted} bytes, {left} left"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode one frame ready for the socket.
///
/// # Panics
///
/// If the framed body would exceed [`MAX_FRAME_BODY`]. Payloads are
/// always producer-controlled (requests the client built, responses the
/// service built), so an oversized one is a local logic error; failing
/// here gives a clear message instead of a silently truncated length
/// prefix that the peer would reject by killing the connection.
pub fn encode_frame(token: u64, kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    encode_frame_into(&mut out, token, kind, payload);
    out
}

/// Append one encoded frame to `out`, returning the frame's byte count.
/// The zero-alloc form of [`encode_frame`]: the reactor and the client
/// transport call this with a long-lived scratch (or the connection's
/// coalesced write buffer), so steady-state traffic encodes without
/// touching the allocator. Same panic contract as [`encode_frame`].
pub fn encode_frame_into(out: &mut Vec<u8>, token: u64, kind: FrameKind, payload: &[u8]) -> usize {
    let body_len = 8 + 1 + payload.len();
    assert!(
        body_len <= MAX_FRAME_BODY as usize,
        "frame body of {body_len} bytes exceeds MAX_FRAME_BODY ({MAX_FRAME_BODY})"
    );
    let head = out.len();
    out.reserve(12 + body_len);
    out.extend_from_slice(&[0u8; 12]); // prefix, sealed below
    out.extend_from_slice(&token.to_le_bytes());
    out.push(kind.to_u8());
    out.extend_from_slice(payload);
    if let Some((prefix, body)) = frame_at(out, head) {
        *prefix = FramePrefix::sealing(body).to_bytes();
    }
    out.len() - head
}

/// The 12 bytes that open every frame: magic, body length, and the CRC
/// of the body. The body then opens with the 8-byte token and the kind
/// byte, completing the 21-byte envelope.
struct FramePrefix {
    magic: u32,
    len: u32,
    crc: u32,
}

impl FramePrefix {
    /// The prefix of a frame with this `body`.
    fn sealing(body: &[u8]) -> Self {
        FramePrefix {
            magic: FRAME_MAGIC,
            len: body.len() as u32,
            crc: crc32(body),
        }
    }

    fn parse(bytes: &[u8; 12]) -> Self {
        let [m0, m1, m2, m3, l0, l1, l2, l3, c0, c1, c2, c3] = *bytes;
        FramePrefix {
            magic: u32::from_le_bytes([m0, m1, m2, m3]),
            len: u32::from_le_bytes([l0, l1, l2, l3]),
            crc: u32::from_le_bytes([c0, c1, c2, c3]),
        }
    }

    fn to_bytes(&self) -> [u8; 12] {
        let [m0, m1, m2, m3] = self.magic.to_le_bytes();
        let [l0, l1, l2, l3] = self.len.to_le_bytes();
        let [c0, c1, c2, c3] = self.crc.to_le_bytes();
        [m0, m1, m2, m3, l0, l1, l2, l3, c0, c1, c2, c3]
    }
}

/// The prefix and body of the frame that starts at `head` and runs to
/// the end of `out`.
fn frame_at(out: &mut [u8], head: usize) -> Option<(&mut [u8; 12], &mut [u8])> {
    out.get_mut(head..)?.split_first_chunk_mut::<12>()
}

/// In-place builder for one batch frame: appends the envelope header to a
/// caller-owned buffer, then each `(token, payload)` sub-message directly
/// behind it, and patches length, sub-count and CRC in [`finish`] — no
/// intermediate per-message allocation, one checksum pass over the body.
///
/// The envelope's `token` field carries the sub-message count (the
/// sub-messages have their own tokens, so the field is otherwise unused).
///
/// [`finish`]: BatchFrameBuilder::finish
pub struct BatchFrameBuilder<'a> {
    out: &'a mut Vec<u8>,
    head: usize,
    count: u64,
}

impl<'a> BatchFrameBuilder<'a> {
    /// Start a batch frame of `kind` (one of the two batch kinds) at the
    /// end of `out`.
    pub fn begin(out: &'a mut Vec<u8>, kind: FrameKind) -> Self {
        debug_assert!(kind.is_batch());
        let head = out.len();
        out.extend_from_slice(&[0u8; 12]); // prefix, sealed in finish
        out.extend_from_slice(&[0u8; 8]); // envelope token = sub count, patched
        out.push(kind.to_u8());
        BatchFrameBuilder {
            out,
            head,
            count: 0,
        }
    }

    /// Sub-messages appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Body bytes the frame would occupy after appending a sub-message of
    /// `payload_len` bytes — the overflow guard a producer checks before
    /// [`push`] so a batch never exceeds the peer's frame-body cap.
    ///
    /// [`push`]: BatchFrameBuilder::push
    pub fn body_len_with(&self, payload_len: usize) -> usize {
        (self.out.len() - self.head - 12) + 8 + 4 + payload_len
    }

    /// Append one token-tagged sub-message.
    pub fn push(&mut self, token: u64, payload: &[u8]) {
        self.out.extend_from_slice(&token.to_le_bytes());
        self.out
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(payload);
        self.count += 1;
    }

    /// Patch the length, sub-count and CRC; returns the frame's total
    /// byte count. Panics if the body exceeds [`MAX_FRAME_BODY`] — the
    /// same producer-side contract as [`encode_frame`]; callers bound
    /// their batches with [`body_len_with`].
    ///
    /// [`body_len_with`]: BatchFrameBuilder::body_len_with
    pub fn finish(self) -> usize {
        let body_len = self.out.len() - self.head - 12;
        assert!(
            body_len <= MAX_FRAME_BODY as usize,
            "batch frame body of {body_len} bytes exceeds MAX_FRAME_BODY ({MAX_FRAME_BODY})"
        );
        if let Some((prefix, body)) = frame_at(self.out, self.head) {
            if let Some(count) = body.first_chunk_mut::<8>() {
                *count = self.count.to_le_bytes();
            }
            *prefix = FramePrefix::sealing(body).to_bytes();
        }
        self.out.len() - self.head
    }
}

/// Iterate the `(token, payload)` sub-messages of a batch frame body
/// (the `payload` of a [`FrameKind::BatchRequest`]/
/// [`FrameKind::BatchResponse`] frame). Yields a typed
/// [`FrameError::BadBatch`] — never a panic — if the body ends
/// mid-sub-message; the iterator is fused after an error.
pub fn batch_items(payload: &[u8]) -> BatchItems<'_> {
    BatchItems { rest: payload }
}

/// Iterator returned by [`batch_items`].
pub struct BatchItems<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for BatchItems<'a> {
    type Item = Result<(u64, &'a [u8]), FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let Some((&[t0, t1, t2, t3, t4, t5, t6, t7, l0, l1, l2, l3], body)) =
            self.rest.split_first_chunk::<12>()
        else {
            let left = self.rest.len();
            self.rest = &[];
            return Some(Err(FrameError::BadBatch { wanted: 12, left }));
        };
        let token = u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]);
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let Some((payload, tail)) = body.split_at_checked(len) else {
            let left = body.len();
            self.rest = &[];
            return Some(Err(FrameError::BadBatch { wanted: len, left }));
        };
        self.rest = tail;
        Some(Ok((token, payload)))
    }
}

/// Decode a whole batch body into owned `(token, payload)` pairs — the
/// convenience form of [`batch_items`] for tests and cold paths.
pub fn decode_batch(payload: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, FrameError> {
    batch_items(payload)
        .map(|item| item.map(|(t, p)| (t, p.to_vec())))
        .collect()
}

/// A decoded frame borrowing its payload from the decoder's buffer — the
/// zero-copy form of [`Frame`] returned by
/// [`FrameDecoder::next_frame_view`]. The server dispatches straight off
/// the view; only payloads that outlive the dispatch (worker jobs,
/// client completions) are copied out.
pub struct FrameView<'a> {
    /// Correlation token (for batch frames: the sub-message count).
    pub token: u64,
    /// Frame kind tag.
    pub kind: FrameKind,
    /// Frame payload, borrowed from the decoder's internal buffer.
    pub payload: &'a [u8],
}

/// Buffer capacity the decoder keeps through quiet periods; anything a
/// burst of large frames grew beyond this (and beyond the burst's own
/// high-water mark) is released once the buffer fully drains.
const RETAIN_CAP: usize = 64 * 1024;

/// Incremental frame decoder: feed socket bytes in arbitrary splits with
/// [`FrameDecoder::extend`], pop complete frames with
/// [`FrameDecoder::next_frame_view`] (zero-copy) or
/// [`FrameDecoder::next_frame`] (owned). Consumed bytes are compacted
/// lazily so steady-state decoding does not reallocate, and capacity
/// grown by a burst of near-[`MAX_FRAME_BODY`] frames is shrunk back to a
/// high-water mark once the buffer drains, so one huge frame does not pin
/// tens of megabytes per connection forever.
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
    max_body: u32,
    /// Largest single frame seen since the last capacity reclaim; the
    /// shrink floor, so a steady stream of large frames never thrashes
    /// between shrink and regrow.
    peak: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// Decoder with the default [`MAX_FRAME_BODY`] cap.
    pub fn new() -> Self {
        Self::with_max_body(MAX_FRAME_BODY)
    }

    /// Decoder rejecting bodies above `max_body` bytes.
    pub fn with_max_body(max_body: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_body,
            peak: 0,
        }
    }

    /// Append raw socket bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.reclaim();
        // Compact before growing: once more than half the buffer is dead
        // prefix, shift the live tail down instead of reallocating past it.
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Undecoded bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Current capacity of the internal buffer (for retention tests and
    /// stats; not part of the decode contract).
    pub fn buffered_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Release capacity a burst of large frames grew, once the buffer has
    /// fully drained. The shrink floor is the larger of [`RETAIN_CAP`] and
    /// the biggest frame seen since the last reclaim, so an oversized
    /// buffer survives exactly one quiet cycle and sustained large-frame
    /// traffic never thrashes the allocator.
    fn reclaim(&mut self) {
        if self.start == 0 || self.start < self.buf.len() {
            return;
        }
        self.buf.clear();
        self.start = 0;
        let keep = RETAIN_CAP.max(self.peak);
        if self.buf.capacity() > keep * 2 {
            self.buf.shrink_to(keep);
        }
        self.peak = 0;
    }

    /// Pop the next complete frame without copying the payload. `Ok(None)`
    /// means more bytes are needed; `Err` means the stream is corrupt and
    /// must be closed (the decoder does not attempt to resynchronise — a
    /// CRC-failed frame boundary is attacker-controlled data).
    ///
    /// The returned view borrows the decoder's buffer; it is consumed
    /// regardless, so dropping the view without reading it skips the
    /// frame.
    pub fn next_frame_view(&mut self) -> Result<Option<FrameView<'_>>, FrameError> {
        self.reclaim();
        // `start` only ever advances past bytes that are present.
        let avail = self.buf.get(self.start..).unwrap_or_default();
        let Some(prefix) = avail.first_chunk::<12>().map(FramePrefix::parse) else {
            return Ok(None);
        };
        if prefix.magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic(prefix.magic));
        }
        let len = prefix.len;
        if len < 9 || len > self.max_body {
            return Err(FrameError::BadLength {
                len,
                max: self.max_body,
            });
        }
        let total = 12 + len as usize;
        let Some(body) = avail.get(12..total) else {
            return Ok(None);
        };
        let actual = crc32(body);
        if actual != prefix.crc {
            return Err(FrameError::BadCrc {
                expected: prefix.crc,
                actual,
            });
        }
        // `len >= 9` was checked, so the body holds the token and kind.
        let Some((&[t0, t1, t2, t3, t4, t5, t6, t7, kind], payload)) =
            body.split_first_chunk::<9>()
        else {
            return Err(FrameError::BadLength {
                len,
                max: self.max_body,
            });
        };
        let token = u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]);
        let kind = FrameKind::from_u8(kind).ok_or(FrameError::BadKind(kind))?;
        self.start += total;
        self.peak = self.peak.max(total);
        Ok(Some(FrameView {
            token,
            kind,
            payload,
        }))
    }

    /// Pop the next complete frame with an owned payload — the cloning
    /// convenience over [`FrameDecoder::next_frame_view`] for callers that
    /// hold frames across decoder calls.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        Ok(self.next_frame_view()?.map(|v| Frame {
            token: v.token,
            kind: v.kind,
            payload: v.payload.to_vec(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = WireWriter::new();
        w.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .i128(-5)
            .u128(1 << 90)
            .bool(true);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i128().unwrap(), -5);
        assert_eq!(r.u128().unwrap(), 1 << 90);
        assert!(r.bool().unwrap());
        r.expect_end().unwrap();
    }

    #[test]
    fn bytes_and_strings() {
        let mut w = WireWriter::new();
        w.bytes(b"").bytes(b"payload").string("héllo").raw(b"abc");
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.raw(2).unwrap(), b"ab");
        assert_eq!(r.raw(2), Err(WireError::Truncated { wanted: 2, left: 1 }));
    }

    #[test]
    fn seq_roundtrip() {
        let items = vec![(1u64, "a".to_string()), (2, "bb".to_string())];
        let mut w = WireWriter::new();
        w.seq(&items, |w, (n, s)| {
            w.u64(*n).string(s);
        });
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        let got = r.seq(|r| Ok((r.u64()?, r.string()?))).unwrap();
        assert_eq!(got, items);
    }

    #[test]
    fn truncation_detected_not_panic() {
        let mut w = WireWriter::new();
        w.u64(42).bytes(b"hello");
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            let res: Result<(), WireError> = (|| {
                r.u64()?;
                r.bytes()?;
                Ok(())
            })();
            assert!(res.is_err(), "cut={cut} should fail");
        }
    }

    #[test]
    fn corrupt_length_rejected() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX); // absurd length prefix
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.bytes(), Err(WireError::LengthOverflow(_))));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut r = WireReader::new(&[2]);
        assert_eq!(r.bool(), Err(WireError::BadTag(2)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.u8(1).u8(2);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn seq_with_huge_count_rejected() {
        let mut w = WireWriter::new();
        w.u64(1 << 60);
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(r.seq(|r| r.u8()).is_err());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_split_delivery() {
        let payload = b"share payload".to_vec();
        let encoded = encode_frame(42, FrameKind::Request, &payload);
        assert_eq!(encoded.len(), payload.len() + FRAME_OVERHEAD);
        // Feed one byte at a time: no frame until the last byte lands.
        let mut dec = FrameDecoder::new();
        for (i, b) in encoded.iter().enumerate() {
            dec.extend(&[*b]);
            let got = dec.next_frame().unwrap();
            if i + 1 < encoded.len() {
                assert!(got.is_none(), "byte {i} must not complete the frame");
            } else {
                let frame = got.unwrap();
                assert_eq!(frame.token, 42);
                assert_eq!(frame.kind, FrameKind::Request);
                assert_eq!(frame.payload, payload);
            }
        }
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn frame_decoder_handles_back_to_back_frames() {
        let mut stream = Vec::new();
        for t in 0..5u64 {
            stream.extend_from_slice(&encode_frame(t, FrameKind::Response, &[t as u8; 3]));
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        for t in 0..5u64 {
            let f = dec.next_frame().unwrap().unwrap();
            assert_eq!(f.token, t);
            assert_eq!(f.payload, vec![t as u8; 3]);
        }
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn frame_bad_magic_rejected() {
        let mut encoded = encode_frame(1, FrameKind::Request, b"x");
        encoded[0] ^= 0xff;
        let mut dec = FrameDecoder::new();
        dec.extend(&encoded);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn frame_oversize_length_rejected_before_buffering() {
        let mut encoded = encode_frame(1, FrameKind::Request, b"x");
        encoded[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&encoded);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadLength { .. })
        ));
    }

    #[test]
    fn frame_payload_flip_caught_by_crc() {
        let mut encoded = encode_frame(7, FrameKind::Response, b"payload");
        let last = encoded.len() - 1;
        encoded[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.extend(&encoded);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn frame_bad_kind_rejected() {
        // Flip the kind byte and fix up the CRC so only the tag is wrong.
        let mut encoded = encode_frame(7, FrameKind::Request, b"p");
        encoded[12 + 8] = 9;
        let crc = crc32(&encoded[12..]);
        encoded[8..12].copy_from_slice(&crc.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.extend(&encoded);
        assert_eq!(dec.next_frame(), Err(FrameError::BadKind(9)));
    }

    #[test]
    fn encode_frame_into_matches_encode_frame_and_appends() {
        let mut out = vec![0xEEu8; 7]; // pre-existing bytes must survive
        let n = encode_frame_into(&mut out, 99, FrameKind::Request, b"abc");
        let standalone = encode_frame(99, FrameKind::Request, b"abc");
        assert_eq!(n, standalone.len());
        assert_eq!(&out[..7], &[0xEE; 7]);
        assert_eq!(&out[7..], standalone.as_slice());
        // A second append decodes as a clean back-to-back stream.
        encode_frame_into(&mut out, 100, FrameKind::Response, b"defg");
        let mut dec = FrameDecoder::new();
        dec.extend(&out[7..]);
        assert_eq!(dec.next_frame().unwrap().unwrap().token, 99);
        assert_eq!(dec.next_frame().unwrap().unwrap().payload, b"defg");
    }

    #[test]
    fn batch_roundtrip_zero_one_many() {
        for subs in [0usize, 1, 17] {
            let mut out = Vec::new();
            let mut b = BatchFrameBuilder::begin(&mut out, FrameKind::BatchRequest);
            for i in 0..subs {
                b.push(1000 + i as u64, &vec![i as u8; i]);
            }
            assert_eq!(b.count(), subs as u64);
            let n = b.finish();
            assert_eq!(n, out.len());
            let mut dec = FrameDecoder::new();
            dec.extend(&out);
            let f = dec.next_frame().unwrap().unwrap();
            assert_eq!(f.kind, FrameKind::BatchRequest);
            assert_eq!(f.token, subs as u64); // envelope token = sub count
            let items = decode_batch(&f.payload).unwrap();
            assert_eq!(items.len(), subs);
            for (i, (tok, payload)) in items.iter().enumerate() {
                assert_eq!(*tok, 1000 + i as u64);
                assert_eq!(payload, &vec![i as u8; i]);
            }
        }
    }

    #[test]
    fn batch_body_len_with_predicts_finish() {
        let mut out = Vec::new();
        let mut b = BatchFrameBuilder::begin(&mut out, FrameKind::BatchResponse);
        b.push(1, b"xy");
        let predicted = b.body_len_with(5);
        b.push(2, b"12345");
        let total = b.finish();
        // total = 12-byte header + body
        assert_eq!(total - 12, predicted);
    }

    #[test]
    fn batch_truncation_yields_bad_batch_never_panics() {
        let mut out = Vec::new();
        let mut b = BatchFrameBuilder::begin(&mut out, FrameKind::BatchRequest);
        b.push(7, b"hello");
        b.push(8, b"world!");
        b.finish();
        // Strip the 21-byte envelope; truncate the batch *body* at every
        // offset.
        let body = &out[FRAME_OVERHEAD..];
        for cut in 0..body.len() {
            let items: Vec<_> = batch_items(&body[..cut]).collect();
            let trailing_err = items.iter().any(|i| i.is_err());
            // Either the cut lands exactly on a sub boundary (all Ok) or
            // the final item is a typed BadBatch error.
            if !trailing_err {
                let full = batch_items(body).filter(|i| i.is_ok()).count();
                assert!(items.len() <= full);
            } else {
                assert!(matches!(
                    items.last().unwrap(),
                    Err(FrameError::BadBatch { .. })
                ));
            }
        }
    }

    #[test]
    fn decoder_releases_capacity_after_large_frame() {
        let big = vec![0xABu8; 8 << 20]; // 8 MiB payload
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(1, FrameKind::Request, &big));
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!(f.payload.len(), big.len());
        assert!(dec.buffered_capacity() >= big.len());
        // A small follow-up frame plus one drained decode cycle must
        // release the burst capacity back to the retention floor.
        dec.extend(&encode_frame(2, FrameKind::Request, b"small"));
        assert!(dec.next_frame().unwrap().is_some());
        assert!(dec.next_frame().unwrap().is_none());
        dec.extend(&encode_frame(3, FrameKind::Request, b"tiny"));
        assert!(
            dec.buffered_capacity() <= 2 * RETAIN_CAP,
            "capacity {} not released",
            dec.buffered_capacity()
        );
    }

    #[test]
    fn zero_copy_view_matches_owned_frame() {
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(5, FrameKind::BatchResponse, b"viewed"));
        let v = dec.next_frame_view().unwrap().unwrap();
        assert_eq!(v.token, 5);
        assert_eq!(v.kind, FrameKind::BatchResponse);
        assert_eq!(v.payload, b"viewed");
    }

    proptest! {
        #[test]
        fn prop_batch_roundtrip_any_split(
            subs in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)),
                0..12,
            ),
            chunk in 1usize..64,
        ) {
            let mut out = Vec::new();
            let mut b = BatchFrameBuilder::begin(&mut out, FrameKind::BatchRequest);
            for (tok, payload) in &subs {
                b.push(*tok, payload);
            }
            b.finish();
            let mut dec = FrameDecoder::new();
            let mut got = None;
            for part in out.chunks(chunk) {
                dec.extend(part);
                if let Some(f) = dec.next_frame().unwrap() {
                    got = Some(f);
                }
            }
            let f = got.expect("batch frame must complete");
            prop_assert_eq!(f.token, subs.len() as u64);
            let items = decode_batch(&f.payload).unwrap();
            prop_assert_eq!(items, subs);
        }

        #[test]
        fn prop_batch_garbage_body_never_panics(
            body in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            // Arbitrary bytes iterate to Ok items and/or one typed error —
            // never a panic, never an infinite loop.
            let mut n = 0usize;
            for item in batch_items(&body) {
                let _ = item;
                n += 1;
                prop_assert!(n <= body.len() + 1);
            }
        }

        #[test]
        fn prop_frame_roundtrip_any_split(
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            token in any::<u64>(),
            chunk in 1usize..64,
        ) {
            let encoded = encode_frame(token, FrameKind::Response, &payload);
            let mut dec = FrameDecoder::new();
            let mut got = None;
            for part in encoded.chunks(chunk) {
                dec.extend(part);
                if let Some(f) = dec.next_frame().unwrap() {
                    got = Some(f);
                }
            }
            let f = got.expect("frame must complete");
            prop_assert_eq!(f.token, token);
            prop_assert_eq!(f.payload, payload);
        }

        #[test]
        fn prop_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let mut w = WireWriter::new();
            w.bytes(&data);
            let encoded = w.finish();
            let mut r = WireReader::new(&encoded);
            prop_assert_eq!(r.bytes().unwrap(), data.as_slice());
            r.expect_end().unwrap();
        }

        #[test]
        fn prop_random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Decoding arbitrary garbage must return Err, never panic.
            let mut r = WireReader::new(&data);
            let _ = r.seq(|r| {
                let _ = r.u64()?;
                let s = r.string()?;
                Ok(s)
            });
        }
    }
}
