//! The wire protocol: a pure, separately testable codec.
//!
//! Every message on the wire is one **frame**: a fixed 10-byte header
//! (4-byte magic `TDQP`, protocol version, frame kind, little-endian payload
//! length) followed by the payload.  The codec in this module is pure — it
//! maps between typed values and byte slices, touching no sockets — so it
//! can be property-tested exhaustively: random request/response values
//! round-trip byte-identically, and random byte streams can never panic the
//! decoder (see `tests/protocol_props.rs`).
//!
//! Decoding is **total and allocation-bounded**: every length field is
//! checked against the remaining payload before anything is allocated, all
//! arithmetic on untrusted lengths is checked, and every structural
//! invariant of the ordered columnar result types (strictly ascending keys,
//! consistent offsets) is validated *before* the corresponding constructor
//! runs, so a hostile peer can produce [`ProtocolError`]s but never a panic
//! or an oversized allocation.
//!
//! Payload layouts (all integers little-endian):
//!
//! | kind | payload |
//! |------|---------|
//! | `Query`       | task `u8`, sequence_length `u64`, deadline flag `u8` (+ `deadline_ms u64`) |
//! | `Stats`       | empty |
//! | `Shutdown`    | empty |
//! | `Result`      | task tag `u8`, then the result's columns (see below) |
//! | `Error`       | code `u8`, message length `u32`, UTF-8 bytes |
//! | `Overloaded`  | queue depth `u32`, queue capacity `u32` |
//! | `StatsReply`  | eight `u64` counters |
//! | `ShutdownAck` | empty |
//!
//! Results travel as their **ordered columnar form** directly: sorted key
//! columns next to value columns, CSR offsets next to flat posting columns —
//! the same representation the engine finalizes into, so encoding is a
//! linear copy and a decoded result is bit-for-bit the table the server
//! held (`AnalyticsOutput::digest` agrees across the wire).

use tadoc::apps::{Task, TaskConfig};
use tadoc::fine_grained::EngineError;
use tadoc::results::{
    AnalyticsOutput, InvertedIndexResult, RankedInvertedIndexResult, SequenceCountResult,
    SortResult, TermVectorResult, WordCountResult,
};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"TDQP";
/// Protocol version this codec speaks.
pub const VERSION: u8 = 1;
/// Fixed frame header length: magic (4) + version (1) + kind (1) + len (4).
pub const HEADER_LEN: usize = 10;
/// Maximum payload length a peer may declare.  Frames claiming more are
/// rejected from the header alone — the payload is never read, let alone
/// allocated.
pub const MAX_PAYLOAD_LEN: u32 = 64 * 1024 * 1024;

// Frame kinds.  Requests have the high bit clear, responses set.
const KIND_QUERY: u8 = 0x01;
const KIND_STATS: u8 = 0x02;
const KIND_SHUTDOWN: u8 = 0x03;
const KIND_RESULT: u8 = 0x81;
const KIND_ERROR: u8 = 0x82;
const KIND_OVERLOADED: u8 = 0x83;
const KIND_STATS_REPLY: u8 = 0x84;
const KIND_SHUTDOWN_ACK: u8 = 0x85;

// ---------------------------------------------------------------------------
// Message types
// ---------------------------------------------------------------------------

/// One query request: a task, its configuration, and an optional deadline
/// in milliseconds, measured by the **server** from the moment the request
/// is admitted (queue wait counts against it — a request that expires while
/// queued is answered with `DeadlineExceeded` without executing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRequest {
    /// The task to run.
    pub task: Task,
    /// Its per-query configuration.
    pub cfg: TaskConfig,
    /// Optional time budget in milliseconds (`Some(0)` is legal and means
    /// "already expired" — useful for deterministic deadline tests).
    pub deadline_ms: Option<u64>,
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run one analytics query.
    Query(QueryRequest),
    /// Report the server's counters.
    Stats,
    /// Begin graceful shutdown: drain admitted work, then refuse.
    Shutdown,
}

/// Typed error codes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorCode {
    /// Invalid query configuration (e.g. zero sequence length).
    Config,
    /// The served archive failed validation (server-side misconfiguration).
    InvalidArchive,
    /// A worker fault that the sequential fallback could not absorb.
    WorkerPanicked,
    /// The query's deadline passed (while queued or in flight).
    DeadlineExceeded,
    /// The query was cancelled (e.g. shutdown drain timeout).
    Cancelled,
    /// The peer sent bytes this protocol cannot parse.
    Protocol,
    /// The server is shutting down and refuses new work.
    ShuttingDown,
    /// An internal serving fault (e.g. an executor thread died mid-query).
    Internal,
}

impl WireErrorCode {
    /// Wire byte of each code.  Byte 4 is unassigned: it named an arena
    /// capacity failure the CPU engine cannot raise, and reusing it would
    /// let an older peer misread a new code.
    fn to_byte(self) -> u8 {
        match self {
            WireErrorCode::Config => 1,
            WireErrorCode::InvalidArchive => 2,
            WireErrorCode::WorkerPanicked => 3,
            WireErrorCode::DeadlineExceeded => 5,
            WireErrorCode::Cancelled => 6,
            WireErrorCode::Protocol => 7,
            WireErrorCode::ShuttingDown => 8,
            WireErrorCode::Internal => 9,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => WireErrorCode::Config,
            2 => WireErrorCode::InvalidArchive,
            3 => WireErrorCode::WorkerPanicked,
            5 => WireErrorCode::DeadlineExceeded,
            6 => WireErrorCode::Cancelled,
            7 => WireErrorCode::Protocol,
            8 => WireErrorCode::ShuttingDown,
            9 => WireErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A typed error answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub code: WireErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds an error answer.
    pub fn new(code: WireErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl From<&EngineError> for WireError {
    fn from(e: &EngineError) -> Self {
        let code = match e {
            EngineError::Config(_) => WireErrorCode::Config,
            EngineError::InvalidArchive { .. } => WireErrorCode::InvalidArchive,
            EngineError::WorkerPanicked { .. } => WireErrorCode::WorkerPanicked,
            EngineError::DeadlineExceeded => WireErrorCode::DeadlineExceeded,
            EngineError::Cancelled => WireErrorCode::Cancelled,
        };
        WireError::new(code, e.to_string())
    }
}

/// The server's cumulative counters, as answered to a [`Request::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub accepted_connections: u64,
    /// Queries answered with a result or a typed engine error.
    pub queries_answered: u64,
    /// Queries shed with `Overloaded` because the admission queue was full.
    pub shed: u64,
    /// Queries refused with `ShuttingDown` during drain.
    pub refused: u64,
    /// High-water mark of the admission queue depth.
    pub max_queue_depth: u64,
    /// Always 0: executors run one query per turn and never batch.  The
    /// field keeps the Stats frame layout (and `VERSION`) unchanged; Stats
    /// v2 removes it together with the benchmark that still reads it.
    pub batches: u64,
    /// Always 0, for the same reason as [`batches`](Self::batches).
    pub batched_queries: u64,
    /// Frames that failed to parse.
    pub protocol_errors: u64,
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The query's result, in ordered columnar form.
    Result(AnalyticsOutput),
    /// A typed failure.
    Error(WireError),
    /// The request was shed: the admission queue was full.  Contains the
    /// observed depth and the configured capacity.
    Overloaded {
        /// Queue depth at shed time.
        queue_depth: u32,
        /// Configured queue capacity.
        capacity: u32,
    },
    /// Counters answer.
    Stats(StatsSnapshot),
    /// Graceful shutdown acknowledged.
    ShutdownAck,
}

// ---------------------------------------------------------------------------
// Decode errors
// ---------------------------------------------------------------------------

/// A frame or payload this codec refuses.  Every variant is a *typed*
/// protocol error — hostile bytes surface here, never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    UnsupportedVersion(u8),
    /// An unknown frame kind byte.
    UnknownKind(u8),
    /// The header declared a payload longer than [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// Declared payload length.
        declared: u32,
    },
    /// The buffer ended before the declared frame did.
    Truncated {
        /// Bytes needed to finish the frame.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The frame parsed but its payload is inconsistent (bad tag, columns
    /// out of order, offsets that do not reconcile, …).
    Malformed(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (expected {VERSION})")
            }
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtocolError::Oversized { declared } => write!(
                f,
                "declared payload of {declared} bytes exceeds the {MAX_PAYLOAD_LEN}-byte cap"
            ),
            ProtocolError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            ProtocolError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Whether this error makes the byte stream unrecoverable.  After a bad
/// magic, a bad version, an oversized declaration, or a truncation there is
/// no way to find the next frame boundary, so the connection must close; a
/// malformed payload or unknown kind inside a well-framed message leaves
/// the stream in sync and the connection can keep serving.
pub fn is_framing_fatal(e: &ProtocolError) -> bool {
    matches!(
        e,
        ProtocolError::BadMagic(_)
            | ProtocolError::UnsupportedVersion(_)
            | ProtocolError::Oversized { .. }
            | ProtocolError::Truncated { .. }
    )
}

// ---------------------------------------------------------------------------
// Byte cursor (checked reads over untrusted input)
// ---------------------------------------------------------------------------

fn malformed(why: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(why.into())
}

/// Checked reader over an untrusted payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "payload ended early ({} bytes left, {n} needed)",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a length field that must be addressable as `usize` AND small
    /// enough that `len * elem_size` elements can still follow in this
    /// payload — the allocation bound: nothing is ever reserved beyond what
    /// the peer actually sent bytes for.
    fn len_field(&mut self, elem_size: usize, what: &str) -> Result<usize, ProtocolError> {
        let raw = self.u64()?;
        let len = usize::try_from(raw).map_err(|_| malformed(format!("{what} count overflows")))?;
        let bytes = len
            .checked_mul(elem_size)
            .ok_or_else(|| malformed(format!("{what} count overflows")))?;
        if bytes > self.remaining() {
            return Err(malformed(format!(
                "{what} count {len} needs {bytes} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    fn u32_vec(&mut self, len: usize) -> Result<Vec<u32>, ProtocolError> {
        let bytes = self.take(len * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    fn u64_vec(&mut self, len: usize) -> Result<Vec<u64>, ProtocolError> {
        let bytes = self.take(len * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect())
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(malformed(format!(
                "{} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Append helpers for the encoder.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32_slice(&mut self, vs: &[u32]) {
        for &v in vs {
            self.u32(v);
        }
    }

    fn u64_slice(&mut self, vs: &[u64]) {
        for &v in vs {
            self.u64(v);
        }
    }
}

// ---------------------------------------------------------------------------
// Frame-level encode/decode
// ---------------------------------------------------------------------------

/// Wraps `payload` in a frame header.  The only panic-free precondition is
/// `payload.len() <= MAX_PAYLOAD_LEN`, which every encoder in this module
/// guarantees (the columnar payloads are proportional to result sizes the
/// server itself produced).
fn frame(kind: u8, payload: Vec<u8>) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD_LEN as usize);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses a frame header from the front of `buf`.
///
/// Returns `(kind, payload_len)`.  [`ProtocolError::Truncated`] means "feed
/// me more bytes" — the incremental reader in [`crate::framing`] relies on
/// the `needed` field to size its next read.
pub fn decode_header(buf: &[u8]) -> Result<(u8, usize), ProtocolError> {
    if buf.len() < HEADER_LEN {
        return Err(ProtocolError::Truncated {
            needed: HEADER_LEN,
            got: buf.len(),
        });
    }
    let magic = [buf[0], buf[1], buf[2], buf[3]];
    if magic != MAGIC {
        return Err(ProtocolError::BadMagic(magic));
    }
    if buf[4] != VERSION {
        return Err(ProtocolError::UnsupportedVersion(buf[4]));
    }
    // The kind byte is NOT validated here: an unknown kind still has a
    // well-formed header, so the framing layer can skip its payload and the
    // connection stays in sync — [`parse_request`]/[`parse_response`] turn
    // it into a typed, non-fatal [`ProtocolError::UnknownKind`].
    let kind = buf[5];
    let len = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]);
    if len > MAX_PAYLOAD_LEN {
        return Err(ProtocolError::Oversized { declared: len });
    }
    Ok((kind, len as usize))
}

/// Splits one whole frame off the front of `buf`; returns
/// `(kind, payload, consumed)`.
fn decode_frame(buf: &[u8]) -> Result<(u8, &[u8], usize), ProtocolError> {
    let (kind, len) = decode_header(buf)?;
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Err(ProtocolError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    Ok((kind, &buf[HEADER_LEN..total], total))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

fn task_tag(task: Task) -> u8 {
    match task {
        Task::WordCount => 1,
        Task::Sort => 2,
        Task::InvertedIndex => 3,
        Task::TermVector => 4,
        Task::SequenceCount => 5,
        Task::RankedInvertedIndex => 6,
    }
}

fn task_from_tag(tag: u8) -> Result<Task, ProtocolError> {
    Ok(match tag {
        1 => Task::WordCount,
        2 => Task::Sort,
        3 => Task::InvertedIndex,
        4 => Task::TermVector,
        5 => Task::SequenceCount,
        6 => Task::RankedInvertedIndex,
        other => return Err(malformed(format!("unknown task tag {other}"))),
    })
}

/// Encodes a request as one complete frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Query(q) => {
            let mut w = Writer::new();
            w.u8(task_tag(q.task));
            w.u64(q.cfg.sequence_length as u64);
            match q.deadline_ms {
                Some(ms) => {
                    w.u8(1);
                    w.u64(ms);
                }
                None => w.u8(0),
            }
            frame(KIND_QUERY, w.buf)
        }
        Request::Stats => frame(KIND_STATS, Vec::new()),
        Request::Shutdown => frame(KIND_SHUTDOWN, Vec::new()),
    }
}

/// Parses a request payload for `kind` (as returned by [`decode_header`]).
pub fn parse_request(kind: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
    match kind {
        KIND_QUERY => {
            let mut c = Cursor::new(payload);
            let task = task_from_tag(c.u8()?)?;
            let raw_l = c.u64()?;
            let sequence_length = usize::try_from(raw_l)
                .map_err(|_| malformed("sequence_length overflows usize"))?;
            let deadline_ms = match c.u8()? {
                0 => None,
                1 => Some(c.u64()?),
                other => return Err(malformed(format!("bad deadline flag {other}"))),
            };
            c.finish()?;
            Ok(Request::Query(QueryRequest {
                task,
                cfg: TaskConfig { sequence_length },
                deadline_ms,
            }))
        }
        KIND_STATS => {
            Cursor::new(payload).finish()?;
            Ok(Request::Stats)
        }
        KIND_SHUTDOWN => {
            Cursor::new(payload).finish()?;
            Ok(Request::Shutdown)
        }
        other => Err(ProtocolError::UnknownKind(other)),
    }
}

/// Decodes one request frame off the front of `buf`; returns the request
/// and the bytes consumed.
pub fn decode_request(buf: &[u8]) -> Result<(Request, usize), ProtocolError> {
    let (kind, payload, consumed) = decode_frame(buf)?;
    Ok((parse_request(kind, payload)?, consumed))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

fn encode_output(out: &AnalyticsOutput) -> Vec<u8> {
    let mut w = Writer::new();
    match out {
        AnalyticsOutput::WordCount(r) => {
            w.u8(1);
            w.u64(r.table.len() as u64);
            w.u32_slice(r.table.keys());
            w.u64_slice(r.table.values());
        }
        AnalyticsOutput::Sort(r) => {
            w.u8(2);
            w.u64(r.ranked.len() as u64);
            for &(word, _) in &r.ranked {
                w.u32(word);
            }
            for &(_, count) in &r.ranked {
                w.u64(count);
            }
        }
        AnalyticsOutput::InvertedIndex(r) => {
            w.u8(3);
            let t = &r.table;
            w.u64(t.num_keys() as u64);
            w.u32_slice(t.keys_flat());
            for &off in t.offsets() {
                w.u64(off as u64);
            }
            w.u32_slice(t.values_flat());
        }
        AnalyticsOutput::TermVector(r) => {
            w.u8(4);
            w.u64(r.num_files() as u64);
            let mut off = 0u64;
            w.u64(0);
            for row in r.iter() {
                off += row.len() as u64;
                w.u64(off);
            }
            for row in r.iter() {
                for &(word, _) in row {
                    w.u32(word);
                }
            }
            for row in r.iter() {
                for &(_, count) in row {
                    w.u64(count);
                }
            }
        }
        AnalyticsOutput::SequenceCount(r) => {
            w.u8(5);
            w.u64(r.l as u64);
            w.u64(r.distinct_sequences() as u64);
            for (key, _) in r.iter() {
                w.u32_slice(key);
            }
            for (_, count) in r.iter() {
                w.u64(count);
            }
        }
        AnalyticsOutput::RankedInvertedIndex(r) => {
            w.u8(6);
            let t = &r.table;
            w.u64(r.l as u64);
            w.u64(t.num_keys() as u64);
            w.u32_slice(t.keys_flat());
            for &off in t.offsets() {
                w.u64(off as u64);
            }
            for &(file, _) in t.values_flat() {
                w.u32(file);
            }
            for &(_, count) in t.values_flat() {
                w.u64(count);
            }
        }
    }
    w.buf
}

/// Checks that width-`w` key rows in a flat arena are strictly ascending.
fn check_keys_ascending(keys: &[u32], width: usize, what: &str) -> Result<(), ProtocolError> {
    if width == 0 {
        return Err(malformed(format!("{what}: zero key width")));
    }
    let ok = keys
        .chunks_exact(width)
        .zip(keys.chunks_exact(width).skip(1))
        .all(|(a, b)| a < b);
    if !ok {
        return Err(malformed(format!("{what}: keys not strictly ascending")));
    }
    Ok(())
}

/// Checks that a CSR offsets column starts at 0, never decreases, and ends
/// exactly at `total`; returns the offsets as `usize`.
fn check_offsets(
    offsets: &[u64],
    num_keys: usize,
    total: usize,
    what: &str,
) -> Result<Vec<usize>, ProtocolError> {
    if offsets.len() != num_keys + 1 {
        return Err(malformed(format!("{what}: bad offsets length")));
    }
    if offsets.first() != Some(&0) {
        return Err(malformed(format!("{what}: offsets do not start at 0")));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed(format!("{what}: offsets decrease")));
    }
    if offsets.last() != Some(&(total as u64)) {
        return Err(malformed(format!(
            "{what}: offsets end at {:?}, expected {total}",
            offsets.last()
        )));
    }
    offsets
        .iter()
        .map(|&o| usize::try_from(o).map_err(|_| malformed(format!("{what}: offset overflows"))))
        .collect()
}

fn decode_output(payload: &[u8]) -> Result<AnalyticsOutput, ProtocolError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    let out = match tag {
        1 => {
            let n = c.len_field(4 + 8, "wordCount row")?;
            let words = c.u32_vec(n)?;
            let counts = c.u64_vec(n)?;
            check_keys_ascending(&words, 1, "wordCount")?;
            AnalyticsOutput::WordCount(WordCountResult::from_sorted_columns(words, counts))
        }
        2 => {
            let n = c.len_field(4 + 8, "sort row")?;
            let words = c.u32_vec(n)?;
            let counts = c.u64_vec(n)?;
            AnalyticsOutput::Sort(SortResult {
                ranked: words.into_iter().zip(counts).collect(),
            })
        }
        3 => {
            let n = c.len_field(4 + 8, "invertedIndex key")?;
            let words = c.u32_vec(n)?;
            let offsets = c.u64_vec(n + 1)?;
            let m = c.len_check_total(&offsets, 4, "invertedIndex posting")?;
            let files = c.u32_vec(m)?;
            check_keys_ascending(&words, 1, "invertedIndex")?;
            let offsets = check_offsets(&offsets, n, m, "invertedIndex")?;
            AnalyticsOutput::InvertedIndex(InvertedIndexResult::from_sorted_parts(
                words, offsets, files,
            ))
        }
        4 => {
            let nf = c.len_field(8, "termVector file")?;
            let offsets = c.u64_vec(nf + 1)?;
            let m = c.len_check_total(&offsets, 4 + 8, "termVector term")?;
            let words = c.u32_vec(m)?;
            let counts = c.u64_vec(m)?;
            let offsets = check_offsets(&offsets, nf, m, "termVector")?;
            let mut rows = Vec::with_capacity(nf);
            for f in 0..nf {
                let row: Vec<(u32, u64)> = (offsets[f]..offsets[f + 1])
                    .map(|i| (words[i], counts[i]))
                    .collect();
                if row.windows(2).any(|w| w[0].0 >= w[1].0) {
                    return Err(malformed(format!("termVector: file {f} row not ascending")));
                }
                rows.push(row);
            }
            AnalyticsOutput::TermVector(TermVectorResult::from_rows(rows))
        }
        5 => {
            let l = usize::try_from(c.u64()?)
                .map_err(|_| malformed("sequenceCount: l overflows"))?;
            if l == 0 {
                return Err(malformed("sequenceCount: zero sequence length"));
            }
            let per_row = l
                .checked_mul(4)
                .and_then(|k| k.checked_add(8))
                .ok_or_else(|| malformed("sequenceCount: l overflows"))?;
            let n = c.len_field(per_row, "sequenceCount row")?;
            let keys = c.u32_vec(n * l)?;
            let counts = c.u64_vec(n)?;
            check_keys_ascending(&keys, l, "sequenceCount")?;
            AnalyticsOutput::SequenceCount(SequenceCountResult::from_sorted_columns(
                l, keys, counts,
            ))
        }
        6 => {
            let l = usize::try_from(c.u64()?)
                .map_err(|_| malformed("rankedInvertedIndex: l overflows"))?;
            if l == 0 {
                return Err(malformed("rankedInvertedIndex: zero sequence length"));
            }
            let per_key = l
                .checked_mul(4)
                .and_then(|k| k.checked_add(8))
                .ok_or_else(|| malformed("rankedInvertedIndex: l overflows"))?;
            let n = c.len_field(per_key, "rankedInvertedIndex key")?;
            let keys = c.u32_vec(n * l)?;
            let offsets = c.u64_vec(n + 1)?;
            let m = c.len_check_total(&offsets, 4 + 8, "rankedInvertedIndex posting")?;
            let files = c.u32_vec(m)?;
            let counts = c.u64_vec(m)?;
            check_keys_ascending(&keys, l, "rankedInvertedIndex")?;
            let offsets = check_offsets(&offsets, n, m, "rankedInvertedIndex")?;
            let postings: Vec<(u32, u64)> = files.into_iter().zip(counts).collect();
            AnalyticsOutput::RankedInvertedIndex(RankedInvertedIndexResult::from_sorted_parts(
                l, keys, offsets, postings,
            ))
        }
        other => return Err(malformed(format!("unknown result tag {other}"))),
    };
    c.finish()?;
    Ok(out)
}

impl<'a> Cursor<'a> {
    /// Validates a CSR total (the last offset) as an element count small
    /// enough that `total * elem_size` bytes can still follow — the same
    /// allocation bound as [`len_field`](Self::len_field), for totals that
    /// arrive inside an offsets column instead of as their own field.
    fn len_check_total(
        &self,
        offsets: &[u64],
        elem_size: usize,
        what: &str,
    ) -> Result<usize, ProtocolError> {
        let raw = offsets.last().copied().unwrap_or(0);
        let total =
            usize::try_from(raw).map_err(|_| malformed(format!("{what} count overflows")))?;
        let bytes = total
            .checked_mul(elem_size)
            .ok_or_else(|| malformed(format!("{what} count overflows")))?;
        if bytes > self.remaining() {
            return Err(malformed(format!(
                "{what} count {total} needs {bytes} bytes but only {} remain",
                self.remaining()
            )));
        }
        Ok(total)
    }
}

/// Encodes a response as one complete frame.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Result(out) => frame(KIND_RESULT, encode_output(out)),
        Response::Error(e) => {
            let mut w = Writer::new();
            w.u8(e.code.to_byte());
            // Truncate absurdly long messages rather than overflowing the
            // frame cap; 64 KiB of detail is plenty.
            let msg = e.message.as_bytes();
            let msg = &msg[..floor_char_boundary(&e.message, msg.len().min(64 * 1024))];
            w.u32(msg.len() as u32);
            w.buf.extend_from_slice(msg);
            frame(KIND_ERROR, w.buf)
        }
        Response::Overloaded {
            queue_depth,
            capacity,
        } => {
            let mut w = Writer::new();
            w.u32(*queue_depth);
            w.u32(*capacity);
            frame(KIND_OVERLOADED, w.buf)
        }
        Response::Stats(s) => {
            let mut w = Writer::new();
            for v in [
                s.accepted_connections,
                s.queries_answered,
                s.shed,
                s.refused,
                s.max_queue_depth,
                s.batches,
                s.batched_queries,
                s.protocol_errors,
            ] {
                w.u64(v);
            }
            frame(KIND_STATS_REPLY, w.buf)
        }
        Response::ShutdownAck => frame(KIND_SHUTDOWN_ACK, Vec::new()),
    }
}

/// Largest byte index `<= max` that falls on a char boundary of `s`.
fn floor_char_boundary(s: &str, max: usize) -> usize {
    let mut i = max.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Parses a response payload for `kind` (as returned by [`decode_header`]).
pub fn parse_response(kind: u8, payload: &[u8]) -> Result<Response, ProtocolError> {
    match kind {
        KIND_RESULT => Ok(Response::Result(decode_output(payload)?)),
        KIND_ERROR => {
            let mut c = Cursor::new(payload);
            let code = WireErrorCode::from_byte(c.u8()?)
                .ok_or_else(|| malformed("unknown error code"))?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let message = std::str::from_utf8(bytes)
                .map_err(|_| malformed("error message is not UTF-8"))?
                .to_string();
            c.finish()?;
            Ok(Response::Error(WireError { code, message }))
        }
        KIND_OVERLOADED => {
            let mut c = Cursor::new(payload);
            let queue_depth = c.u32()?;
            let capacity = c.u32()?;
            c.finish()?;
            Ok(Response::Overloaded {
                queue_depth,
                capacity,
            })
        }
        KIND_STATS_REPLY => {
            let mut c = Cursor::new(payload);
            let s = StatsSnapshot {
                accepted_connections: c.u64()?,
                queries_answered: c.u64()?,
                shed: c.u64()?,
                refused: c.u64()?,
                max_queue_depth: c.u64()?,
                batches: c.u64()?,
                batched_queries: c.u64()?,
                protocol_errors: c.u64()?,
            };
            c.finish()?;
            Ok(Response::Stats(s))
        }
        KIND_SHUTDOWN_ACK => {
            Cursor::new(payload).finish()?;
            Ok(Response::ShutdownAck)
        }
        other => Err(ProtocolError::UnknownKind(other)),
    }
}

/// Decodes one response frame off the front of `buf`; returns the response
/// and the bytes consumed.
pub fn decode_response(buf: &[u8]) -> Result<(Response, usize), ProtocolError> {
    let (kind, payload, consumed) = decode_frame(buf)?;
    Ok((parse_response(kind, payload)?, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outputs() -> Vec<AnalyticsOutput> {
        vec![
            AnalyticsOutput::WordCount(WordCountResult::from_sorted_columns(
                vec![1, 5, 9],
                vec![10, 2, 7],
            )),
            AnalyticsOutput::Sort(SortResult {
                ranked: vec![(1, 10), (9, 7), (5, 2)],
            }),
            AnalyticsOutput::InvertedIndex(InvertedIndexResult::from_sorted_parts(
                vec![2, 4],
                vec![0, 2, 3],
                vec![0, 1, 1],
            )),
            AnalyticsOutput::TermVector(TermVectorResult::from_rows(vec![
                vec![(1, 2), (3, 1)],
                vec![],
                vec![(2, 5)],
            ])),
            AnalyticsOutput::SequenceCount(SequenceCountResult::from_sorted_columns(
                2,
                vec![1, 2, 1, 3],
                vec![4, 1],
            )),
            AnalyticsOutput::RankedInvertedIndex(RankedInvertedIndexResult::from_sorted_parts(
                2,
                vec![1, 2, 1, 3],
                vec![0, 1, 3],
                vec![(0, 9), (1, 3), (0, 1)],
            )),
        ]
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Query(QueryRequest {
                task: Task::SequenceCount,
                cfg: TaskConfig { sequence_length: 4 },
                deadline_ms: Some(250),
            }),
            Request::Query(QueryRequest {
                task: Task::WordCount,
                cfg: TaskConfig::default(),
                deadline_ms: None,
            }),
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            let (back, consumed) = decode_request(&bytes).expect("round trip");
            assert_eq!(back, req);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn responses_round_trip_byte_identically() {
        let mut resps: Vec<Response> = sample_outputs().into_iter().map(Response::Result).collect();
        resps.push(Response::Error(WireError::new(
            WireErrorCode::DeadlineExceeded,
            "query deadline exceeded",
        )));
        resps.push(Response::Overloaded {
            queue_depth: 7,
            capacity: 8,
        });
        resps.push(Response::Stats(StatsSnapshot {
            accepted_connections: 3,
            queries_answered: 40,
            shed: 2,
            refused: 1,
            max_queue_depth: 6,
            batches: 9,
            batched_queries: 31,
            protocol_errors: 0,
        }));
        resps.push(Response::ShutdownAck);
        for resp in resps {
            let bytes = encode_response(&resp);
            let (back, consumed) = decode_response(&bytes).expect("round trip");
            assert_eq!(consumed, bytes.len());
            assert_eq!(back, resp);
            // Byte-identity: re-encoding the decoded value reproduces the
            // original frame exactly.
            assert_eq!(encode_response(&back), bytes);
        }
    }

    #[test]
    fn digests_survive_the_wire() {
        for out in sample_outputs() {
            let bytes = encode_response(&Response::Result(out.clone()));
            let (back, _) = decode_response(&bytes).expect("decode");
            match back {
                Response::Result(got) => assert_eq!(got.digest(), out.digest()),
                other => panic!("expected a result, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_errors_are_typed() {
        assert!(matches!(
            decode_header(b"NOPE\x01\x01\x00\x00\x00\x00"),
            Err(ProtocolError::BadMagic(_))
        ));
        let mut wrong_version = encode_request(&Request::Stats);
        wrong_version[4] = 99;
        assert!(matches!(
            decode_header(&wrong_version),
            Err(ProtocolError::UnsupportedVersion(99))
        ));
        // An unknown kind leaves the header parseable (the stream stays in
        // sync); the typed error surfaces at request parse time.
        let mut unknown_kind = encode_request(&Request::Stats);
        unknown_kind[5] = 0x7f;
        assert!(decode_header(&unknown_kind).is_ok());
        assert!(matches!(
            decode_request(&unknown_kind),
            Err(ProtocolError::UnknownKind(0x7f))
        ));
        let mut oversized = encode_request(&Request::Stats);
        oversized[6..10].copy_from_slice(&(MAX_PAYLOAD_LEN + 1).to_le_bytes());
        assert!(matches!(
            decode_header(&oversized),
            Err(ProtocolError::Oversized { .. })
        ));
        assert!(matches!(
            decode_header(&[0u8; 3]),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn framing_fatality_is_classified() {
        assert!(is_framing_fatal(&ProtocolError::BadMagic([0; 4])));
        assert!(is_framing_fatal(&ProtocolError::Oversized { declared: 1 }));
        assert!(is_framing_fatal(&ProtocolError::Truncated {
            needed: 10,
            got: 3
        }));
        assert!(!is_framing_fatal(&ProtocolError::UnknownKind(0x7f)));
        assert!(!is_framing_fatal(&ProtocolError::Malformed("x".into())));
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        // Non-ascending word column.
        let good = encode_response(&Response::Result(AnalyticsOutput::WordCount(
            WordCountResult::from_sorted_columns(vec![1, 5], vec![1, 1]),
        )));
        let mut swapped = good.clone();
        // words start right after header + tag + n(u64); rotating the two
        // u32 words reverses their order.
        let base = HEADER_LEN + 1 + 8;
        swapped[base..base + 8].rotate_left(4);
        assert!(matches!(
            decode_response(&swapped),
            Err(ProtocolError::Malformed(_))
        ));

        // A length field pointing past the payload.
        let mut hungry = good.clone();
        hungry[HEADER_LEN + 1..HEADER_LEN + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&hungry),
            Err(ProtocolError::Malformed(_))
        ));

        // Trailing garbage after a valid payload (frame len enlarged).
        let mut trailing = good;
        trailing.extend_from_slice(&[0xAA; 4]);
        let new_len = (trailing.len() - HEADER_LEN) as u32;
        trailing[6..10].copy_from_slice(&new_len.to_le_bytes());
        assert!(matches!(
            decode_response(&trailing),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn engine_errors_map_to_wire_codes() {
        assert_eq!(
            WireError::from(&EngineError::DeadlineExceeded).code,
            WireErrorCode::DeadlineExceeded
        );
        assert_eq!(
            WireError::from(&EngineError::Cancelled).code,
            WireErrorCode::Cancelled
        );
        assert_eq!(
            WireError::from(&EngineError::WorkerPanicked {
                message: "boom".into()
            })
            .code,
            WireErrorCode::WorkerPanicked
        );
    }
}
