//! The wire protocol: a hand-rolled, dependency-free, length-prefixed
//! binary framing over TCP.
//!
//! Every frame on the wire is a little-endian `u32` payload length
//! followed by the payload; the payload's first byte is the frame kind,
//! the rest is the kind-specific body. Client-originated kinds occupy
//! `0x01..=0x7f`, server-originated kinds `0x80..=0xff`. All integers
//! are little-endian; flows and sample probabilities travel as raw IEEE
//! 754 bit patterns (`f64::to_bits`), so a ranking read off the wire is
//! **bit-identical** to the one the engine computed — the property the
//! server's end-to-end tests gate on.
//!
//! Both directions are total: encoding a frame whose collections
//! exceed their wire count fields (or whose payload exceeds
//! [`MAX_FRAME_BYTES`]) is a clean error rather than a truncated
//! count and a corrupt frame, and any byte sequence either decodes to
//! a [`Frame`] or returns a [`ProtocolError`] — never a panic.
//! Truncated payloads,
//! oversized length prefixes ([`MAX_FRAME_BYTES`]), unknown kinds,
//! trailing garbage, and semantically invalid bodies (a sample set
//! whose probabilities do not sum to 1, a query with `k = 0`) are all
//! distinct, clean errors. A body-level error consumes the frame, so a
//! connection survives one malformed payload as long as the framing
//! itself is intact.

use std::fmt;
use std::io::{self, Read, Write};

use indoor_iupt::{ObjectId, Record, Sample, SampleSet, Timestamp};
use indoor_model::PLocId;

/// Version tag exchanged in [`Frame::Hello`] / [`Frame::Welcome`].
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard ceiling on a frame's payload length. A length prefix above
/// this is rejected before any allocation — the one framing error a
/// connection cannot recover from (the stream can no longer be
/// resynchronized) .
pub const MAX_FRAME_BYTES: u32 = 8 * 1024 * 1024;

/// Connection roles declared in [`Frame::Hello`].
pub mod role {
    /// The connection registers queries, receives deltas, and scrapes
    /// metrics; it never gates the ingest merge.
    pub const CONTROL: u8 = 0;
    /// The connection streams record batches; the scheduler's release
    /// watermark waits on it until it sends [`super::Frame::StreamEnd`].
    pub const INGEST: u8 = 1;
}

/// Error codes carried by [`Frame::Error`].
pub mod error_code {
    /// Malformed frame (decode failed; the connection stays open when
    /// the framing itself was intact).
    pub const PROTOCOL: u8 = 1;
    /// A semantically valid frame the server refused (out-of-order
    /// batch, unknown query id, invalid spec).
    pub const REJECTED: u8 = 2;
    /// The engine is out of service (poisoned by a failed advance).
    pub const UNAVAILABLE: u8 = 3;
}

mod kind {
    pub const HELLO: u8 = 0x01;
    pub const INGEST_BATCH: u8 = 0x02;
    pub const REGISTER: u8 = 0x03;
    pub const UNREGISTER: u8 = 0x04;
    pub const STREAM_END: u8 = 0x05;
    pub const METRICS_REQUEST: u8 = 0x06;
    pub const WELCOME: u8 = 0x81;
    pub const BATCH_ACK: u8 = 0x82;
    pub const THROTTLE: u8 = 0x83;
    pub const REGISTERED: u8 = 0x84;
    pub const UNREGISTERED: u8 = 0x85;
    pub const TOPK_DELTA: u8 = 0x86;
    pub const METRICS_TEXT: u8 = 0x87;
    pub const ERROR: u8 = 0x88;
}

/// One protocol frame, either direction. See the module docs for the
/// wire layout; the variants mirror the serving engine's API surface
/// (`ingest_all` / `register` / `unregister` / `advance_all` deltas).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// First frame on every connection: protocol version + declared
    /// [`role`].
    Hello {
        /// Must equal [`PROTOCOL_VERSION`].
        version: u32,
        /// [`role::CONTROL`] or [`role::INGEST`].
        role: u8,
    },
    /// A batch of records, time-ordered within the batch and at or
    /// after every record this connection sent before. Acknowledged by
    /// [`Frame::BatchAck`] once drained into the engine, or refused
    /// wholesale by [`Frame::Throttle`] when the ingest queue is full.
    IngestBatch {
        /// Client-chosen sequence number, echoed in the ack/throttle.
        seq: u64,
        /// The records, oldest first.
        records: Vec<Record>,
    },
    /// Registers a standing top-k query; the connection is subscribed
    /// to its [`Frame::TopkDelta`] stream. Answered by
    /// [`Frame::Registered`] or [`Frame::Error`].
    Register {
        /// Result size (≥ 1).
        k: u32,
        /// Bucket width in ms — must match the engine's granularity.
        bucket_millis: i64,
        /// Window length in buckets (≥ 1).
        window_buckets: u32,
        /// The queried semantic locations (non-empty, raw `SLocId`s).
        slocs: Vec<u32>,
    },
    /// Removes a registered query. Answered by [`Frame::Unregistered`]
    /// or [`Frame::Error`].
    Unregister {
        /// The handle from [`Frame::Registered`].
        query_id: u64,
    },
    /// No more batches from this connection: its release watermark
    /// jumps to the end of time, so it never again gates the merge.
    StreamEnd,
    /// Asks for a [`Frame::MetricsText`] snapshot (the same text a
    /// `GET /metrics` scrape returns).
    MetricsRequest,
    /// Server's reply to [`Frame::Hello`].
    Welcome {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Server-assigned connection id (diagnostic).
        conn_id: u64,
    },
    /// A batch fully drained into the engine.
    BatchAck {
        /// Echo of the batch's sequence number.
        seq: u64,
        /// Records the engine accepted.
        accepted: u32,
        /// Records the engine rejected (late/regressing timestamps).
        rejected: u32,
    },
    /// Backpressure: the batch was **not** enqueued — the bounded
    /// ingest queue is full. Re-send it after a pause.
    Throttle {
        /// Echo of the refused batch's sequence number.
        seq: u64,
        /// Records queued server-wide when the batch was refused.
        queued_records: u64,
        /// The queue's capacity in records.
        capacity_records: u64,
    },
    /// Reply to [`Frame::Register`].
    Registered {
        /// The new query's handle.
        query_id: u64,
    },
    /// Reply to [`Frame::Unregister`].
    Unregistered {
        /// The removed query's handle.
        query_id: u64,
    },
    /// One query's update for one window advance, in `diff_topk`
    /// semantics: the full fresh ranking plus what entered and left
    /// relative to the previous advance.
    TopkDelta {
        /// The query this delta belongs to.
        query_id: u64,
        /// The advance instant (the `now` of `advance_all`), ms.
        advance_millis: i64,
        /// Window start, ms (inclusive).
        window_start_millis: i64,
        /// Window end, ms (inclusive).
        window_end_millis: i64,
        /// Whether the top-k *set* changed since the previous advance.
        changed: bool,
        /// The fresh ranking, best first: `(raw SLocId, f64::to_bits
        /// of the flow)`.
        ranking: Vec<(u32, u64)>,
        /// Locations that entered the top-k set (raw `SLocId`s).
        entered: Vec<u32>,
        /// Locations that left the top-k set (raw `SLocId`s).
        left: Vec<u32>,
    },
    /// Prometheus text exposition of the server + engine registries.
    MetricsText {
        /// The exposition body (UTF-8).
        text: String,
    },
    /// A refusal or failure notice; see [`error_code`].
    Error {
        /// One of the [`error_code`] constants.
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
}

/// Why a payload failed to decode (or a length prefix was unusable).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The payload ended before the structure it promised.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// Bytes remained after a complete frame body.
    TrailingBytes {
        /// How many were left over.
        extra: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The offending length prefix.
        len: u32,
    },
    /// The length prefix was zero (a payload has at least a kind byte).
    EmptyFrame,
    /// The kind byte matches no known frame.
    UnknownKind(u8),
    /// Structurally complete but semantically invalid (bad sample set,
    /// `k = 0`, non-UTF-8 text, …).
    Invalid(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: needed {needed} more bytes, have {have}"
                )
            }
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame body")
            }
            ProtocolError::Oversized { len } => {
                write!(
                    f,
                    "length prefix {len} exceeds the {MAX_FRAME_BYTES}-byte frame ceiling"
                )
            }
            ProtocolError::EmptyFrame => write!(f, "zero-length frame"),
            ProtocolError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            ProtocolError::Invalid(detail) => write!(f, "invalid frame body: {detail}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A frame-level read failure: transport I/O or protocol.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (or timed out — see
    /// [`WireError::is_interrupted`]).
    Io(io::Error),
    /// The bytes arrived but were not a valid frame.
    Protocol(ProtocolError),
}

impl WireError {
    /// Whether this is a retryable read timeout/interrupt rather than a
    /// real failure — a [`FrameReader`] keeps its partial buffer, so
    /// the caller can simply call again.
    pub fn is_interrupted(&self) -> bool {
        match self {
            WireError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ),
            WireError::Protocol(_) => false,
        }
    }

    /// Whether the connection can keep framing after this error: body
    /// errors consume their frame, framing errors cannot resync.
    pub fn is_recoverable(&self) -> bool {
        match self {
            WireError::Io(_) => false,
            WireError::Protocol(p) => !matches!(
                p,
                ProtocolError::Oversized { .. } | ProtocolError::EmptyFrame
            ),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<ProtocolError> for WireError {
    fn from(e: ProtocolError) -> Self {
        WireError::Protocol(e)
    }
}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Checks a collection length against the range of its wire count
/// field, so an oversized collection becomes a clean encode error
/// instead of an `as`-truncated count and a silently corrupt frame.
fn wire_count<T: TryFrom<usize>>(n: usize, what: &str) -> Result<T, ProtocolError> {
    T::try_from(n)
        .map_err(|_| ProtocolError::Invalid(format!("{what} count {n} exceeds its wire field")))
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), ProtocolError> {
    put_u32(out, wire_count(s.len(), "string byte")?);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_u32_list(out: &mut Vec<u8>, items: &[u32]) -> Result<(), ProtocolError> {
    put_u32(out, wire_count(items.len(), "id list")?);
    for &v in items {
        put_u32(out, v);
    }
    Ok(())
}

impl Frame {
    /// Encodes the payload (kind byte + body, no length prefix).
    /// Fails with [`ProtocolError::Invalid`] when a collection exceeds
    /// its wire count field's range — encoding, like decoding, never
    /// produces a corrupt frame.
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut out = Vec::with_capacity(16);
        match self {
            Frame::Hello { version, role } => {
                out.push(kind::HELLO);
                put_u32(&mut out, *version);
                out.push(*role);
            }
            Frame::IngestBatch { seq, records } => {
                out.push(kind::INGEST_BATCH);
                put_u64(&mut out, *seq);
                put_u32(&mut out, wire_count(records.len(), "record")?);
                for r in records {
                    put_u32(&mut out, r.oid.0);
                    put_i64(&mut out, r.t.millis());
                    let samples = r.samples.samples();
                    put_u16(&mut out, wire_count(samples.len(), "sample")?);
                    for s in samples {
                        put_u32(&mut out, s.loc.0);
                        put_u64(&mut out, s.prob.to_bits());
                    }
                }
            }
            Frame::Register {
                k,
                bucket_millis,
                window_buckets,
                slocs,
            } => {
                out.push(kind::REGISTER);
                put_u32(&mut out, *k);
                put_i64(&mut out, *bucket_millis);
                put_u32(&mut out, *window_buckets);
                put_u32_list(&mut out, slocs)?;
            }
            Frame::Unregister { query_id } => {
                out.push(kind::UNREGISTER);
                put_u64(&mut out, *query_id);
            }
            Frame::StreamEnd => out.push(kind::STREAM_END),
            Frame::MetricsRequest => out.push(kind::METRICS_REQUEST),
            Frame::Welcome { version, conn_id } => {
                out.push(kind::WELCOME);
                put_u32(&mut out, *version);
                put_u64(&mut out, *conn_id);
            }
            Frame::BatchAck {
                seq,
                accepted,
                rejected,
            } => {
                out.push(kind::BATCH_ACK);
                put_u64(&mut out, *seq);
                put_u32(&mut out, *accepted);
                put_u32(&mut out, *rejected);
            }
            Frame::Throttle {
                seq,
                queued_records,
                capacity_records,
            } => {
                out.push(kind::THROTTLE);
                put_u64(&mut out, *seq);
                put_u64(&mut out, *queued_records);
                put_u64(&mut out, *capacity_records);
            }
            Frame::Registered { query_id } => {
                out.push(kind::REGISTERED);
                put_u64(&mut out, *query_id);
            }
            Frame::Unregistered { query_id } => {
                out.push(kind::UNREGISTERED);
                put_u64(&mut out, *query_id);
            }
            Frame::TopkDelta {
                query_id,
                advance_millis,
                window_start_millis,
                window_end_millis,
                changed,
                ranking,
                entered,
                left,
            } => {
                out.push(kind::TOPK_DELTA);
                put_u64(&mut out, *query_id);
                put_i64(&mut out, *advance_millis);
                put_i64(&mut out, *window_start_millis);
                put_i64(&mut out, *window_end_millis);
                out.push(u8::from(*changed));
                put_u16(&mut out, wire_count(ranking.len(), "ranking")?);
                for &(sloc, flow_bits) in ranking {
                    put_u32(&mut out, sloc);
                    put_u64(&mut out, flow_bits);
                }
                put_u32_list(&mut out, entered)?;
                put_u32_list(&mut out, left)?;
            }
            Frame::MetricsText { text } => {
                out.push(kind::METRICS_TEXT);
                put_str(&mut out, text)?;
            }
            Frame::Error { code, detail } => {
                out.push(kind::ERROR);
                out.push(*code);
                put_str(&mut out, detail)?;
            }
        }
        Ok(out)
    }

    /// Decodes one payload (kind byte + body). The whole payload must
    /// be consumed ([`ProtocolError::TrailingBytes`] otherwise).
    pub fn decode(payload: &[u8]) -> Result<Frame, ProtocolError> {
        let mut cur = Cur::new(payload);
        let k = cur.u8()?;
        let frame = match k {
            kind::HELLO => Frame::Hello {
                version: cur.u32()?,
                role: cur.u8()?,
            },
            kind::INGEST_BATCH => {
                let seq = cur.u64()?;
                let count = cur.u32()? as usize;
                // Minimum record: oid(4) + t(8) + sample count(2).
                cur.reserve_items(count, 14)?;
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    let oid = ObjectId(cur.u32()?);
                    let t = Timestamp(cur.i64()?);
                    let nsamples = cur.u16()? as usize;
                    // Sample: ploc(4) + prob bits(8).
                    cur.reserve_items(nsamples, 12)?;
                    let mut samples = Vec::with_capacity(nsamples);
                    for _ in 0..nsamples {
                        let loc = PLocId(cur.u32()?);
                        let prob = f64::from_bits(cur.u64()?);
                        samples.push(Sample::new(loc, prob));
                    }
                    let samples = SampleSet::new(samples)
                        .map_err(|e| ProtocolError::Invalid(format!("record sample set: {e}")))?;
                    records.push(Record { oid, t, samples });
                }
                Frame::IngestBatch { seq, records }
            }
            kind::REGISTER => {
                let k = cur.u32()?;
                let bucket_millis = cur.i64()?;
                let window_buckets = cur.u32()?;
                let slocs = cur.u32_list()?;
                if k == 0 {
                    return Err(ProtocolError::Invalid("query k must be >= 1".to_string()));
                }
                if bucket_millis <= 0 {
                    return Err(ProtocolError::Invalid(format!(
                        "bucket width must be positive, got {bucket_millis}ms"
                    )));
                }
                if window_buckets == 0 {
                    return Err(ProtocolError::Invalid(
                        "window must span at least one bucket".to_string(),
                    ));
                }
                if slocs.is_empty() {
                    return Err(ProtocolError::Invalid(
                        "query location set must be non-empty".to_string(),
                    ));
                }
                Frame::Register {
                    k,
                    bucket_millis,
                    window_buckets,
                    slocs,
                }
            }
            kind::UNREGISTER => Frame::Unregister {
                query_id: cur.u64()?,
            },
            kind::STREAM_END => Frame::StreamEnd,
            kind::METRICS_REQUEST => Frame::MetricsRequest,
            kind::WELCOME => Frame::Welcome {
                version: cur.u32()?,
                conn_id: cur.u64()?,
            },
            kind::BATCH_ACK => Frame::BatchAck {
                seq: cur.u64()?,
                accepted: cur.u32()?,
                rejected: cur.u32()?,
            },
            kind::THROTTLE => Frame::Throttle {
                seq: cur.u64()?,
                queued_records: cur.u64()?,
                capacity_records: cur.u64()?,
            },
            kind::REGISTERED => Frame::Registered {
                query_id: cur.u64()?,
            },
            kind::UNREGISTERED => Frame::Unregistered {
                query_id: cur.u64()?,
            },
            kind::TOPK_DELTA => {
                let query_id = cur.u64()?;
                let advance_millis = cur.i64()?;
                let window_start_millis = cur.i64()?;
                let window_end_millis = cur.i64()?;
                let changed = match cur.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(ProtocolError::Invalid(format!(
                            "changed flag must be 0 or 1, got {other}"
                        )))
                    }
                };
                let nrank = cur.u16()? as usize;
                cur.reserve_items(nrank, 12)?;
                let mut ranking = Vec::with_capacity(nrank);
                for _ in 0..nrank {
                    let sloc = cur.u32()?;
                    let flow_bits = cur.u64()?;
                    ranking.push((sloc, flow_bits));
                }
                Frame::TopkDelta {
                    query_id,
                    advance_millis,
                    window_start_millis,
                    window_end_millis,
                    changed,
                    ranking,
                    entered: cur.u32_list()?,
                    left: cur.u32_list()?,
                }
            }
            kind::METRICS_TEXT => Frame::MetricsText { text: cur.str()? },
            kind::ERROR => Frame::Error {
                code: cur.u8()?,
                detail: cur.str()?,
            },
            other => return Err(ProtocolError::UnknownKind(other)),
        };
        cur.finish()?;
        Ok(frame)
    }

    /// Writes the frame with its length prefix to `w` (no flush — the
    /// caller owns buffering). A payload over [`MAX_FRAME_BYTES`] is
    /// refused before any byte hits the wire
    /// ([`ProtocolError::Oversized`]): the peer would reject the
    /// length prefix anyway, and by then the stream could no longer be
    /// resynchronized.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), WireError> {
        let payload = self.encode()?;
        if payload.len() > MAX_FRAME_BYTES as usize {
            return Err(ProtocolError::Oversized {
                len: u32::try_from(payload.len()).unwrap_or(u32::MAX),
            }
            .into());
        }
        let len = payload.len() as u32;
        w.write_all(&len.to_le_bytes())?;
        w.write_all(&payload)?;
        Ok(())
    }
}

// ---------------------------------------------------------------- decode

/// A bounds-checked little-endian cursor over one payload.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Guards `Vec::with_capacity(count)` against forged counts: the
    /// remaining bytes must plausibly hold `count` items of at least
    /// `min_size` bytes each.
    fn reserve_items(&self, count: usize, min_size: usize) -> Result<(), ProtocolError> {
        let needed = count.saturating_mul(min_size);
        if needed > self.remaining() {
            return Err(ProtocolError::Truncated {
                needed,
                have: self.remaining(),
            });
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        // anlz:allow(panic-in-hot-path): take(2) returned exactly 2 bytes
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        // anlz:allow(panic-in-hot-path): take(4) returned exactly 4 bytes
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        // anlz:allow(panic-in-hot-path): take(8) returned exactly 8 bytes
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(self.u64()? as i64)
    }

    fn str(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtocolError::Invalid("string is not UTF-8".to_string()))
    }

    fn u32_list(&mut self) -> Result<Vec<u32>, ProtocolError> {
        let count = self.u32()? as usize;
        self.reserve_items(count, 4)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.remaining() > 0 {
            return Err(ProtocolError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// An incremental frame parser over any [`Read`] transport.
///
/// Partial reads (including read timeouts on a socket) never lose
/// bytes: the reader buffers what arrived and resumes on the next
/// call, which is what lets the server poll a shutdown flag between
/// timed-out reads. Frame-body decode errors consume the offending
/// frame, so the caller can answer with [`Frame::Error`] and keep
/// reading; framing errors ([`WireError::is_recoverable`] == false)
/// require closing the connection.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a transport.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
        }
    }

    /// The buffered, not-yet-parsed bytes.
    pub fn buffered(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    fn fill(&mut self) -> Result<usize, WireError> {
        self.compact();
        let mut chunk = [0u8; 4096];
        let n = self.inner.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Buffers until at least `n` bytes are available and returns them
    /// without consuming; `Ok(None)` means EOF arrived first.
    pub fn peek(&mut self, n: usize) -> Result<Option<&[u8]>, WireError> {
        while self.buf.len() - self.start < n {
            if self.fill()? == 0 {
                return Ok(None);
            }
        }
        Ok(Some(&self.buf[self.start..self.start + n]))
    }

    /// Consumes `n` buffered bytes (at most what [`FrameReader::peek`]
    /// confirmed).
    pub fn consume(&mut self, n: usize) {
        self.start = (self.start + n).min(self.buf.len());
    }

    /// Parses the next frame. `Ok(None)` is a clean EOF at a frame
    /// boundary; an EOF mid-frame is a truncation error. Timeout-style
    /// I/O errors ([`WireError::is_interrupted`]) keep all buffered
    /// progress — call again.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        loop {
            let have = self.buf.len() - self.start;
            if have >= 4 {
                let b = &self.buf[self.start..self.start + 4];
                // anlz:allow(panic-in-hot-path): the `have >= 4` guard bounds the slice
                let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
                if len == 0 {
                    return Err(ProtocolError::EmptyFrame.into());
                }
                if len > MAX_FRAME_BYTES {
                    return Err(ProtocolError::Oversized { len }.into());
                }
                let total = 4 + len as usize;
                if have >= total {
                    let payload = &self.buf[self.start + 4..self.start + total];
                    let decoded = Frame::decode(payload);
                    // Consume the frame either way: a body error leaves
                    // the stream positioned at the next frame.
                    self.start += total;
                    return match decoded {
                        Ok(frame) => Ok(Some(frame)),
                        Err(e) => Err(e.into()),
                    };
                }
            }
            if self.fill()? == 0 {
                return if self.buf.len() == self.start {
                    Ok(None)
                } else {
                    Err(ProtocolError::Truncated {
                        needed: 4,
                        have: self.buf.len() - self.start,
                    }
                    .into())
                };
            }
        }
    }

    /// The wrapped transport (e.g. to set socket timeouts).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut wire = Vec::new();
        frame.write_to(&mut wire).expect("vec write");
        let mut reader = FrameReader::new(wire.as_slice());
        let got = reader.next_frame().expect("decode").expect("one frame");
        assert_eq!(got, frame);
        assert!(reader.next_frame().expect("clean eof").is_none());
    }

    #[test]
    fn every_variant_roundtrips() {
        let samples = SampleSet::new(vec![
            Sample::new(PLocId(3), 0.25),
            Sample::new(PLocId(9), 0.75),
        ])
        .expect("valid set");
        roundtrip(Frame::Hello {
            version: PROTOCOL_VERSION,
            role: role::INGEST,
        });
        roundtrip(Frame::IngestBatch {
            seq: 42,
            records: vec![Record {
                oid: ObjectId(7),
                t: Timestamp(123_456),
                samples,
            }],
        });
        roundtrip(Frame::Register {
            k: 5,
            bucket_millis: 2_000,
            window_buckets: 4,
            slocs: vec![1, 2, 3],
        });
        roundtrip(Frame::Unregister { query_id: 9 });
        roundtrip(Frame::StreamEnd);
        roundtrip(Frame::MetricsRequest);
        roundtrip(Frame::Welcome {
            version: PROTOCOL_VERSION,
            conn_id: 3,
        });
        roundtrip(Frame::BatchAck {
            seq: 42,
            accepted: 100,
            rejected: 1,
        });
        roundtrip(Frame::Throttle {
            seq: 43,
            queued_records: 4_096,
            capacity_records: 4_096,
        });
        roundtrip(Frame::Registered { query_id: 0 });
        roundtrip(Frame::Unregistered { query_id: 0 });
        roundtrip(Frame::TopkDelta {
            query_id: 1,
            advance_millis: 8_000,
            window_start_millis: 0,
            window_end_millis: 7_999,
            changed: true,
            ranking: vec![(6, 1.85f64.to_bits()), (2, 0.5f64.to_bits())],
            entered: vec![6],
            left: vec![4],
        });
        roundtrip(Frame::MetricsText {
            text: "# TYPE server_ingest_ns summary\n".to_string(),
        });
        roundtrip(Frame::Error {
            code: error_code::REJECTED,
            detail: "unknown query".to_string(),
        });
    }

    #[test]
    fn framing_errors_are_clean() {
        // Zero length prefix.
        let mut r = FrameReader::new(&[0u8, 0, 0, 0][..]);
        assert!(matches!(
            r.next_frame(),
            Err(WireError::Protocol(ProtocolError::EmptyFrame))
        ));
        // Oversized length prefix.
        let huge = (MAX_FRAME_BYTES + 1).to_le_bytes();
        let mut r = FrameReader::new(&huge[..]);
        assert!(matches!(
            r.next_frame(),
            Err(WireError::Protocol(ProtocolError::Oversized { .. }))
        ));
        // EOF mid-frame.
        let mut wire = Vec::new();
        Frame::StreamEnd.write_to(&mut wire).expect("vec write");
        wire.pop();
        wire[0] = 2; // promise 2 bytes, deliver 0 after truncation
        let mut r = FrameReader::new(&wire[..4]);
        assert!(matches!(
            r.next_frame(),
            Err(WireError::Protocol(ProtocolError::Truncated { .. }))
        ));
    }

    #[test]
    fn oversized_collections_fail_to_encode() {
        // A ranking longer than its u16 count field: a clean error,
        // not a silently truncated count.
        let frame = Frame::TopkDelta {
            query_id: 1,
            advance_millis: 0,
            window_start_millis: 0,
            window_end_millis: 0,
            changed: false,
            ranking: vec![(0, 0); usize::from(u16::MAX) + 1],
            entered: Vec::new(),
            left: Vec::new(),
        };
        assert!(matches!(
            frame.encode(),
            Err(ProtocolError::Invalid(detail)) if detail.contains("ranking count")
        ));
        let mut sink = Vec::new();
        assert!(frame.write_to(&mut sink).is_err());
        assert!(
            sink.is_empty(),
            "nothing may hit the wire on a failed encode"
        );
    }

    #[test]
    fn over_ceiling_payloads_fail_to_write() {
        // Encodes fine (every count fits), but the payload exceeds the
        // frame ceiling the peer would reject anyway.
        let frame = Frame::MetricsText {
            text: "x".repeat(MAX_FRAME_BYTES as usize + 1),
        };
        let mut sink = Vec::new();
        assert!(matches!(
            frame.write_to(&mut sink),
            Err(WireError::Protocol(ProtocolError::Oversized { .. }))
        ));
        assert!(
            sink.is_empty(),
            "nothing may hit the wire on a refused frame"
        );
    }

    #[test]
    fn body_error_consumes_the_frame() {
        // An unknown kind followed by a valid frame: the reader reports
        // the error, then parses the next frame normally.
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(0x7e); // unknown client kind
        Frame::StreamEnd.write_to(&mut wire).expect("vec write");
        let mut r = FrameReader::new(wire.as_slice());
        let err = r.next_frame().expect_err("unknown kind");
        assert!(matches!(
            err,
            WireError::Protocol(ProtocolError::UnknownKind(0x7e))
        ));
        assert!(err.is_recoverable());
        assert_eq!(r.next_frame().expect("next"), Some(Frame::StreamEnd));
    }
}
