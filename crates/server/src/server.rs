//! The server runtime: accept/reader/writer threads around one
//! work-driven scheduler thread that owns the serving engine.
//!
//! # Threading model
//!
//! - One **reader thread per connection** parses frames off the
//!   socket. Ingest batches go into the connection's bounded queue
//!   slice (or come straight back as a throttle); control frames
//!   (register/unregister/metrics) are enqueued as ops for the
//!   scheduler. Readers never touch the engine.
//! - One **writer thread per connection** drains a bounded channel of
//!   outbound frames. Every producer uses `try_send`: a consumer that
//!   stops reading fills its channel and is evicted, it can never
//!   bleed memory or stall the scheduler.
//! - The single **scheduler thread** owns the [`ServeEngine`]. One
//!   *pass* applies control ops, drains the ingest queues through a
//!   watermark-gated merge up to a record/byte budget — under the
//!   queue lock only the merge itself ([`crate::merge`]: records are
//!   moved into one pass-local run), then, with the lock released, one
//!   [`ServeEngine::ingest_run`] hand-off for the whole run, then the
//!   acks of the batches it finished — runs the window advances that
//!   became due (deadline- and count-bounded via
//!   [`ServeEngine::advance_due`]), pushes the resulting top-k deltas
//!   to subscribers, and reaps dead connections.
//!
//! # Waking
//!
//! There is no clock. Every event that can give the scheduler
//! something to do — a batch admitted, a control op queued, a
//! `StreamEnd`, a disconnect, an ingest Hello, a connection the
//! scheduler itself evicts — is *posted* under the queue lock
//! (`Shared::post`), which stamps the oldest unserved post and signals
//! the condition variable. The scheduler sleeps until a post (or
//! shutdown) arrives, and one pass serves every post made before it
//! took the lock. A pass that stopped on a budget with work
//! left (releasable records past the drain budget, or due advances past
//! the advance budget) is followed by the next pass at once. So a
//! record waits for the scheduler only while the scheduler is busy, and
//! an idle server does no work at all.
//!
//! # Determinism
//!
//! Clients partition objects across ingest connections (each object's
//! records always travel on the same connection, in time order). The
//! merge pops the globally smallest queued record, but only while no
//! *empty, still-open* ingest connection could later deliver an
//! earlier one — its watermark (the timestamp of the last record it
//! sent) is the proof. Advances run at bucket boundaries computed from
//! the merged event time, so the advance sequence — and therefore
//! every cache state and every flow bit pattern — is independent of
//! when passes run, thread scheduling, and network jitter.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use indoor_iupt::{Record, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use popflow_core::{QueryId, QuerySet, QuerySpec, WindowSpec};
use popflow_obs::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
use popflow_serve::{LateRecord, ServeConfig, ServeEngine};

use crate::merge::{merge_run, release_bound, IngestQueue, PendingBatch, Run};
use crate::metric_names as names;
use crate::protocol::{error_code, role, Frame, FrameReader, WireError, PROTOCOL_VERSION};
use crate::scenario::delta_frame;

/// How the server bounds its work. Everything here is a *bound*, not a
/// target: the scheduler runs when work is posted and sleeps otherwise.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The wrapped engine's configuration (shards, bucket width, flow
    /// parameters). Engine metrics are forced on so a scrape always has
    /// phase timings to export.
    pub serve: ServeConfig,
    /// Most records one scheduler pass may drain from the ingest queues
    /// into the engine. Records the budget leaves behind go in the
    /// next pass, which follows at once.
    pub drain_budget_records: usize,
    /// Most wire bytes' worth of records one pass may drain (estimated
    /// from encoded batch sizes).
    pub drain_budget_bytes: usize,
    /// Global bound on queued ingest records. A batch that would push
    /// the total past this is refused with a throttle frame — except
    /// that a connection with an empty queue may always enqueue one
    /// batch, so the merge can never deadlock on a starved gate. Peak
    /// resident queue is therefore at most `queue_capacity_records`
    /// plus one batch per connection.
    pub queue_capacity_records: usize,
    /// Most window advances one pass may run; the rest stay due and run
    /// in the passes that follow ([`ServeEngine::advance_due`]), with
    /// control ops and ingest served in between.
    pub max_advances_per_pass: usize,
    /// Soft deadline for a pass's advance phase, in microseconds
    /// (0 = none). Checked between advances; at least one due advance
    /// always runs.
    pub advance_deadline_micros: u64,
    /// Ingest connections that must have said Hello before the
    /// scheduler releases any record or runs any advance. Closes the
    /// startup race where an early connection's stream would otherwise
    /// be merged before a late one connects.
    pub min_ingest_streams: u32,
    /// Bound on each connection's outbound frame channel.
    pub outbound_frames: usize,
}

impl ServerConfig {
    /// Defaults: a 4096-record drain budget per pass, a 64 Ki-record
    /// queue, and at most 8 advances or 2 ms of advancing per pass.
    pub fn new(serve: ServeConfig) -> Self {
        ServerConfig {
            serve: serve.with_metrics(true),
            drain_budget_records: 4096,
            drain_budget_bytes: 1 << 20,
            queue_capacity_records: 65_536,
            max_advances_per_pass: 8,
            advance_deadline_micros: 2_000,
            min_ingest_streams: 0,
            outbound_frames: 1024,
        }
    }

    /// Overrides the per-pass drain budgets.
    pub fn with_ingest_budget(mut self, records: usize, bytes: usize) -> Self {
        self.drain_budget_records = records.max(1);
        self.drain_budget_bytes = bytes.max(1);
        self
    }

    /// Overrides the global ingest queue capacity.
    pub fn with_queue_capacity(mut self, records: usize) -> Self {
        self.queue_capacity_records = records.max(1);
        self
    }

    /// Overrides the per-pass advance count budget and deadline.
    pub fn with_advance_budget(mut self, max_advances: usize, deadline_micros: u64) -> Self {
        self.max_advances_per_pass = max_advances.max(1);
        self.advance_deadline_micros = deadline_micros;
        self
    }

    /// Overrides the ingest-stream release gate.
    pub fn with_min_ingest_streams(mut self, streams: u32) -> Self {
        self.min_ingest_streams = streams;
        self
    }
}

/// Pre-resolved handles into the server's own registry (separate from
/// the engine's `serve.*` registry; a scrape concatenates both).
struct ServerMetrics {
    ingest_ns: Histogram,
    tick_ns: Histogram,
    tick_lag_ns: Histogram,
    batch_latency_ns: Histogram,
    queue_depth: Gauge,
    queue_peak: Gauge,
    throttles: Counter,
    frames_in: Counter,
    frames_out: Counter,
    protocol_errors: Counter,
    records_rejected: Counter,
    records_ingested: Counter,
    advances_deferred: Counter,
    advances: Counter,
    connections: Gauge,
    slow_consumer_drops: Counter,
}

impl ServerMetrics {
    fn resolve(r: &MetricsRegistry) -> Self {
        ServerMetrics {
            ingest_ns: r.histogram(names::INGEST_NS),
            tick_ns: r.histogram(names::TICK_NS),
            tick_lag_ns: r.histogram(names::TICK_LAG_NS),
            batch_latency_ns: r.histogram(names::BATCH_LATENCY_NS),
            queue_depth: r.gauge(names::QUEUE_DEPTH),
            queue_peak: r.gauge(names::QUEUE_PEAK),
            throttles: r.counter(names::THROTTLES),
            frames_in: r.counter(names::FRAMES_IN),
            frames_out: r.counter(names::FRAMES_OUT),
            protocol_errors: r.counter(names::PROTOCOL_ERRORS),
            records_rejected: r.counter(names::RECORDS_REJECTED),
            records_ingested: r.counter(names::RECORDS_INGESTED),
            advances_deferred: r.counter(names::ADVANCES_DEFERRED),
            advances: r.counter(names::ADVANCES),
            connections: r.gauge(names::CONNECTIONS),
            slow_consumer_drops: r.counter(names::SLOW_CONSUMER_DROPS),
        }
    }
}

/// One message to a connection's writer thread.
enum OutMsg {
    /// Encode and send a protocol frame.
    Frame(Frame),
    /// Send raw bytes (the HTTP metrics response).
    Raw(Vec<u8>),
    /// Flush nothing further; shut the socket down and exit.
    Close,
}

/// Scheduler-side view of one connection.
struct ConnState {
    role: u8,
    out: SyncSender<OutMsg>,
    /// The connection's queued batches, watermark and end-of-stream
    /// flag — what the merge reads (and, for the queue, drains).
    ingest: IngestQueue,
    /// Set while any throttled batch awaits re-admission:
    /// `(expected, max_refused)` — the next seq that must be
    /// re-admitted, and the highest seq refused while the gate was up.
    /// Every batch except `expected` is throttled (extending
    /// `max_refused`), and admitting `expected` advances the gate to
    /// `expected + 1` until every refused seq has been re-admitted in
    /// order. Without the gate, a later pipelined batch could be
    /// admitted ahead of a refused one and advance the watermark past
    /// it, making the re-send an unrecoverable order violation —
    /// clearing it after only the first re-admission would do the same
    /// to the refused batches still pending behind it.
    throttle_gate: Option<(u64, u64)>,
    /// The connection is dead; reap it once its queue drains.
    gone: bool,
}

/// Control work readers hand to the scheduler.
enum ControlOp {
    Register {
        conn: u64,
        k: u32,
        bucket_millis: i64,
        window_buckets: u32,
        slocs: Vec<u32>,
    },
    Unregister {
        conn: u64,
        query_id: u64,
    },
    Metrics {
        conn: u64,
        http: bool,
    },
}

/// Mutex-guarded state shared by every thread.
struct Inner {
    conns: BTreeMap<u64, ConnState>,
    control: VecDeque<ControlOp>,
    /// Ingest connections that have completed the Hello handshake
    /// (monotone; compared against `min_ingest_streams`).
    ingest_seen: u32,
    total_queued: usize,
    peak_queued: usize,
    /// When the oldest post the scheduler has not yet picked up was
    /// made; `None` while nothing is posted.
    posted_at: Option<Instant>,
    shutdown: bool,
    next_conn: u64,
}

struct Shared {
    inner: Mutex<Inner>,
    wake: Condvar,
    registry: MetricsRegistry,
    metrics: ServerMetrics,
    config: ServerConfig,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking holder has already torn the process state; the
        // data under this mutex is all reapable bookkeeping, so keep
        // serving rather than cascading the poison.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Hands the scheduler work: marks it posted (keeping the stamp of
    /// the oldest unserved post), releases the lock and wakes the
    /// scheduler. The caller has just changed, under `inner`, something
    /// a pass reads.
    fn post(&self, mut inner: MutexGuard<'_, Inner>) {
        inner.posted_at.get_or_insert_with(Instant::now);
        drop(inner);
        self.wake.notify_one();
    }

    /// Queues a frame on a connection's writer, evicting the
    /// connection if its channel is full (slow consumer).
    fn send_frame(&self, inner: &mut Inner, conn: u64, frame: Frame) {
        let Some(state) = inner.conns.get_mut(&conn) else {
            return;
        };
        let evicted = match state.out.try_send(OutMsg::Frame(frame)) {
            Ok(()) => false,
            Err(TrySendError::Full(_)) => {
                self.metrics.slow_consumer_drops.inc();
                true
            }
            Err(TrySendError::Disconnected(_)) => true,
        };
        if evicted {
            state.gone = true;
            state.ingest.ended = true;
            // An ended stream stops holding the merge floor and waits to
            // be reaped, and no reader will post for it: the scheduler
            // (the only caller) owes itself another pass.
            inner.posted_at.get_or_insert_with(Instant::now);
        }
    }
}

/// A running `popflow-server`: the listener plus its thread family.
/// Dropping (or calling [`Server::shutdown`]) stops everything and
/// joins the accept and scheduler threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `bind` (e.g. `"127.0.0.1:0"`) and starts serving
    /// `config` over `space`.
    pub fn start(
        space: Arc<IndoorSpace>,
        config: ServerConfig,
        bind: &str,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let registry = MetricsRegistry::new();
        let metrics = ServerMetrics::resolve(&registry);
        let engine = ServeEngine::new(space, config.serve.clone());
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                conns: BTreeMap::new(),
                control: VecDeque::new(),
                ingest_seen: 0,
                total_queued: 0,
                peak_queued: 0,
                posted_at: None,
                shutdown: false,
                next_conn: 1,
            }),
            wake: Condvar::new(),
            registry,
            metrics,
            config,
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("popflow-scheduler".to_string())
                .spawn(move || scheduler_loop(shared, engine))?
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("popflow-accept".to_string())
                .spawn(move || accept_loop(shared, listener))?
        };
        Ok(Server {
            addr,
            shared,
            scheduler: Some(scheduler),
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port when bound to
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time export of the server-side registry (the
    /// engine's own registry travels over the wire in a metrics
    /// scrape).
    pub fn server_snapshot(&self) -> Snapshot {
        self.shared.registry.snapshot()
    }

    /// Stops the scheduler and listener and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut inner = self.shared.lock();
            if inner.shutdown && self.scheduler.is_none() && self.accept.is_none() {
                return;
            }
            inner.shutdown = true;
        }
        self.shared.wake.notify_one();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        // Unblock the accept call with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ------------------------------------------------------------- accept

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.is_shutdown() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        // The read timeout is what lets reader threads poll the
        // shutdown flag while idle.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let (tx, rx) = std::sync::mpsc::sync_channel(shared.config.outbound_frames.max(8));
        let conn_id = {
            let mut inner = shared.lock();
            let id = inner.next_conn;
            inner.next_conn += 1;
            inner.conns.insert(
                id,
                ConnState {
                    role: role::CONTROL,
                    out: tx.clone(),
                    ingest: IngestQueue::default(),
                    throttle_gate: None,
                    gone: false,
                },
            );
            shared.metrics.connections.set(inner.conns.len() as u64);
            id
        };
        let frames_out = shared.metrics.frames_out.clone();
        let _ = std::thread::Builder::new()
            .name(format!("popflow-writer-{conn_id}"))
            .spawn(move || writer_loop(rx, write_half, frames_out));
        let reader_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name(format!("popflow-reader-{conn_id}"))
            .spawn(move || reader_loop(reader_shared, conn_id, stream, tx));
    }
    // Whatever connections remain (including ones created after the
    // scheduler exited) get their writers released here.
    let mut inner = shared.lock();
    for state in inner.conns.values() {
        let _ = state.out.try_send(OutMsg::Close);
    }
    inner.conns.clear();
    shared.metrics.connections.set(0);
}

// ------------------------------------------------------------- writer

/// Writes every message already queued, then flushes once before
/// blocking on the channel again: a pass's burst of acks leaves in one
/// `write`, and a frame is still on the wire the moment the channel
/// runs empty.
fn writer_loop(rx: Receiver<OutMsg>, stream: TcpStream, frames_out: Counter) {
    let mut w = std::io::BufWriter::new(stream);
    while let Ok(first) = rx.recv() {
        let mut frames = 0u64;
        let mut open = true;
        let mut next = Some(first);
        while let Some(msg) = next {
            open = match msg {
                OutMsg::Frame(frame) => {
                    frames += 1;
                    frame.write_to(&mut w).is_ok()
                }
                OutMsg::Raw(bytes) => w.write_all(&bytes).is_ok(),
                OutMsg::Close => false,
            };
            next = if open { rx.try_recv().ok() } else { None };
        }
        // A burst cut short by `Close` still flushes what preceded it.
        if w.flush().is_err() {
            break;
        }
        frames_out.add(frames);
        if !open {
            break;
        }
    }
    if let Ok(stream) = w.into_inner() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

// ------------------------------------------------------------- reader

fn reader_loop(shared: Arc<Shared>, conn_id: u64, stream: TcpStream, out: SyncSender<OutMsg>) {
    let mut fr = FrameReader::new(stream);
    match sniff_http(&shared, &mut fr) {
        Sniff::Http => {
            // Consume the request head first — closing the socket
            // with unread request bytes risks a reset that clobbers
            // the response — then hand the scrape to the scheduler
            // (it owns the engine registry); the writer sends the
            // response and closes.
            read_http_head(&shared, &mut fr);
            let mut inner = shared.lock();
            inner.control.push_back(ControlOp::Metrics {
                conn: conn_id,
                http: true,
            });
            shared.post(inner);
            return;
        }
        Sniff::Binary => {}
        Sniff::Closed => {
            disconnect(&shared, conn_id);
            return;
        }
    }
    if !handshake(&shared, conn_id, &mut fr, &out) {
        disconnect(&shared, conn_id);
        return;
    }
    loop {
        if shared.is_shutdown() {
            break;
        }
        match fr.next_frame() {
            Ok(Some(frame)) => {
                shared.metrics.frames_in.inc();
                handle_frame(&shared, conn_id, frame, &out);
            }
            Ok(None) => break,
            Err(e) if e.is_interrupted() => continue,
            Err(e) => {
                if let WireError::Protocol(p) = &e {
                    shared.metrics.protocol_errors.inc();
                    let _ = out.try_send(OutMsg::Frame(Frame::Error {
                        code: error_code::PROTOCOL,
                        detail: p.to_string(),
                    }));
                }
                if !e.is_recoverable() {
                    break;
                }
            }
        }
    }
    disconnect(&shared, conn_id);
}

enum Sniff {
    Http,
    Binary,
    Closed,
}

/// Distinguishes an HTTP scrape (`GET /metrics`) from the binary
/// protocol by the first four bytes — no binary frame starts with
/// `"GET "` (that length prefix would be oversized).
fn sniff_http(shared: &Shared, fr: &mut FrameReader<TcpStream>) -> Sniff {
    loop {
        match fr.peek(4) {
            Ok(Some(head)) => {
                return if head == b"GET " {
                    Sniff::Http
                } else {
                    Sniff::Binary
                }
            }
            Ok(None) => return Sniff::Closed,
            Err(e) if e.is_interrupted() => {
                if shared.is_shutdown() {
                    return Sniff::Closed;
                }
            }
            Err(_) => return Sniff::Closed,
        }
    }
}

/// Buffers the HTTP request until the blank line ending its head (or
/// 8 KiB, or EOF/shutdown — a scrape request is one small GET).
fn read_http_head(shared: &Shared, fr: &mut FrameReader<TcpStream>) {
    loop {
        let have = fr.buffered().len();
        if fr.buffered().windows(4).any(|w| w == b"\r\n\r\n") || have > 8192 {
            return;
        }
        match fr.peek(have + 1) {
            Ok(Some(_)) => {}
            Ok(None) => return,
            Err(e) if e.is_interrupted() => {
                if shared.is_shutdown() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Runs the Hello/Welcome exchange; `false` aborts the connection.
fn handshake(
    shared: &Shared,
    conn_id: u64,
    fr: &mut FrameReader<TcpStream>,
    out: &SyncSender<OutMsg>,
) -> bool {
    let hello = loop {
        match fr.next_frame() {
            Ok(Some(frame)) => break frame,
            Ok(None) => return false,
            Err(e) if e.is_interrupted() => {
                if shared.is_shutdown() {
                    return false;
                }
            }
            Err(_) => {
                shared.metrics.protocol_errors.inc();
                let _ = out.try_send(OutMsg::Frame(Frame::Error {
                    code: error_code::PROTOCOL,
                    detail: "expected Hello".to_string(),
                }));
                return false;
            }
        }
    };
    let Frame::Hello { version, role: r } = hello else {
        shared.metrics.protocol_errors.inc();
        let _ = out.try_send(OutMsg::Frame(Frame::Error {
            code: error_code::PROTOCOL,
            detail: "first frame must be Hello".to_string(),
        }));
        return false;
    };
    if version != PROTOCOL_VERSION {
        let _ = out.try_send(OutMsg::Frame(Frame::Error {
            code: error_code::REJECTED,
            detail: format!("protocol version {version} != {PROTOCOL_VERSION}"),
        }));
        return false;
    }
    shared.metrics.frames_in.inc();
    {
        let mut inner = shared.lock();
        let Some(state) = inner.conns.get_mut(&conn_id) else {
            return false;
        };
        state.role = r;
        // A new ingest stream can open the release gate, and it holds
        // the merge floor until its first batch.
        if r == role::INGEST {
            inner.ingest_seen += 1;
            shared.post(inner);
        }
    }
    let _ = out.try_send(OutMsg::Frame(Frame::Welcome {
        version: PROTOCOL_VERSION,
        conn_id,
    }));
    true
}

fn handle_frame(shared: &Shared, conn_id: u64, frame: Frame, out: &SyncSender<OutMsg>) {
    match frame {
        Frame::IngestBatch { seq, records } => handle_batch(shared, conn_id, seq, records, out),
        Frame::Register {
            k,
            bucket_millis,
            window_buckets,
            slocs,
        } => {
            let mut inner = shared.lock();
            inner.control.push_back(ControlOp::Register {
                conn: conn_id,
                k,
                bucket_millis,
                window_buckets,
                slocs,
            });
            shared.post(inner);
        }
        Frame::Unregister { query_id } => {
            let mut inner = shared.lock();
            inner.control.push_back(ControlOp::Unregister {
                conn: conn_id,
                query_id,
            });
            shared.post(inner);
        }
        Frame::StreamEnd => {
            let mut inner = shared.lock();
            if let Some(state) = inner.conns.get_mut(&conn_id) {
                state.ingest.ended = true;
            }
            shared.post(inner);
        }
        Frame::MetricsRequest => {
            let mut inner = shared.lock();
            inner.control.push_back(ControlOp::Metrics {
                conn: conn_id,
                http: false,
            });
            shared.post(inner);
        }
        // A second Hello, or a server-originated kind echoed back.
        _ => {
            let _ = out.try_send(OutMsg::Frame(Frame::Error {
                code: error_code::REJECTED,
                detail: "unexpected frame kind".to_string(),
            }));
        }
    }
}

fn handle_batch(
    shared: &Shared,
    conn_id: u64,
    seq: u64,
    records: Vec<Record>,
    out: &SyncSender<OutMsg>,
) {
    if records.is_empty() {
        let _ = out.try_send(OutMsg::Frame(Frame::BatchAck {
            seq,
            accepted: 0,
            rejected: 0,
        }));
        return;
    }
    // Estimated wire bytes, for the scheduler's byte budget: header
    // 14 per record + 12 per sample (see the protocol encoder).
    let wire_bytes: usize = records
        .iter()
        .map(|r| 14 + 12 * r.samples.samples().len())
        .sum();
    let n = records.len();
    let mut inner = shared.lock();
    let capacity = shared.config.queue_capacity_records;
    let total_queued = inner.total_queued;
    let Some(state) = inner.conns.get_mut(&conn_id) else {
        return;
    };
    if state.role != role::INGEST {
        let _ = out.try_send(OutMsg::Frame(Frame::Error {
            code: error_code::REJECTED,
            detail: "ingest batch on a control connection".to_string(),
        }));
        return;
    }
    if state.ingest.ended {
        let _ = out.try_send(OutMsg::Frame(Frame::Error {
            code: error_code::REJECTED,
            detail: "ingest batch after StreamEnd".to_string(),
        }));
        return;
    }
    // A throttled batch must be re-admitted before anything newer: a
    // pipelining client has already sent the batches behind it, and
    // admitting one of those would advance the watermark past the
    // refused batch, turning its re-send into an order violation. A
    // refusal here extends the gate, so a batch sent fresh while the
    // connection was gated joins the ordered re-send obligation.
    if let Some((expected, max_refused)) = state.throttle_gate {
        if seq != expected {
            state.throttle_gate = Some((expected, max_refused.max(seq)));
            shared.metrics.throttles.inc();
            let _ = out.try_send(OutMsg::Frame(Frame::Throttle {
                seq,
                queued_records: total_queued as u64,
                capacity_records: capacity as u64,
            }));
            return;
        }
    }
    // The merge's correctness rests on per-connection time order;
    // refuse a violating batch wholesale rather than corrupting the
    // global order.
    let mut prev = state.ingest.watermark.unwrap_or(i64::MIN);
    for r in &records {
        if r.t.millis() < prev {
            let _ = out.try_send(OutMsg::Frame(Frame::Error {
                code: error_code::REJECTED,
                detail: format!(
                    "batch {seq} breaks this connection's time order \
                     ({} after watermark {prev})",
                    r.t.millis()
                ),
            }));
            return;
        }
        prev = r.t.millis();
    }
    // Backpressure: over global capacity the batch is refused — unless
    // this connection's queue is empty, whose head batch must always
    // be admittable or the merge could deadlock on its gate.
    if total_queued + n > capacity && !state.ingest.batches.is_empty() {
        let max_refused = match state.throttle_gate {
            Some((_, m)) => m.max(seq),
            None => seq,
        };
        state.throttle_gate = Some((seq, max_refused));
        shared.metrics.throttles.inc();
        let _ = out.try_send(OutMsg::Frame(Frame::Throttle {
            seq,
            queued_records: total_queued as u64,
            capacity_records: capacity as u64,
        }));
        return;
    }
    // Walk the gate forward instead of clearing it: the connection
    // stays gated until every refused seq has been re-admitted in
    // order, so a newer batch can never slip past one still pending
    // re-send (the empty-queue reserve above would otherwise admit it).
    state.throttle_gate = match state.throttle_gate {
        Some((expected, max_refused)) if expected < max_refused => {
            Some((expected + 1, max_refused))
        }
        _ => None,
    };
    state.ingest.watermark = Some(prev);
    state.ingest.batches.push_back(PendingBatch {
        seq,
        records: records.into_iter(),
        per_record_bytes: (wire_bytes / n).max(1),
        accepted: 0,
        rejected: 0,
        enqueued: Instant::now(),
    });
    inner.total_queued += n;
    if inner.total_queued > inner.peak_queued {
        inner.peak_queued = inner.total_queued;
        shared.metrics.queue_peak.set(inner.peak_queued as u64);
    }
    shared.post(inner);
}

/// Marks a connection dead (socket closed or protocol failure); the
/// scheduler drains whatever it already queued, then reaps it.
fn disconnect(shared: &Shared, conn_id: u64) {
    let mut inner = shared.lock();
    if let Some(state) = inner.conns.get_mut(&conn_id) {
        state.ingest.ended = true;
        state.gone = true;
    }
    shared.post(inner);
}

// ---------------------------------------------------------- scheduler

fn scheduler_loop(shared: Arc<Shared>, mut engine: ServeEngine) {
    let cfg = shared.config.clone();
    let mut subs: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    // The pass-local drain buffers, reused from pass to pass.
    let mut run = Run::default();
    // The last pass stopped on a budget with work left.
    let mut unfinished = false;
    loop {
        // Sleep until something is posted, unless work is left over.
        let posted_at = {
            let mut inner = shared.lock();
            while !inner.shutdown && !unfinished && inner.posted_at.is_none() {
                inner = shared
                    .wake
                    .wait(inner)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            if inner.shutdown {
                for state in inner.conns.values() {
                    let _ = state.out.try_send(OutMsg::Close);
                }
                inner.conns.clear();
                shared.metrics.connections.set(0);
                return;
            }
            inner.posted_at.take()
        };
        let pass_start = Instant::now();
        if let Some(at) = posted_at {
            let lag = pass_start.saturating_duration_since(at);
            shared.metrics.tick_lag_ns.record(lag.as_nanos() as u64);
        }

        run_control_ops(&shared, &mut engine, &mut subs);
        let (bound, records_left) = drain_ingest(&shared, &mut engine, &cfg, &mut run);
        let advances_left = run_advances(&shared, &mut engine, &cfg, &subs, bound, pass_start);
        reap_connections(&shared, &mut subs);
        unfinished = records_left || advances_left;
        shared
            .metrics
            .tick_ns
            .record(pass_start.elapsed().as_nanos() as u64);
    }
}

fn run_control_ops(
    shared: &Shared,
    engine: &mut ServeEngine,
    subs: &mut BTreeMap<u64, BTreeSet<u64>>,
) {
    loop {
        let op = {
            let mut inner = shared.lock();
            inner.control.pop_front()
        };
        let Some(op) = op else { break };
        match op {
            ControlOp::Register {
                conn,
                k,
                bucket_millis,
                window_buckets,
                slocs,
            } => {
                // The decoder guaranteed k ≥ 1, positive bucket width,
                // window ≥ 1 bucket, and a non-empty sloc list, so the
                // constructors' invariants hold.
                let query_set = QuerySet::new(slocs.into_iter().map(SLocId).collect());
                let spec = QuerySpec::new(
                    k as usize,
                    query_set,
                    WindowSpec::new(bucket_millis, window_buckets as usize),
                );
                let reply = match engine.register(spec) {
                    Ok(id) => {
                        subs.entry(id.0).or_default().insert(conn);
                        Frame::Registered { query_id: id.0 }
                    }
                    Err(e) => Frame::Error {
                        code: error_code::REJECTED,
                        detail: e.to_string(),
                    },
                };
                let mut inner = shared.lock();
                shared.send_frame(&mut inner, conn, reply);
            }
            ControlOp::Unregister { conn, query_id } => {
                let reply = match engine.unregister(QueryId(query_id)) {
                    Ok(()) => {
                        subs.remove(&query_id);
                        Frame::Unregistered { query_id }
                    }
                    Err(e) => Frame::Error {
                        code: error_code::REJECTED,
                        detail: e.to_string(),
                    },
                };
                let mut inner = shared.lock();
                shared.send_frame(&mut inner, conn, reply);
            }
            ControlOp::Metrics { conn, http } => {
                let text = scrape_text(shared, engine);
                let mut inner = shared.lock();
                if http {
                    if let Some(state) = inner.conns.get_mut(&conn) {
                        let _ = state.out.try_send(OutMsg::Raw(http_response(&text)));
                        let _ = state.out.try_send(OutMsg::Close);
                        state.ingest.ended = true;
                        state.gone = true;
                    }
                } else {
                    shared.send_frame(&mut inner, conn, Frame::MetricsText { text });
                }
            }
        }
    }
}

/// The full scrape body: the server's registry followed by the
/// engine's (`server.*` and `serve.*` names never collide).
fn scrape_text(shared: &Shared, engine: &ServeEngine) -> String {
    let mut text = shared.registry.snapshot().to_prometheus();
    text.push_str(&engine.metrics().snapshot().to_prometheus());
    text
}

fn http_response(body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    let _ = write!(
        out,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body.as_bytes());
    out
}

/// Drains queued records into the engine through the watermark-gated
/// merge, up to the pass budgets. Returns the advance upper bound — the
/// smallest timestamp any connection could still deliver (`i64::MIN`
/// while the release gate holds, `i64::MAX` once every stream ended
/// and drained) — and whether the budget left releasable records
/// queued.
///
/// Under the queue lock the pass only *moves* records into `run`
/// ([`merge_run`]); the lock is dropped for the engine's one
/// [`ServeEngine::ingest_run`] hand-off — readers keep enqueueing
/// meanwhile — and retaken to post the acks of the batches the run
/// finished.
fn drain_ingest(
    shared: &Shared,
    engine: &mut ServeEngine,
    cfg: &ServerConfig,
    run: &mut Run,
) -> (i64, bool) {
    let records_left = {
        let mut inner = shared.lock();
        if inner.ingest_seen < cfg.min_ingest_streams {
            shared.metrics.queue_depth.set(inner.total_queued as u64);
            return (i64::MIN, false);
        }
        let mut queues: Vec<(u64, &mut IngestQueue)> = inner
            .conns
            .iter_mut()
            .filter(|(_, state)| state.role == role::INGEST)
            .map(|(&id, state)| (id, &mut state.ingest))
            .collect();
        let records_left = merge_run(
            &mut queues,
            cfg.drain_budget_records,
            cfg.drain_budget_bytes,
            run,
        );
        inner.total_queued = inner.total_queued.saturating_sub(run.records.len());
        shared.metrics.queue_depth.set(inner.total_queued as u64);
        if run.records.is_empty() {
            return (advance_bound(&inner), records_left);
        }
        records_left
    };

    let t0 = Instant::now();
    let outcome = engine.ingest_run(run.records.drain(..), LateRecord::Skip);
    shared
        .metrics
        .ingest_ns
        .record(t0.elapsed().as_nanos() as u64);
    match outcome {
        Ok(late) => {
            for i in late {
                let batch = run
                    .source
                    .get(i)
                    .and_then(|&at| run.batches.get_mut(at as usize));
                if let Some(batch) = batch {
                    batch.rejected += 1;
                }
            }
        }
        // A poisoned engine takes nothing.
        Err(_) => {
            for batch in &mut run.batches {
                batch.rejected = batch.taken;
            }
        }
    }
    run.source.clear();

    let mut inner = shared.lock();
    for drained in run.batches.drain(..) {
        let accepted = drained.taken - drained.rejected;
        shared.metrics.records_ingested.add(u64::from(accepted));
        shared
            .metrics
            .records_rejected
            .add(u64::from(drained.rejected));
        match drained.done {
            Some(done) => {
                shared
                    .metrics
                    .batch_latency_ns
                    .record(done.enqueued.elapsed().as_nanos() as u64);
                shared.send_frame(
                    &mut inner,
                    drained.conn,
                    Frame::BatchAck {
                        seq: done.seq,
                        accepted: done.accepted + accepted,
                        rejected: done.rejected + drained.rejected,
                    },
                );
            }
            // Records remain: the batch is still its connection's
            // front (only this thread pops), and carries the counts to
            // the pass that finishes it.
            None => {
                let front = inner
                    .conns
                    .get_mut(&drained.conn)
                    .and_then(|state| state.ingest.batches.front_mut())
                    .filter(|batch| batch.seq == drained.seq);
                if let Some(batch) = front {
                    batch.accepted += accepted;
                    batch.rejected += drained.rejected;
                }
            }
        }
    }
    (advance_bound(&inner), records_left)
}

/// Nothing at or before the returned timestamp can still arrive on any
/// ingest connection.
fn advance_bound(inner: &Inner) -> i64 {
    release_bound(
        inner
            .conns
            .values()
            .filter(|state| state.role == role::INGEST)
            .map(|state| &state.ingest),
    )
}

/// Runs the advances due under `bound` within the pass's budgets and
/// pushes their deltas. Returns whether due advances were deferred.
fn run_advances(
    shared: &Shared,
    engine: &mut ServeEngine,
    cfg: &ServerConfig,
    subs: &BTreeMap<u64, BTreeSet<u64>>,
    bound: i64,
    pass_start: Instant,
) -> bool {
    if bound == i64::MIN || engine.query_ids().is_empty() {
        return false;
    }
    let deadline = (cfg.advance_deadline_micros > 0)
        .then(|| pass_start + Duration::from_micros(cfg.advance_deadline_micros));
    match engine.advance_due(Timestamp(bound), deadline, cfg.max_advances_per_pass.max(1)) {
        Ok((runs, remaining)) => {
            if remaining > 0 {
                shared.metrics.advances_deferred.add(remaining as u64);
            }
            // At least one due advance always runs, so nothing ran only
            // if nothing was due.
            if runs.is_empty() {
                return false;
            }
            let mut inner = shared.lock();
            for (t, updates) in runs {
                shared.metrics.advances.inc();
                for (qid, update) in updates {
                    let Some(subscribers) = subs.get(&qid.0) else {
                        continue;
                    };
                    for &conn in subscribers {
                        shared.send_frame(&mut inner, conn, delta_frame(qid, t, &update));
                    }
                }
            }
            remaining > 0
        }
        Err(e) => {
            // The engine poisons itself on a failed advance; there is
            // nothing left to serve. Tell every client and stop (the
            // scheduler sees the flag before it next sleeps).
            let mut inner = shared.lock();
            let conn_ids: Vec<u64> = inner.conns.keys().copied().collect();
            for conn in conn_ids {
                shared.send_frame(
                    &mut inner,
                    conn,
                    Frame::Error {
                        code: error_code::UNAVAILABLE,
                        detail: e.to_string(),
                    },
                );
            }
            inner.shutdown = true;
            false
        }
    }
}

/// Removes dead connections whose queues have fully drained; dropping
/// their [`ConnState`] releases the writer channel, which closes the
/// socket.
fn reap_connections(shared: &Shared, subs: &mut BTreeMap<u64, BTreeSet<u64>>) {
    let mut inner = shared.lock();
    let dead: Vec<u64> = inner
        .conns
        .iter()
        .filter(|(_, state)| state.gone && state.ingest.batches.is_empty())
        .map(|(&id, _)| id)
        .collect();
    if dead.is_empty() {
        return;
    }
    for id in dead {
        if let Some(state) = inner.conns.remove(&id) {
            let _ = state.out.try_send(OutMsg::Close);
        }
        for subscribers in subs.values_mut() {
            subscribers.remove(&id);
        }
    }
    shared.metrics.connections.set(inner.conns.len() as u64);
}
