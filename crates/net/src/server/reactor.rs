//! The event-driven `NetServer` backend: every connection multiplexed on
//! one reactor thread, CPU-bound work offloaded to a dispatch pool.
//!
//! Built from `recoil-reactor`'s primitives:
//!
//! - [`Poller`] — edge-triggered epoll (or the portable `poll(2)`
//!   fallback) tells the loop which sockets are ready.
//! - [`Slab`] — per-connection state lives in generation-checked slots
//!   whose buffers are *parked* on close and recycled on the next accept,
//!   so the steady-state accept → serve → close cycle allocates nothing.
//! - [`DeadlineQueue`] — progress deadlines (partial frame in, response
//!   out, post-error drain) are armed lazily and re-validated on expiry
//!   against the connection's `last_progress`, so a busy peer is never
//!   evicted and an idle-between-frames peer is never timed.
//! - [`WakePipe`] — dispatch workers finish a job, push a [`Completion`],
//!   and wake the loop through the pipe.
//!
//! Each connection is a small state machine:
//!
//! ```text
//!            accept
//!              │
//!              ▼
//!         Handshake ──HELLO ok──▶ Write(HELLO) ─┐
//!              │                                │
//!              ▼                                ▼
//!   (violation) ERROR          ┌──────────▶ ReadFrame ◀───────────┐
//!              │               │               │                  │
//!              ▼               │     ┌─────────┼─────────┐        │
//!            Write             │   STATS     REQUEST  PUBLISH     │
//!              │               │  (inline)  cache-hit? │          │
//!              ▼               │     │      yes│  no│  │          │
//!            Drain             │     │         │    ▼  ▼          │
//!              │               │     │         │  Dispatching     │
//!              ▼               │     │         │  (worker runs    │
//!            close             │     ▼         ▼   encode/combine)│
//!                              │   Write ◀── Write ◀──completion  │
//!                              │     │ (chunks stream in 64 KiB   │
//!                              │     │  coalesced refills)        │
//!                              └─────┴────────────────────────────┘
//! ```
//!
//! HELLO negotiation, stats snapshots, and cache-hit requests are served
//! inline on the loop with zero per-request allocation (responses are
//! framed straight into the connection's pending-write buffer, chunk plans
//! reuse the connection's `ChunkPlan`); only publishes (rANS encode) and
//! cache-miss requests (real-time metadata combine) touch a worker.
//!
//! Edge-triggered discipline: sockets are registered once with
//! `READ | WRITE` interest and never modified — an event is only a hint,
//! and [`pump`] always reads/writes until `WouldBlock` before returning,
//! so no edge is ever left unconsumed. Under the level-triggered fallback
//! the loop instead keeps the registered interest matched to the phase.

use super::NetConfig;
use crate::frame::{
    append_frame, begin_frame, encode_error, end_frame, io_err, FrameType, PayloadReader,
    PayloadWriter, CAP_CHUNKED, CAP_RESUME, CAP_TELEMETRY, MAX_FRAME_LEN, PROTOCOL_VERSION,
    SUPPORTED_CAPS,
};
use crate::proto::{self, Hello, PublishOk, PublishRequest, StatsReply, TelemetryReply};
use parking_lot::{Condvar, Mutex};
use recoil_core::{plan_chunks_into, ChunkPlan, EncoderConfig, RecoilError};
use recoil_parallel::ThreadPool;
use recoil_reactor::{DeadlineQueue, Event, Interest, Poller, Slab, SlabStats, Token, WakePipe};
use recoil_server::{ContentServer, StoredContent, Transmission};
use recoil_telemetry::{Stage, Telemetry};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::mem;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reserved token for the listening socket.
const LISTENER: Token = Token(u64::MAX);
/// Reserved token for the wake pipe's read end.
const WAKE: Token = Token(u64::MAX - 1);
/// Chunk frames are coalesced into the write buffer up to this many pending
/// bytes per refill, bounding a streaming connection's memory to roughly
/// this plus one chunk frame.
const WRITE_HIGH_WATER: usize = 64 * 1024;
/// Stack scratch per read syscall.
const READ_CHUNK: usize = 16 * 1024;
/// How long a half-closed connection may take to drain to EOF so a final
/// ERROR frame actually reaches the peer (dropping a socket with unread
/// inbound data would RST away our own queued bytes).
const DRAIN_BUDGET: Duration = Duration::from_millis(250);
/// Poll cap while rejected connections are still draining in the morgue
/// (they are not registered with the poller).
const MORGUE_TICK: Duration = Duration::from_millis(25);
/// Poll cap during shutdown so the exit condition is re-checked promptly.
const SHUTDOWN_TICK: Duration = Duration::from_millis(50);
/// Parked buffers larger than this are shrunk before reuse, so one huge
/// publish does not pin its buffer forever.
const PARKED_BUFFER_CAP: usize = 64 * 1024;

/// State shared between the event loop, the dispatch workers, and the
/// owning handle.
struct Shared {
    content: Arc<ContentServer>,
    config: NetConfig,
    /// Pre-clamped words per chunk frame.
    chunk_words: usize,
    shutdown: AtomicBool,
    /// Abrupt-death flag ([`super::NetServerHandle::kill`]): the loop
    /// severs every connection without draining and exits immediately,
    /// mimicking a crashed node for failover tests.
    killed: AtomicBool,
    /// Set only after the event loop has been joined — workers must keep
    /// draining the queue while the loop is still dispatching.
    jobs_closed: AtomicBool,
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: recoil_reactor::Waker,
    slab_allocations: AtomicU64,
    slab_reuses: AtomicU64,
    /// The content server's registry, its level set at bind. STATS and
    /// TELEMETRY both read it; `Off` reduces every level-gated instrument
    /// to one branch.
    telemetry: Arc<Telemetry>,
    /// Mirror of the locked job queue's length, written under the job lock
    /// on every push/pop, so the event loop publishes the queue-depth gauge
    /// at its own consistent point without taking the job lock.
    queue_len: AtomicU64,
}

impl Shared {
    fn push_job(&self, job: Job) {
        let token = job.token();
        let mut jobs = self.jobs.lock();
        jobs.push_back(job);
        let depth = jobs.len() as u64;
        self.queue_len.store(depth, Ordering::Relaxed);
        self.jobs_cv.notify_one();
        drop(jobs);
        let tel = &self.telemetry;
        if tel.counters_enabled() {
            tel.counters.dispatched_jobs.bump();
            tel.trace(Stage::DispatchQueue, token.0, depth);
        }
    }
}

/// CPU-bound work shipped to a dispatch worker.
enum Job {
    /// The whole read buffer is *lent* to the worker (the payload can be
    /// tens of MiB; slicing it out would copy): `payload` locates the
    /// publish body, `consumed` is dropped when the buffer comes back so
    /// pipelined bytes behind the frame survive.
    Publish {
        token: Token,
        buf: Vec<u8>,
        payload: Range<usize>,
        consumed: usize,
        queued_at: Instant,
    },
    /// A request whose tier missed the cache: the combine runs off-loop.
    Fetch {
        token: Token,
        name: String,
        parallel_segments: u64,
        /// Complete words the peer already holds (RESUME); zero for a
        /// fresh REQUEST.
        from_word: u64,
        queued_at: Instant,
    },
}

impl Job {
    fn token(&self) -> Token {
        match self {
            Job::Publish { token, .. } | Job::Fetch { token, .. } => *token,
        }
    }

    fn queued_at(&self) -> Instant {
        match self {
            Job::Publish { queued_at, .. } | Job::Fetch { queued_at, .. } => *queued_at,
        }
    }
}

enum Reply {
    /// Pre-framed response bytes, appended to the write buffer verbatim.
    Framed(Vec<u8>),
    /// A served transmission to stage as TRANSMIT + chunked stream,
    /// skipping the first `from_word` words the peer already holds.
    Stream(Transmission, Arc<StoredContent>, u64),
}

struct Completion {
    token: Token,
    /// The lent read buffer coming home (publish jobs only).
    buf: Option<(Vec<u8>, usize)>,
    reply: Reply,
    close_after: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the client's HELLO.
    Handshake,
    /// Between or inside a request frame.
    ReadFrame,
    /// A worker owns the request; the loop ignores the socket until the
    /// completion arrives.
    Dispatching,
    /// Flushing `write_buf` (and refilling it from the chunk plan).
    Write,
    /// Half-closed after a fatal error; reading to EOF so the final frame
    /// lands.
    Drain,
}

/// Per-connection state. Slab-parked on close: buffers and the chunk plan
/// keep their capacity for the next accept, only the socket is dropped.
struct Conn {
    stream: Option<TcpStream>,
    phase: Phase,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Interest currently registered (level-triggered fallback only; the
    /// edge-triggered path registers `READ_WRITE` once and never modifies).
    interest: Interest,
    close_after_write: bool,
    /// The content being chunk-streamed, if any.
    item: Option<Arc<StoredContent>>,
    plan: ChunkPlan,
    next_chunk: usize,
    last_progress: Instant,
    /// The deadline currently armed in the queue, if any.
    armed: Option<Instant>,
    drain_deadline: Instant,
    /// Capabilities negotiated in this connection's HELLO (zero until the
    /// handshake completes). Gates capability-bound frames like TELEMETRY.
    caps: u32,
    /// When the current pending write first hit the socket phase — the
    /// write-flush histogram measures from here to the buffer draining.
    write_started: Option<Instant>,
    /// Completed flush bursts on this connection — the sampling phase for
    /// the write-flush span (timed 1-in-8 at `Counters`, always at
    /// `Trace`; the `write_flushes` counter itself stays exact).
    flushes: u64,
    /// Response bytes written over this connection's lifetime — the
    /// fault plan's `kill_after_write_bytes` trigger point.
    written_total: u64,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream: Some(stream),
            phase: Phase::Handshake,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            interest: Interest::NONE,
            close_after_write: false,
            item: None,
            plan: ChunkPlan { chunks: Vec::new() },
            next_chunk: 0,
            last_progress: now,
            armed: None,
            drain_deadline: now,
            caps: 0,
            write_started: None,
            flushes: 0,
            written_total: 0,
        }
    }

    /// Re-arms a parked slot for a fresh socket, reusing its buffers.
    fn reset_for(&mut self, stream: TcpStream, now: Instant) {
        self.stream = Some(stream);
        self.phase = Phase::Handshake;
        self.read_buf.clear();
        self.write_buf.clear();
        self.write_pos = 0;
        self.interest = Interest::NONE;
        self.close_after_write = false;
        self.item = None;
        self.next_chunk = 0;
        self.last_progress = now;
        self.armed = None;
        self.drain_deadline = now;
        self.caps = 0;
        self.write_started = None;
        self.written_total = 0;
    }

    /// Parks the slot: drops the socket (closing it) and any streamed
    /// item, keeps the buffers — capped so one huge publish does not pin
    /// its buffer forever.
    fn park(&mut self) {
        self.stream = None;
        self.item = None;
        self.read_buf.clear();
        self.read_buf.shrink_to(PARKED_BUFFER_CAP);
        self.write_buf.clear();
        self.write_buf.shrink_to(PARKED_BUFFER_CAP);
        self.plan.chunks.clear();
        self.write_pos = 0;
        self.next_chunk = 0;
        self.close_after_write = false;
        self.armed = None;
        self.caps = 0;
        self.write_started = None;
    }

    /// The progress deadline this phase wants, if any. Idle connections
    /// *between* frames are deliberately deadline-free — only a peer that
    /// owes bytes (mid-handshake, mid-frame, mid-response, mid-drain) is
    /// timed.
    fn desired_deadline(&self, read_timeout: Duration, write_timeout: Duration) -> Option<Instant> {
        match self.phase {
            Phase::Handshake | Phase::ReadFrame if !self.read_buf.is_empty() => {
                Some(self.last_progress + read_timeout)
            }
            Phase::Handshake | Phase::ReadFrame | Phase::Dispatching => None,
            Phase::Write => Some(self.last_progress + write_timeout),
            Phase::Drain => Some(self.drain_deadline),
        }
    }

    /// The poller interest this phase wants (level-triggered fallback).
    fn desired_interest(&self) -> Interest {
        match self.phase {
            Phase::Handshake | Phase::ReadFrame | Phase::Drain => Interest::READ,
            Phase::Write => Interest::WRITE,
            Phase::Dispatching => Interest::NONE,
        }
    }
}

/// What one pump of a connection decided.
struct Pumped {
    fate: Fate,
    /// Jobs handed to the dispatch pool during this pump (0 or 1).
    dispatched: usize,
}

enum Fate {
    Keep,
    Close,
}

impl Pumped {
    fn keep(dispatched: usize) -> Self {
        Self {
            fate: Fate::Keep,
            dispatched,
        }
    }
    fn close(dispatched: usize) -> Self {
        Self {
            fate: Fate::Close,
            dispatched,
        }
    }
}

/// Tries to parse one frame header + payload from the front of `buf`.
/// `Ok(Some((ty, end)))` means a complete frame occupies `buf[..end]`
/// (payload at `buf[5..end]`); `Ok(None)` means more bytes are needed.
/// The type byte and length are validated as soon as they arrive, before
/// any payload accumulates.
fn parse_frame(buf: &[u8]) -> Result<Option<(FrameType, usize)>, RecoilError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let ty = FrameType::from_u8(buf[0])?;
    if buf.len() < 5 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(RecoilError::net(format!(
            "oversized frame: {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let end = 5 + len as usize;
    if buf.len() < end {
        return Ok(None);
    }
    Ok(Some((ty, end)))
}

/// Frames `payload` straight into the pending-write buffer and enters
/// `Write`. Control payloads staged here (HELLO, STATS, ERROR) are far
/// below the frame cap.
fn stage_payload(conn: &mut Conn, ty: FrameType, payload: &[u8], close_after: bool) {
    append_frame(&mut conn.write_buf, ty, payload)
        .expect("staged control frames are far below the frame cap");
    conn.close_after_write |= close_after;
    conn.phase = Phase::Write;
}

fn stage_error(conn: &mut Conn, e: &RecoilError, close_after: bool) {
    stage_payload(conn, FrameType::Error, &encode_error(e), close_after);
}

/// Stages a served transmission: TRANSMIT header framed in place (no
/// owned header struct, no metadata/freqs/final-states copies), then the
/// chunk plan queued for coalesced streaming from the `Write` phase.
///
/// A non-zero `from_word` (RESUME) trims the plan to the words the peer is
/// missing: split metadata makes word-stream readiness a strict prefix, so
/// a resuming client continues exactly where the dead node stopped. The
/// header keeps whole-stream geometry and CRC (the client cross-checks
/// them against the header it saw before the failure); only `chunk_count`
/// reflects the trim, and chunk sequence numbers restart at zero over the
/// trimmed plan.
fn stage_transmission(
    conn: &mut Conn,
    shared: &Shared,
    transmission: Transmission,
    item: Arc<StoredContent>,
    from_word: u64,
) {
    plan_chunks_into(
        transmission.metadata(),
        shared.chunk_words * 2,
        &mut conn.plan,
    );
    if from_word > 0 {
        let total = item.stream.words.len() as u64;
        if from_word > total {
            stage_error(
                conn,
                &RecoilError::net(format!(
                    "resume offset {from_word} is beyond the stream ({total} words)"
                )),
                true,
            );
            return;
        }
        conn.plan.chunks.retain(|c| c.words.end > from_word);
        if let Some(first) = conn.plan.chunks.first_mut() {
            if first.words.start < from_word {
                first.words.start = from_word;
            }
        }
    }
    let at = begin_frame(&mut conn.write_buf, FrameType::Transmit);
    let mut w = PayloadWriter(mem::take(&mut conn.write_buf));
    proto::write_transmit_header(&mut w, &transmission, &item, conn.plan.len() as u32);
    conn.write_buf = w.0;
    if end_frame(&mut conn.write_buf, at).is_err() {
        // A tier whose metadata outgrows the frame cap is unservable on
        // this wire; roll the header back and report instead.
        conn.write_buf.truncate(at - 5);
        stage_error(
            conn,
            &RecoilError::net("transmit header exceeds the frame cap"),
            true,
        );
        return;
    }
    conn.item = Some(item);
    conn.next_chunk = 0;
    conn.phase = Phase::Write;
    // Eager first fill: small streams land whole in the buffer (clearing
    // `item` so pipelined follow-up requests can batch behind them); big
    // streams stop at the high-water mark and refill from `Write`.
    fill_chunks(conn);
    if conn.next_chunk == conn.plan.chunks.len() {
        conn.item = None;
    }
}

/// Refills the drained write buffer with the next chunk frames, up to the
/// high-water mark. Chunk frame sizes are pre-clamped by
/// `NetConfig::effective_chunk_words`.
fn fill_chunks(conn: &mut Conn) {
    let Conn {
        item,
        plan,
        write_buf,
        next_chunk,
        ..
    } = conn;
    let item = item.as_ref().expect("chunks only stream with a live item");
    let words = &item.stream.words;
    while *next_chunk < plan.chunks.len() && write_buf.len() < WRITE_HIGH_WATER {
        let chunk = &plan.chunks[*next_chunk];
        let at = begin_frame(write_buf, FrameType::Chunk);
        write_buf.extend_from_slice(&(*next_chunk as u32).to_le_bytes());
        for &w in &words[chunk.words.start as usize..chunk.words.end as usize] {
            write_buf.extend_from_slice(&w.to_le_bytes());
        }
        end_frame(write_buf, at).expect("chunk frames are pre-clamped to the frame cap");
        *next_chunk += 1;
    }
}

/// Validates the client's HELLO and stages the negotiated reply (or a
/// typed rejection). Exact error texts match the legacy backend.
fn handle_hello(conn: &mut Conn, ty: FrameType, end: usize) {
    if ty != FrameType::Hello {
        let e = RecoilError::net(format!("expected HELLO, got {ty:?}"));
        stage_error(conn, &e, true);
        return;
    }
    let hello = match Hello::decode(&conn.read_buf[5..end]) {
        Ok(h) => h,
        Err(e) => {
            stage_error(conn, &e, true);
            return;
        }
    };
    conn.read_buf.drain(..end);
    if hello.version != PROTOCOL_VERSION {
        let e = RecoilError::net(format!(
            "unsupported protocol version {} (server speaks {PROTOCOL_VERSION})",
            hello.version
        ));
        stage_error(conn, &e, true);
        return;
    }
    let negotiated = Hello {
        version: PROTOCOL_VERSION,
        capabilities: hello.capabilities & SUPPORTED_CAPS,
    };
    if negotiated.capabilities & CAP_CHUNKED == 0 {
        stage_error(
            conn,
            &RecoilError::net("peer lacks the chunked-streaming capability"),
            true,
        );
        return;
    }
    conn.caps = negotiated.capabilities;
    conn.phase = Phase::ReadFrame;
    stage_payload(conn, FrameType::Hello, &negotiated.encode(), false);
}

enum Handled {
    Continue,
    Dispatched,
}

/// What an inline REQUEST/RESUME parse decided. The trailing `u64` on the
/// serve variants is `from_word` (zero for a fresh REQUEST).
enum ReqAction {
    Stream(Transmission, Arc<StoredContent>, u64),
    Offload(String, u64, u64),
    Fail(RecoilError, bool),
}

/// Parses a REQUEST (two fields) or RESUME (three fields) payload and
/// resolves it against the tier cache.
fn request_action(shared: &Shared, payload: &[u8], resume: bool) -> ReqAction {
    let mut r = PayloadReader::new(payload);
    let parsed = r
        .name_str()
        .and_then(|name| Ok((name, r.u64()?)))
        .and_then(|(name, segs)| {
            let from_word = if resume { r.u64()? } else { 0 };
            r.finish()?;
            Ok((name, segs, from_word))
        });
    match parsed {
        Err(e) => ReqAction::Fail(e, true),
        Ok((name, parallel_segments, from_word)) => {
            match shared.content.fetch_cached(name, parallel_segments) {
                Ok(Some((tx, item))) => ReqAction::Stream(tx, item, from_word),
                Ok(None) => ReqAction::Offload(name.to_owned(), parallel_segments, from_word),
                Err(e) => ReqAction::Fail(e, false),
            }
        }
    }
}

/// Whether the dispatch queue is at its depth cap — offloads are shed with
/// a typed busy error rather than queueing unboundedly behind a slow pool.
fn queue_full(shared: &Shared) -> bool {
    shared.queue_len.load(Ordering::Relaxed) >= shared.config.max_queue_depth as u64
}

/// Stages the typed busy error (retry-after hint included) and counts the
/// shed. The connection stays open: the request was never started, so the
/// peer may retry on this socket after the hint.
fn stage_busy(conn: &mut Conn, shared: &Shared) {
    shared.telemetry.counters.queue_sheds.bump();
    stage_error(
        conn,
        &RecoilError::busy(shared.config.busy_retry_after_ms),
        false,
    );
}

/// Handles one complete request frame at the front of `read_buf`.
fn handle_frame(
    conn: &mut Conn,
    token: Token,
    shared: &Shared,
    ty: FrameType,
    end: usize,
) -> Handled {
    match ty {
        FrameType::Publish => {
            if queue_full(shared) {
                conn.read_buf.drain(..end);
                stage_busy(conn, shared);
                return Handled::Continue;
            }
            // The encode is CPU-bound: lend the whole read buffer to a
            // worker rather than copying a potentially huge payload out.
            let buf = mem::take(&mut conn.read_buf);
            conn.phase = Phase::Dispatching;
            shared.push_job(Job::Publish {
                token,
                buf,
                payload: 5..end,
                consumed: end,
                queued_at: Instant::now(),
            });
            Handled::Dispatched
        }
        FrameType::Request | FrameType::Resume => {
            let resume = ty == FrameType::Resume;
            let action = if resume && conn.caps & CAP_RESUME == 0 {
                ReqAction::Fail(
                    RecoilError::net("resume capability was not negotiated"),
                    true,
                )
            } else {
                request_action(shared, &conn.read_buf[5..end], resume)
            };
            conn.read_buf.drain(..end);
            match action {
                ReqAction::Stream(tx, item, from_word) => {
                    stage_transmission(conn, shared, tx, item, from_word);
                    Handled::Continue
                }
                ReqAction::Offload(name, parallel_segments, from_word) => {
                    if queue_full(shared) {
                        stage_busy(conn, shared);
                        return Handled::Continue;
                    }
                    conn.phase = Phase::Dispatching;
                    shared.push_job(Job::Fetch {
                        token,
                        name,
                        parallel_segments,
                        from_word,
                        queued_at: Instant::now(),
                    });
                    Handled::Dispatched
                }
                ReqAction::Fail(e, close) => {
                    stage_error(conn, &e, close);
                    Handled::Continue
                }
            }
        }
        FrameType::Stats => {
            conn.read_buf.drain(..end);
            let reply = StatsReply {
                stats: shared.content.stats(),
                items: shared.content.len() as u64,
            };
            stage_payload(conn, FrameType::StatsReply, &reply.encode(), false);
            Handled::Continue
        }
        FrameType::Telemetry => {
            let well_formed = end == 5;
            conn.read_buf.drain(..end);
            if conn.caps & CAP_TELEMETRY == 0 {
                let e = RecoilError::net("telemetry capability was not negotiated");
                stage_error(conn, &e, true);
                return Handled::Continue;
            }
            if !well_formed {
                let e = RecoilError::net("telemetry request carries an unexpected payload");
                stage_error(conn, &e, true);
                return Handled::Continue;
            }
            let tel = &shared.telemetry;
            // Draining is consuming: each buffered trace event is delivered
            // to exactly one TELEMETRY response.
            let trace = if tel.trace_enabled() {
                tel.drain_trace()
            } else {
                Vec::new()
            };
            let reply = TelemetryReply {
                snapshot: tel.snapshot(),
                trace,
            };
            stage_payload(conn, FrameType::TelemetryReply, &reply.encode(), false);
            Handled::Continue
        }
        other => {
            let e = RecoilError::net(format!("unexpected {other:?} frame from client"));
            stage_error(conn, &e, true);
            Handled::Continue
        }
    }
}

/// Per-`pump` instrument tallies, kept in plain locals on the stack and
/// flushed to the sharded counters once per call — one atomic add per
/// counter per socket wakeup instead of per frame, which keeps the
/// `Counters` level within noise of `Off` on the pipelined hot path.
#[derive(Default)]
struct PumpTally {
    frames: u64,
    inline: u64,
    bytes_read: u64,
    bytes_written: u64,
}

/// Drives one connection until it blocks: parse and serve every complete
/// frame, read until `WouldBlock`, flush and refill until `WouldBlock`.
/// This *must* exhaust the socket in both directions before returning —
/// under edge-triggered polling an unconsumed edge never fires again.
fn pump(conn: &mut Conn, token: Token, shared: &Shared) -> Pumped {
    let mut tally = PumpTally::default();
    let out = pump_inner(conn, token, shared, &mut tally);
    let tel = &shared.telemetry;
    if tel.counters_enabled() {
        let c = &tel.counters;
        if tally.frames > 0 {
            c.frames_read.add(tally.frames);
        }
        if tally.inline > 0 {
            c.inline_serves.add(tally.inline);
        }
        if tally.bytes_read > 0 {
            c.bytes_read.add(tally.bytes_read);
        }
        if tally.bytes_written > 0 {
            c.bytes_written.add(tally.bytes_written);
        }
    }
    out
}

fn pump_inner(conn: &mut Conn, token: Token, shared: &Shared, tally: &mut PumpTally) -> Pumped {
    let mut scratch = [0u8; READ_CHUNK];
    let mut dispatched = 0;
    // Armed fault schedule, if any (chaos testing only; a faultless server
    // pays one `Option` check per pump). The write delay sleeps on the
    // event-loop thread — faulted nodes are slow for *everyone*, which is
    // exactly the failure shape being simulated.
    let fault = shared.config.fault_plan.as_ref();
    let kill_after = fault.and_then(|f| f.kill_after_write_bytes);
    let write_delay = fault.and_then(|f| f.write_delay);
    let torn_bytes = fault.and_then(|f| f.torn_write_bytes);
    loop {
        match conn.phase {
            Phase::Handshake | Phase::ReadFrame => match parse_frame(&conn.read_buf) {
                Err(e) => stage_error(conn, &e, true),
                Ok(Some((ty, end))) => {
                    let tel = &shared.telemetry;
                    tally.frames += 1;
                    if tel.trace_enabled() {
                        tel.trace(Stage::FrameRead, token.0, u64::from(ty.byte()));
                    }
                    if conn.phase == Phase::Handshake {
                        handle_hello(conn, ty, end);
                    } else {
                        // Span timing needs two clock reads, which are not
                        // cheap on every host (~40 ns each here): `Counters`
                        // samples 1 frame in 32 (the histogram stays
                        // statistically sound at serving rates), `Trace`
                        // times every frame.
                        let sampled = tel.counters_enabled()
                            && (tel.trace_enabled() || tally.frames & 31 == 1);
                        let started = sampled.then(Instant::now);
                        if let Handled::Dispatched = handle_frame(conn, token, shared, ty, end) {
                            dispatched += 1;
                            return Pumped::keep(dispatched);
                        }
                        // Anything that went straight from a parsed frame to
                        // staged response bytes was served inline on the
                        // event loop, without touching the dispatch pool.
                        if conn.phase == Phase::Write {
                            tally.inline += 1;
                            if let Some(t0) = started {
                                let ns = elapsed_ns(t0);
                                tel.hists.inline_serve_ns.record(ns);
                                tel.trace(Stage::InlineServe, token.0, ns);
                            }
                        }
                    }
                    // Response batching: if the response landed whole in
                    // the write buffer and another complete request is
                    // already pipelined behind it, keep parsing — the
                    // whole burst then flushes in one write.
                    if conn.phase == Phase::Write
                        && conn.item.is_none()
                        && !conn.close_after_write
                        && conn.write_buf.len() < WRITE_HIGH_WATER
                        && matches!(parse_frame(&conn.read_buf), Ok(Some(_)))
                    {
                        conn.phase = Phase::ReadFrame;
                    }
                }
                Ok(None) => {
                    let mut s = conn.stream.as_ref().expect("live conn has a stream");
                    match s.read(&mut scratch) {
                        Ok(0) => return Pumped::close(dispatched),
                        Ok(n) => {
                            conn.read_buf.extend_from_slice(&scratch[..n]);
                            conn.last_progress = Instant::now();
                            tally.bytes_read += n as u64;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            return Pumped::keep(dispatched)
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => return Pumped::close(dispatched),
                    }
                }
            },
            Phase::Dispatching => return Pumped::keep(dispatched),
            Phase::Write => {
                if conn.write_started.is_none() {
                    let tel = &shared.telemetry;
                    if tel.counters_enabled() && (tel.trace_enabled() || conn.flushes & 7 == 0) {
                        conn.write_started = Some(Instant::now());
                    }
                }
                loop {
                    while conn.write_pos < conn.write_buf.len() {
                        if let Some(d) = write_delay {
                            std::thread::sleep(d);
                        }
                        let mut slice_end = torn_bytes.map_or(conn.write_buf.len(), |cap| {
                            (conn.write_pos + cap.max(1)).min(conn.write_buf.len())
                        });
                        if let Some(at) = kill_after {
                            // Never write past the kill offset: the cut is
                            // byte-exact, so seeded chaos runs are
                            // reproducible down to the torn frame.
                            let room = at.saturating_sub(conn.written_total) as usize;
                            slice_end = slice_end.min(conn.write_pos + room);
                        }
                        let mut s = conn.stream.as_ref().expect("live conn has a stream");
                        match s.write(&conn.write_buf[conn.write_pos..slice_end]) {
                            Ok(0) => return Pumped::close(dispatched),
                            Ok(n) => {
                                conn.write_pos += n;
                                conn.written_total += n as u64;
                                conn.last_progress = Instant::now();
                                tally.bytes_written += n as u64;
                                if kill_after.is_some_and(|at| conn.written_total >= at) {
                                    // Fault: die abruptly mid-frame, no drain.
                                    return Pumped::close(dispatched);
                                }
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                return Pumped::keep(dispatched)
                            }
                            Err(e) if e.kind() == ErrorKind::Interrupted => {}
                            Err(_) => return Pumped::close(dispatched),
                        }
                    }
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    if conn.item.is_some() && conn.next_chunk < conn.plan.chunks.len() {
                        fill_chunks(conn);
                        continue;
                    }
                    break;
                }
                // The staged response (header + every chunk) is fully on the
                // wire: count the burst, and close out the flush span when
                // this burst was one of the sampled ones.
                {
                    let tel = &shared.telemetry;
                    if tel.counters_enabled() {
                        conn.flushes = conn.flushes.wrapping_add(1);
                        tel.counters.write_flushes.bump();
                        if let Some(t0) = conn.write_started.take() {
                            let ns = elapsed_ns(t0);
                            tel.hists.write_flush_ns.record(ns);
                            tel.trace(Stage::WriteFlush, token.0, ns);
                        }
                    } else {
                        conn.write_started = None;
                    }
                }
                conn.item = None;
                if conn.close_after_write {
                    conn.close_after_write = false;
                    let s = conn.stream.as_ref().expect("live conn has a stream");
                    let _ = s.shutdown(Shutdown::Write);
                    conn.drain_deadline = Instant::now() + DRAIN_BUDGET;
                    conn.phase = Phase::Drain;
                    continue;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    // The in-flight response above was fully written.
                    return Pumped::close(dispatched);
                }
                conn.phase = Phase::ReadFrame;
            }
            Phase::Drain => {
                let mut s = conn.stream.as_ref().expect("live conn has a stream");
                loop {
                    match s.read(&mut scratch) {
                        Ok(0) => return Pumped::close(dispatched),
                        Ok(_) => {}
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            return Pumped::keep(dispatched)
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => return Pumped::close(dispatched),
                    }
                }
            }
        }
    }
}

/// A rejected over-cap connection draining its courtesy ERROR frame. Not
/// registered with the poller — the loop drives the morgue on a short
/// tick until each socket flushes + reaches EOF or its deadline passes.
struct Doomed {
    stream: TcpStream,
    bytes: Vec<u8>,
    written: usize,
    half_closed: bool,
    deadline: Instant,
}

/// One best-effort push on a doomed socket; `false` means done (or given
/// up) and the socket can drop.
fn drive_doomed(d: &mut Doomed) -> bool {
    if Instant::now() >= d.deadline {
        return false;
    }
    while d.written < d.bytes.len() {
        let mut s = &d.stream;
        match s.write(&d.bytes[d.written..]) {
            Ok(0) => return false,
            Ok(n) => d.written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if !d.half_closed {
        d.half_closed = true;
        let _ = d.stream.shutdown(Shutdown::Write);
    }
    let mut buf = [0u8; 1024];
    loop {
        let mut s = &d.stream;
        match s.read(&mut buf) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    wake: Arc<WakePipe>,
    listener: Option<TcpListener>,
    conns: Slab<Conn>,
    deadlines: DeadlineQueue,
    morgue: Vec<Doomed>,
    events: Vec<Event>,
    expired: Vec<Token>,
    /// Jobs dispatched whose completions have not come back yet.
    in_flight: usize,
}

impl EventLoop {
    fn run(&mut self) {
        loop {
            if self.shared.killed.load(Ordering::Acquire) {
                self.kill_now();
                return;
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                self.begin_shutdown();
                self.process_completions();
                if self.conns.is_empty() && self.in_flight == 0 && self.morgue.is_empty() {
                    return;
                }
            }
            let timeout = self.poll_timeout();
            let mut events = mem::take(&mut self.events);
            if self.poller.wait(&mut events, timeout).is_err() {
                events.clear();
                std::thread::sleep(Duration::from_millis(5));
            }
            self.events = events;
            let events = mem::take(&mut self.events);
            for ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    WAKE => self.process_completions(),
                    token => self.pump_token(token),
                }
            }
            self.events = events;
            self.publish_gauges();
            self.drive_morgue();
            self.check_deadlines();
        }
    }

    /// Publishes the gauges: once per loop iteration (workers move the
    /// queue) and right after every slab change, before the loop can serve
    /// another request, so `active_connections + open_slots` always equals
    /// the connection cap in a reply.
    fn publish_gauges(&self) {
        let g = &self.shared.telemetry.gauges;
        g.queue_depth
            .set(self.shared.queue_len.load(Ordering::Relaxed));
        g.open_slots.set(self.conns.open_slots() as u64);
        g.active_connections.set(self.conns.len() as u64);
    }

    /// How long the poller may sleep: until the next deadline, capped when
    /// unpolled work (morgue, shutdown drain) needs a tick.
    fn poll_timeout(&mut self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout = self
            .deadlines
            .next_deadline()
            .map(|d| d.saturating_duration_since(now));
        if !self.morgue.is_empty() {
            timeout = Some(timeout.map_or(MORGUE_TICK, |t| t.min(MORGUE_TICK)));
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            timeout = Some(timeout.map_or(SHUTDOWN_TICK, |t| t.min(SHUTDOWN_TICK)));
        }
        timeout
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        if self
            .shared
            .config
            .fault_plan
            .as_ref()
            .is_some_and(|f| f.rst_on_accept)
        {
            // Fault: accept, then drop without reading the peer's HELLO.
            // The unread inbound bytes turn the close into an RST.
            return;
        }
        let now = Instant::now();
        if self.conns.len() >= self.shared.config.max_connections {
            self.reject(stream, now);
            return;
        }
        let fd = stream.as_raw_fd();
        let mut stream = Some(stream);
        let token = self.conns.insert_with(|parked| {
            let stream = stream.take().expect("insert_with runs its closure once");
            match parked {
                Some(mut conn) => {
                    conn.reset_for(stream, now);
                    conn
                }
                None => Conn::new(stream, now),
            }
        });
        let Some(token) = token else {
            // Lost a race past the length check; reject after all.
            if let Some(stream) = stream {
                self.reject(stream, now);
            }
            return;
        };
        // Edge-triggered: register both directions once, never modify —
        // zero epoll_ctl calls on the steady path. Level-triggered: track
        // the phase's interest precisely to avoid busy-wakeups.
        let interest = if self.poller.is_edge_triggered() {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if self.poller.register(fd, token, interest).is_err() {
            self.conns.remove_with(token, |mut conn| {
                conn.park();
                Some(conn)
            });
            return;
        }
        if let Some(conn) = self.conns.get_mut(token) {
            conn.interest = interest;
        }
        self.publish_slab_stats();
        // The pump below may already serve pipelined STATS/TELEMETRY
        // requests, before this iteration's `publish_gauges`: publish now
        // so both see the slot this connection took.
        self.publish_gauges();
        self.pump_token(token);
    }

    /// Rejects an over-cap connection with a typed busy error (code +
    /// retry-after hint, so backoff-aware clients pace themselves), then
    /// parks it in the morgue until the frame flushes and the peer hangs
    /// up.
    fn reject(&mut self, stream: TcpStream, now: Instant) {
        self.shared.telemetry.counters.rejected_connections.bump();
        let e = RecoilError::busy(self.shared.config.busy_retry_after_ms);
        let mut bytes = Vec::new();
        append_frame(&mut bytes, FrameType::Error, &encode_error(&e))
            .expect("busy errors are far below the frame cap");
        let mut doomed = Doomed {
            stream,
            bytes,
            written: 0,
            half_closed: false,
            deadline: now + DRAIN_BUDGET,
        };
        if drive_doomed(&mut doomed) {
            self.morgue.push(doomed);
        }
    }

    fn drive_morgue(&mut self) {
        self.morgue.retain_mut(drive_doomed);
    }

    fn pump_token(&mut self, token: Token) {
        let Self { conns, shared, .. } = self;
        let Some(conn) = conns.get_mut(token) else {
            return;
        };
        let pumped = pump(conn, token, shared);
        self.in_flight += pumped.dispatched;
        match pumped.fate {
            Fate::Keep => self.after_pump(token),
            Fate::Close => self.close_conn(token),
        }
    }

    /// Post-pump bookkeeping: lazily arm the phase's deadline and (on the
    /// level-triggered fallback) sync the registered interest.
    fn after_pump(&mut self, token: Token) {
        let read_timeout = self.shared.config.read_timeout;
        let write_timeout = self.shared.config.write_timeout;
        let edge = self.poller.is_edge_triggered();
        enum Arm {
            Keep,
            Clear,
            Set(Instant),
        }
        let (arm, modify) = {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            let arm = match conn.desired_deadline(read_timeout, write_timeout) {
                None => {
                    if conn.armed.take().is_some() {
                        Arm::Clear
                    } else {
                        Arm::Keep
                    }
                }
                // Armed lazily: set once at phase entry, re-validated
                // against `last_progress` on expiry instead of being
                // re-pushed on every pump.
                Some(d) => {
                    if conn.armed.is_none() {
                        conn.armed = Some(d);
                        Arm::Set(d)
                    } else {
                        Arm::Keep
                    }
                }
            };
            let modify = if edge {
                None
            } else {
                let want = conn.desired_interest();
                if want != conn.interest {
                    conn.interest = want;
                    conn.stream.as_ref().map(|s| (s.as_raw_fd(), want))
                } else {
                    None
                }
            };
            (arm, modify)
        };
        match arm {
            Arm::Keep => {}
            Arm::Clear => self.deadlines.clear(token),
            Arm::Set(d) => self.deadlines.set(token, d),
        }
        if let Some((fd, want)) = modify {
            let _ = self.poller.modify(fd, token, want);
        }
    }

    fn close_conn(&mut self, token: Token) {
        let Some(conn) = self.conns.get(token) else {
            return;
        };
        if let Some(stream) = conn.stream.as_ref() {
            let _ = self.poller.deregister(stream.as_raw_fd());
        }
        self.conns.remove_with(token, |mut conn| {
            conn.park();
            Some(conn)
        });
        self.deadlines.clear(token);
        self.publish_slab_stats();
        // A deadline close runs after this iteration's `publish_gauges`,
        // and the loop may sleep next: publish now.
        self.publish_gauges();
    }

    fn process_completions(&mut self) {
        // Drain the pipe *before* taking the vec: a worker that pushes
        // after the take but before the drain still leaves a byte behind,
        // whereas the reverse order would lose its wakeup.
        self.wake.drain();
        let completions = mem::take(&mut *self.shared.completions.lock());
        for completion in completions {
            self.in_flight -= 1;
            self.apply_completion(completion);
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        let token = completion.token;
        {
            let Self { conns, shared, .. } = self;
            // Generation-checked: a completion for a connection that died
            // while its job ran resolves to nothing.
            let Some(conn) = conns.get_mut(token) else {
                return;
            };
            if let Some((mut buf, consumed)) = completion.buf {
                // The lent read buffer comes home; drop the handled frame
                // but keep any pipelined bytes queued behind it.
                buf.drain(..consumed);
                conn.read_buf = buf;
            }
            conn.close_after_write |= completion.close_after;
            match completion.reply {
                Reply::Framed(bytes) => {
                    conn.write_buf.extend_from_slice(&bytes);
                    conn.phase = Phase::Write;
                }
                Reply::Stream(tx, item, from_word) => {
                    stage_transmission(conn, shared, tx, item, from_word)
                }
            }
        }
        self.pump_token(token);
    }

    fn check_deadlines(&mut self) {
        let now = Instant::now();
        let mut expired = mem::take(&mut self.expired);
        expired.clear();
        self.deadlines.expired(now, &mut expired);
        for &token in &expired {
            self.handle_expiry(token, now);
        }
        self.expired = expired;
    }

    /// A deadline fired. Deadlines are armed once at phase entry, so the
    /// connection may have made progress since: re-validate against the
    /// phase's *current* desired deadline and only evict a peer that has
    /// genuinely stalled past its timeout.
    fn handle_expiry(&mut self, token: Token, now: Instant) {
        let read_timeout = self.shared.config.read_timeout;
        let write_timeout = self.shared.config.write_timeout;
        enum Action {
            Nothing,
            Rearm(Instant),
            EvictRead,
            EvictWrite,
            Drop,
        }
        let action = {
            let Some(conn) = self.conns.get_mut(token) else {
                return;
            };
            conn.armed = None;
            match conn.desired_deadline(read_timeout, write_timeout) {
                None => Action::Nothing,
                Some(d) if d > now => {
                    conn.armed = Some(d);
                    Action::Rearm(d)
                }
                Some(_) => match conn.phase {
                    Phase::Handshake | Phase::ReadFrame => Action::EvictRead,
                    Phase::Write => Action::EvictWrite,
                    Phase::Drain => Action::Drop,
                    Phase::Dispatching => Action::Nothing,
                },
            }
        };
        match action {
            Action::Nothing => {}
            Action::Rearm(d) => self.deadlines.set(token, d),
            Action::EvictRead => {
                // Consume anything already queued in the kernel before
                // judging the peer: if the event loop itself fell behind,
                // the bytes are here and the peer is innocent.
                self.pump_token(token);
                let now = Instant::now();
                let stalled = self.conns.get(token).is_some_and(|c| {
                    matches!(c.phase, Phase::Handshake | Phase::ReadFrame)
                        && c.desired_deadline(read_timeout, write_timeout)
                            .is_some_and(|d| d <= now)
                });
                if stalled {
                    // Slow loris: the peer started a frame (or the
                    // handshake) and stopped feeding it. Tell it why,
                    // then drain out.
                    self.note_eviction(token);
                    if let Some(conn) = self.conns.get_mut(token) {
                        stage_error(conn, &RecoilError::net("peer stalled mid-frame"), true);
                    }
                    self.pump_token(token);
                }
            }
            Action::EvictWrite => {
                // The peer stopped consuming its response; nothing more
                // can be said on a jammed pipe.
                self.note_eviction(token);
                self.close_conn(token);
            }
            Action::Drop => self.close_conn(token),
        }
    }

    fn note_eviction(&self, token: Token) {
        let tel = &self.shared.telemetry;
        tel.counters.evictions.bump();
        tel.trace(Stage::Evict, token.0, 0);
    }

    /// Abrupt death ([`super::NetServerHandle::kill`]): drop the listener
    /// and sever every connection without draining its response or saying
    /// goodbye — in-flight transfers cut off mid-frame, like a crashed
    /// process.
    fn kill_now(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        let mut tokens = Vec::new();
        self.conns.collect_tokens(&mut tokens);
        for token in tokens {
            self.close_conn(token);
        }
        self.morgue.clear();
    }

    /// Stops accepting and closes every connection not owed a response;
    /// connections mid-response (or mid-dispatch) finish first.
    fn begin_shutdown(&mut self) {
        let Some(listener) = self.listener.take() else {
            return;
        };
        let _ = self.poller.deregister(listener.as_raw_fd());
        drop(listener);
        let mut tokens = Vec::new();
        self.conns.collect_tokens(&mut tokens);
        for token in tokens {
            let idle = self.conns.get(token).is_some_and(|c| {
                matches!(c.phase, Phase::Handshake | Phase::ReadFrame | Phase::Drain)
            });
            if idle {
                self.close_conn(token);
            }
        }
    }

    /// Mirrors the slab's allocation/reuse tallies into `Shared` for the
    /// handle.
    fn publish_slab_stats(&self) {
        let stats = self.conns.stats();
        self.shared
            .slab_allocations
            .store(stats.allocations, Ordering::Relaxed);
        self.shared
            .slab_reuses
            .store(stats.reuses, Ordering::Relaxed);
    }
}

/// One dispatch worker: pop a job, run it, push the completion, wake the
/// loop. Exits only when the handle closes the queue *after* joining the
/// event loop, so no job is ever stranded.
fn dispatch_worker(shared: &Shared) {
    let mut jobs = shared.jobs.lock();
    loop {
        if let Some(job) = jobs.pop_front() {
            shared.queue_len.store(jobs.len() as u64, Ordering::Relaxed);
            drop(jobs);
            let tel = &shared.telemetry;
            if tel.counters_enabled() {
                let wait = elapsed_ns(job.queued_at());
                tel.hists.dispatch_wait_ns.record(wait);
                tel.trace(Stage::DispatchRun, job.token().0, wait);
            }
            let completion = run_job(shared, job);
            shared.completions.lock().push(completion);
            shared.waker.wake();
            jobs = shared.jobs.lock();
        } else if shared.jobs_closed.load(Ordering::Acquire) {
            return;
        } else {
            shared.jobs_cv.wait(&mut jobs);
        }
    }
}

/// Saturating nanoseconds since `t0`, sized for histogram/trace fields.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn error_frame(e: &RecoilError) -> Vec<u8> {
    let mut bytes = Vec::new();
    append_frame(&mut bytes, FrameType::Error, &encode_error(e))
        .expect("error frames are far below the frame cap");
    bytes
}

fn run_job(shared: &Shared, job: Job) -> Completion {
    match job {
        Job::Publish {
            token,
            buf,
            payload,
            consumed,
            queued_at: _,
        } => {
            let started = shared.telemetry.counters_enabled().then(Instant::now);
            let (reply, close_after) = publish_reply(shared, &buf[payload]);
            // The encode_ns histogram is recorded by ContentServer::publish
            // (successful encodes only); this trace covers the whole job.
            if let Some(t0) = started {
                shared
                    .telemetry
                    .trace(Stage::Encode, token.0, elapsed_ns(t0));
            }
            Completion {
                token,
                buf: Some((buf, consumed)),
                reply,
                close_after,
            }
        }
        Job::Fetch {
            token,
            name,
            parallel_segments,
            from_word,
            queued_at: _,
        } => match shared.content.fetch(&name, parallel_segments) {
            Ok((tx, item)) => {
                // The combine-vs-hit histograms live in ContentServer (which
                // times the combine itself); here we only leave the trace
                // breadcrumb with the measured cost.
                if shared.telemetry.counters_enabled() {
                    let ns = u64::try_from(tx.combine_nanos).unwrap_or(u64::MAX);
                    shared.telemetry.trace(Stage::Combine, token.0, ns);
                }
                Completion {
                    token,
                    buf: None,
                    reply: Reply::Stream(tx, item, from_word),
                    close_after: false,
                }
            }
            Err(e) => Completion {
                token,
                buf: None,
                reply: Reply::Framed(error_frame(&e)),
                close_after: false,
            },
        },
    }
}

/// PUBLISH off the loop: decode, encode-and-store, frame the verdict.
/// Application failures (duplicate name, bad config) are in-band and keep
/// the connection; a malformed frame is a protocol violation and closes it.
fn publish_reply(shared: &Shared, payload: &[u8]) -> (Reply, bool) {
    let msg = match PublishRequest::decode(payload) {
        Ok(m) => m,
        Err(e) => return (Reply::Framed(error_frame(&e)), true),
    };
    let config = EncoderConfig {
        ways: msg.ways,
        max_segments: msg.max_segments,
        quant_bits: msg.quant_bits,
        ..EncoderConfig::default()
    };
    match shared.content.publish(&msg.name, &msg.data, &config) {
        Ok(item) => {
            let ok = PublishOk {
                segments: item.metadata.num_segments(),
                stream_bytes: item.stream.payload_bytes(),
            };
            let mut bytes = Vec::new();
            append_frame(&mut bytes, FrameType::PublishOk, &ok.encode())
                .expect("publish-ok frames are far below the frame cap");
            (Reply::Framed(bytes), false)
        }
        Err(e) => (Reply::Framed(error_frame(&e)), false),
    }
}

/// Starts the reactor backend on an already-bound listener.
pub(super) fn bind(
    content: Arc<ContentServer>,
    listener: TcpListener,
    config: NetConfig,
) -> Result<ReactorHandle, RecoilError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| io_err("set_nonblocking", e))?;
    let mut poller = if config.poll_fallback {
        Poller::with_poll_fallback()
    } else {
        Poller::new()
    }
    .map_err(|e| io_err("create poller", e))?;
    let wake = WakePipe::new().map_err(|e| io_err("create wake pipe", e))?;
    poller
        .register(listener.as_raw_fd(), LISTENER, Interest::READ)
        .map_err(|e| io_err("register listener", e))?;
    poller
        .register(wake.read_fd(), WAKE, Interest::READ)
        .map_err(|e| io_err("register wake pipe", e))?;

    let chunk_words = config.effective_chunk_words().max(1);
    let workers = config.workers.max(1);
    let max_connections = config.max_connections;
    let telemetry = Arc::clone(content.telemetry());
    telemetry.set_level(config.telemetry);
    telemetry.gauges.open_slots.set(max_connections as u64);
    let shared = Arc::new(Shared {
        content,
        config,
        chunk_words,
        telemetry,
        shutdown: AtomicBool::new(false),
        killed: AtomicBool::new(false),
        jobs_closed: AtomicBool::new(false),
        jobs: Mutex::new(VecDeque::new()),
        jobs_cv: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        waker: wake.waker(),
        queue_len: AtomicU64::new(0),
        slab_allocations: AtomicU64::new(0),
        slab_reuses: AtomicU64::new(0),
    });

    let mut event_loop = EventLoop {
        shared: Arc::clone(&shared),
        poller,
        wake,
        listener: Some(listener),
        conns: Slab::with_capacity(max_connections),
        deadlines: DeadlineQueue::new(),
        morgue: Vec::new(),
        events: Vec::new(),
        expired: Vec::new(),
        in_flight: 0,
    };
    let loop_thread = std::thread::Builder::new()
        .name("recoil-net-serve".into())
        .spawn(move || event_loop.run())
        .map_err(|e| io_err("spawn event loop", e))?;

    let dispatch_shared = Arc::clone(&shared);
    let dispatch_thread = std::thread::Builder::new()
        .name("recoil-net-dispatch".into())
        .spawn(move || {
            // The pool host participates as a worker itself, so `workers`
            // total workers serve the queue.
            let pool = ThreadPool::new(workers - 1);
            pool.run(workers, |_| dispatch_worker(&dispatch_shared));
        })
        .map_err(|e| io_err("spawn dispatch pool", e))?;

    Ok(ReactorHandle {
        shared,
        loop_thread: Some(loop_thread),
        dispatch_thread: Some(dispatch_thread),
    })
}

/// Owner of a running reactor backend.
pub(super) struct ReactorHandle {
    shared: Arc<Shared>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    dispatch_thread: Option<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    pub(super) fn content(&self) -> &Arc<ContentServer> {
        &self.shared.content
    }

    pub(super) fn active_connections(&self) -> usize {
        let open = self.shared.telemetry.gauges.active_connections.get();
        usize::try_from(open).unwrap_or(usize::MAX)
    }

    pub(super) fn slab_stats(&self) -> SlabStats {
        SlabStats {
            allocations: self.shared.slab_allocations.load(Ordering::Relaxed),
            reuses: self.shared.slab_reuses.load(Ordering::Relaxed),
        }
    }

    pub(super) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    pub(super) fn shutdown_impl(&mut self) {
        self.stop(false);
    }

    /// Abrupt death: like [`Self::shutdown_impl`], except the event loop
    /// severs every connection instead of draining in-flight responses.
    pub(super) fn kill_impl(&mut self) {
        self.stop(true);
    }

    fn stop(&mut self, kill: bool) {
        if kill {
            self.shared.killed.store(true, Ordering::Release);
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        // Only after the loop is gone can the job queue close: a worker
        // exiting while the loop still dispatches would strand a request.
        self.shared.jobs_closed.store(true, Ordering::Release);
        {
            // Lock-then-notify: a worker between its queue check and its
            // wait would otherwise sleep through the notification.
            let _guard = self.shared.jobs.lock();
        }
        self.shared.jobs_cv.notify_all();
        if let Some(t) = self.dispatch_thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;

    #[test]
    fn parse_frame_handles_partial_and_hostile_input() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::Stats, b"xyz").unwrap();
        for cut in 0..buf.len() {
            assert!(
                parse_frame(&buf[..cut]).unwrap().is_none(),
                "cut {cut} is incomplete"
            );
        }
        assert_eq!(
            parse_frame(&buf).unwrap(),
            Some((FrameType::Stats, buf.len()))
        );
        // Pipelined trailing bytes do not confuse the parse.
        buf.push(0xFF);
        assert_eq!(
            parse_frame(&buf).unwrap(),
            Some((FrameType::Stats, buf.len() - 1))
        );

        assert!(parse_frame(&[0xABu8])
            .unwrap_err()
            .to_string()
            .contains("unknown frame type"));
        let mut oversized = vec![FrameType::Publish as u8];
        oversized.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(parse_frame(&oversized)
            .unwrap_err()
            .to_string()
            .contains("oversized frame"));
    }
}
