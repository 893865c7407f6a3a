//! Framed TCP transport for the content-delivery service (paper §1, §3.3).
//!
//! The paper's use case is inherently remote: "the client requests content,
//! and also attaches its parallel capacity inside the request header; the
//! server receives the request, shrinks down the metadata in real-time, and
//! serves the bitstream and the shrunk metadata to the decoder." This crate
//! puts that exchange on a real socket: a length-prefixed binary protocol
//! over `std::net` TCP, an event-driven [`NetServer`] wrapping the sharded
//! in-process [`ContentServer`], and a pooling [`NetClient`] whose
//! [`NetClient::fetch_and_decode`] turns a remote fetch into one call that
//! ends in decoded bytes.
//!
//! ## Wire protocol
//!
//! Every frame is `[type: u8][len: u32 LE][payload]`; unknown types and
//! payloads over 64 MiB are rejected before allocation. A connection opens
//! with a HELLO exchange (version + capability negotiation), then carries
//! any number of requests:
//!
//! | Frame | Dir | Payload |
//! |---|---|---|
//! | `HELLO` (0x01) | both | magic, protocol version, capability bits |
//! | `PUBLISH` (0x02) | C→S | name, encoder knobs, raw data to encode |
//! | `PUBLISH_OK` (0x03) | S→C | planned segments, bitstream bytes |
//! | `REQUEST` (0x04) | C→S | name, client's `parallel_segments` |
//! | `TRANSMIT` (0x05) | S→C | shrunk metadata, model, stream geometry, payload CRC-32, chunk count |
//! | `CHUNK` (0x06) | S→C | sequence number + one bitstream slice |
//! | `STATS` (0x07) | C→S | *(empty)* |
//! | `STATS_REPLY` (0x08) | S→C | counter snapshot + item count |
//! | `TELEMETRY` (0x09) | C→S | *(empty)*; requires the negotiated `CAP_TELEMETRY` bit |
//! | `TELEMETRY_REPLY` (0x0A) | S→C | full telemetry snapshot (counters, gauges, stage histograms) + drained stage-trace events |
//! | `RESUME` (0x0B) | C→S | name, `parallel_segments`, `from_word`; requires the negotiated `CAP_RESUME` bit |
//! | `ERROR` (0x0E) | both | error code + detail, maps onto [`RecoilError`] |
//!
//! Large bitstreams are **chunked**: `TRANSMIT` carries everything except
//! the words, which follow as ordered `CHUNK` frames; the client verifies a
//! CRC-32 over the reassembled payload (metadata bytes carry their own
//! footer from the core wire format). Typed `ERROR` frames round-trip
//! [`RecoilError`]: `NotFound`/`AlreadyPublished`/`Busy` reconstruct
//! exactly, the rest degrade to [`RecoilError::Net`] with the remote
//! display text.
//!
//! ## Segment resume
//!
//! `RESUME` is `REQUEST` plus a word offset: "serve `name` at this
//! parallelism, but I already hold the first `from_word` complete words."
//! The server replies with the same `TRANSMIT` header an original fetch
//! gets (whole-stream geometry and payload CRC, so the client can
//! cross-check against the header it saw before the failure) whose chunk
//! plan is trimmed to the missing words. Recoil's split metadata is what
//! makes this cheap: segment *m* is decodable once `splits[m].offset + 1`
//! words arrived, so readiness is a strict prefix of the word stream and a
//! byte offset *is* a resume point — no per-segment state to rebuild, no
//! interleaved stream to unpick. The fabric crate's failover path uses
//! this to continue a fetch on a replica mid-stream, byte-identical to an
//! undisturbed fetch, without re-sending segments the client already
//! decoded.
//!
//! ## Fault injection
//!
//! [`NetConfig::fault_plan`] arms a deterministic [`FaultPlan`] on a
//! server: reset every accept, delay or tear each write syscall, or sever
//! connections at a fixed response-byte offset (a mid-stream crash). Plans
//! are plain data with seeded constructors, so the chaos suite and
//! `bench net --chaos` replay the same failures on every run.
//!
//! ## Streaming pipelined decode
//!
//! Chunk boundaries are not arbitrary: the server cuts the bitstream with
//! the **split-aligned chunk plan** ([`recoil_core::plan_chunks`]) for the
//! served metadata tier, so each chunk completes whole decode segments.
//! [`NetClient::fetch_and_decode_streaming`] exploits that on the calling
//! thread: after each chunk arrives it decodes every newly resident segment
//! — through the client's configured backend and its thread pool — before
//! reading the next, while later chunks wait in the socket buffer. No
//! decoder thread, channel or in-flight budget is involved. The CRC check
//! is preserved, and the decoded bytes are guaranteed byte-identical to the
//! buffered [`NetClient::fetch_and_decode`] path. The returned
//! [`StreamedFetch`] reports time-to-first-segment, transfer, and total
//! latency so callers can see how much decode time the transfer hid.
//!
//! ## One receive state machine
//!
//! Buffered, streaming and routed fetches all receive through one
//! sans-I/O [`Fetch`]: it validates the TRANSMIT header, takes CHUNK bodies
//! (overrun check, running CRC-32, incremental decoder), decodes what is
//! resident, and checks the finished payload. The callers only move
//! frames. Its resume state is the word offset received so far, which is
//! what the fabric router hands the next node after a mid-stream death;
//! [`Fetch::resume`] refuses a new node's header unless every whole-stream
//! field matches.
//!
//! ## Server concurrency model
//!
//! [`NetServer::bind`] starts one **reactor thread** that multiplexes
//! every connection through `recoil-reactor`'s readiness plumbing:
//! edge-triggered epoll (with a portable `poll(2)` fallback behind
//! [`NetConfig::poll_fallback`]), per-connection state in a
//! generation-checked slab whose buffers are parked on close and recycled
//! on the next accept, and a deadline queue for progress timeouts.
//! Connections are **not** pinned to threads: thousands of mostly-idle
//! peers cost one slab slot each. HELLO negotiation, stats snapshots, and
//! cache-hit requests are served inline on the loop with zero per-request
//! allocation; CPU-bound work — the rANS encode behind a `PUBLISH`, the
//! real-time metadata combine behind a tier-cache miss — runs on a small
//! dispatch pool ([`recoil_parallel::ThreadPool`], sized by
//! [`NetConfig::workers`]) and completes back to the loop through a wake
//! pipe.
//!
//! `max_connections` caps open connections (excess accepts get a typed
//! busy error). Timeouts are *progress* deadlines managed by the reactor:
//! a peer that starts a frame must keep bytes flowing within
//! [`NetConfig::read_timeout`] or it is evicted with a typed `ERROR`
//! frame (slow-loris defense, counted in the `evicted_connections`
//! stat); a peer that stops consuming its response is dropped after
//! [`NetConfig::write_timeout`]. Idle connections *between* frames are
//! never timed. Shutdown is graceful: the loop stops accepting, closes
//! idle connections, and lets every in-flight response finish before the
//! threads join.
//!
//! Cache-hit requests resolve through [`ContentServer::fetch_cached`]
//! without leaving the loop; misses go through [`ContentServer::fetch`],
//! the atomic name→(transmission, content) lookup, on a worker. The
//! server's `bytes_served` / `rejected_connections` /
//! `evicted_connections` counters and the `active_connections` /
//! `queue_depth` / `open_slots` gauges surface through the `STATS` frame.
//! The original thread-per-connection backend completed its deprecation
//! cycle and has been removed.
//!
//! ## Observability
//!
//! A server has one metrics registry: the content server's
//! [`recoil_telemetry::Telemetry`] ([`ContentServer::telemetry`]). The
//! reactor writes its connection counters and gauges into it, STATS is
//! rendered from it and TELEMETRY snapshots it, so the two frames cannot
//! disagree. [`NetConfig::telemetry`] sets its level at bind: `Off`
//! (default; only the serving counters and gauges STATS reports record),
//! `Counters` (adds the pipeline counters and stage histograms; hot-path
//! spans are sampled), or `Trace` (adds a lock-free stage-event ring and
//! times every span). Either side of the wire can hold instruments:
//! servers expose theirs through the `TELEMETRY` frame
//! ([`NetClient::remote_telemetry`]) when both ends negotiated
//! [`CAP_TELEMETRY`], and clients keep their own handle
//! ([`NetClient::telemetry`]) recording streaming-fetch latencies.
//!
//! ## Client
//!
//! [`NetClient`] keeps a small pool of negotiated connections and retries
//! failed calls under a real policy: only idempotent operations (fetch,
//! stats — never PUBLISH over a live connection), a per-call retry budget
//! ([`NetClientConfig::retry_budget`]), jittered exponential backoff, and
//! typed [`RecoilError::Busy`] shed responses honor the server's
//! retry-after hint. A dead pooled connection still gets one immediate
//! free redial (staleness is bookkeeping, not server failure). Decode goes
//! through any [`DecodeBackend`] — AVX-512 → AVX2 → scalar auto-dispatch
//! by default, so a remote fetch-and-decode is:
//!
//! ```no_run
//! use recoil_net::NetClient;
//! let client = NetClient::connect("127.0.0.1:4870")?;
//! let bytes = client.fetch_and_decode("movie", 16)?;
//! # Ok::<(), recoil_core::RecoilError>(())
//! ```
//!
//! [`ContentServer`]: recoil_server::ContentServer
//! [`ContentServer::fetch`]: recoil_server::ContentServer::fetch
//! [`ContentServer::fetch_cached`]: recoil_server::ContentServer::fetch_cached
//! [`RecoilError`]: recoil_core::RecoilError
//! [`RecoilError::Net`]: recoil_core::RecoilError::Net
//! [`DecodeBackend`]: recoil_core::codec::DecodeBackend

// Safe crate: `unsafe` lives only in the audited allowlist (cargo xtask check).
#![forbid(unsafe_code)]

mod client;
mod fault;
mod fetch;
mod frame;
mod proto;
mod server;

pub use client::{FetchSession, NetClient, NetClientConfig, RemoteContent, StreamedFetch};
pub use fault::{splitmix64, FaultPlan};
pub use fetch::Fetch;
pub use frame::{
    FrameType, CAP_CHUNKED, CAP_RESUME, CAP_TELEMETRY, HELLO_MAGIC, MAX_FRAME_LEN,
    PROTOCOL_VERSION, SUPPORTED_CAPS,
};
pub use proto::{
    ContentRequest, Hello, PublishOk, PublishRequest, ResumeRequest, StatsReply, TelemetryReply,
    TransmitHeader,
};
pub use recoil_reactor::SlabStats;
pub use server::{NetConfig, NetServer, NetServerHandle};

// Framing internals the integration tests poke at (sending deliberately
// malformed frames requires the raw read/write entry points).
#[doc(hidden)]
pub mod raw {
    pub use crate::frame::{
        append_frame, begin_frame, decode_error, encode_error, end_frame, read_frame, write_frame,
        PayloadReader, PayloadWriter, ReadOutcome,
    };
}
