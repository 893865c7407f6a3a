//! The TCP front end over [`ContentServer`](recoil_server::ContentServer):
//! public configuration and handle types over the event-driven backend.
//!
//! The backend ([`reactor`]) multiplexes every connection on one
//! event-driven thread built from `recoil-reactor`'s readiness plumbing
//! (edge-triggered epoll, slab-pooled connection state, reactor-managed
//! deadlines) and offloads CPU-bound work — encodes on publish, metadata
//! combines on a tier-cache miss — to a small dispatch pool. Connections
//! are *not* pinned to threads, so thousands of mostly-idle peers cost
//! one slab slot each, not a worker.
//!
//! The original thread-per-connection backend finished its deprecation
//! cycle and has been removed; the reactor passes the same integration
//! suites it did.

mod reactor;

use crate::fault::FaultPlan;
use crate::frame::{io_err, MAX_FRAME_LEN};
use recoil_core::RecoilError;
use recoil_reactor::SlabStats;
use recoil_server::ContentServer;
use recoil_telemetry::{Telemetry, TelemetryLevel};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// Construction knobs for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Dispatch workers for CPU-bound request work (encoding a publish,
    /// combining metadata on a tier-cache miss).
    ///
    /// Connections are **not** pinned to workers: the reactor backend
    /// serves every connection from one event loop and touches a worker
    /// only for compute-heavy requests, so this sizes compute concurrency,
    /// not connection concurrency.
    pub workers: usize,
    /// Hard cap on concurrently open connections; excess accepts are
    /// rejected with a typed busy error.
    pub max_connections: usize,
    /// Progress deadline while a frame is partially received: a peer that
    /// starts a frame must keep bytes flowing at least this often or be
    /// evicted (slow-loris defense). Idle connections *between* frames are
    /// not subject to it.
    pub read_timeout: Duration,
    /// Progress deadline while a response is being written.
    pub write_timeout: Duration,
    /// Bitstream bytes per [`crate::FrameType::Chunk`] frame.
    pub chunk_bytes: usize,
    /// Force the reactor's portable level-triggered `poll(2)` backend
    /// instead of edge-triggered epoll (tests, exotic targets).
    pub poll_fallback: bool,
    /// The level bind sets on the content server's registry. `Off` (the
    /// default) records only the serving counters and gauges STATS reports
    /// and reduces every other instrument to one branch on the hot path;
    /// `Counters` adds the pipeline counters and latency histograms;
    /// `Trace` additionally keeps the last N stage events in a lock-free
    /// ring. Snapshots are served over the wire via the negotiated
    /// TELEMETRY capability and locally via [`NetServerHandle::telemetry`].
    pub telemetry: TelemetryLevel,
    /// Dispatch-queue depth at which PUBLISH/REQUEST offloads are shed with
    /// a typed busy error instead of queueing unboundedly behind a slow
    /// worker pool.
    pub max_queue_depth: usize,
    /// Retry-after hint (milliseconds) carried in the typed busy error the
    /// server sheds load with; a well-behaved client backs off at least
    /// this long before retrying.
    pub busy_retry_after_ms: u32,
    /// Deterministic fault schedule for chaos testing ([`FaultPlan`]). A
    /// `None` (the default) serves faithfully; a plan makes this node
    /// reset accepts, tear/delay writes, or die mid-stream at a fixed
    /// write offset — reproducibly, for failover tests and chaos benches.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for NetConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self {
            workers: cpus.clamp(2, 8),
            max_connections: 64,
            read_timeout: Duration::from_millis(250),
            write_timeout: Duration::from_secs(10),
            chunk_bytes: 256 * 1024,
            poll_fallback: false,
            telemetry: TelemetryLevel::Off,
            max_queue_depth: 1024,
            busy_retry_after_ms: 25,
            fault_plan: None,
        }
    }
}

impl NetConfig {
    /// Chunk size clamped to what one frame can carry (minus the sequence
    /// number) and to whole words.
    fn effective_chunk_words(&self) -> usize {
        (self.chunk_bytes.clamp(2, MAX_FRAME_LEN as usize - 4)) / 2
    }
}

/// The framed TCP server. Constructed via [`NetServer::bind`], which
/// returns the owning [`NetServerHandle`].
pub struct NetServer;

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `content` in background threads. The returned handle owns the
    /// server; dropping it shuts the server down.
    pub fn bind(
        content: Arc<ContentServer>,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> Result<NetServerHandle, RecoilError> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err("bind", e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
        let backend = reactor::bind(content, listener, config)?;
        Ok(NetServerHandle { addr, backend })
    }
}

/// Owner of a running [`NetServer`]; shuts it down when dropped.
pub struct NetServerHandle {
    addr: SocketAddr,
    backend: reactor::ReactorHandle,
}

impl NetServerHandle {
    /// The bound address (with the resolved port for ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The content store this server fronts.
    pub fn content(&self) -> &Arc<ContentServer> {
        self.backend.content()
    }

    /// Connections currently open (the registry's `active_connections`
    /// gauge).
    pub fn active_connections(&self) -> usize {
        self.backend.active_connections()
    }

    /// Connection-slot reuse tallies from the reactor's slab: steady-state
    /// accepts recycle parked buffers instead of allocating, and this is
    /// how tests assert it.
    pub fn slab_stats(&self) -> SlabStats {
        self.backend.slab_stats()
    }

    /// The server's metrics registry — the content server's
    /// [`ContentServer::telemetry`], which the TELEMETRY wire frame
    /// snapshots and STATS renders — for in-process consumers (benches,
    /// tests, `examples/telemetry_dump.rs`).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.backend.telemetry()
    }

    /// Stops accepting, lets in-flight requests finish, and joins every
    /// server thread. Idempotent (also runs on drop).
    pub fn shutdown(mut self) {
        self.backend.shutdown_impl();
    }

    /// Kills the node **abruptly**: the listener closes and every open
    /// connection is severed without draining its response or sending an
    /// ERROR frame — in-flight transfers die mid-frame, exactly like a
    /// crashed process (modulo the OS closing its sockets). This is the
    /// failover trigger the fabric's chaos tests exercise; for orderly
    /// teardown use [`NetServerHandle::shutdown`].
    pub fn kill(mut self) {
        self.backend.kill_impl();
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.backend.shutdown_impl();
    }
}

impl std::fmt::Debug for NetServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServerHandle")
            .field("addr", &self.addr)
            .field("backend", &"reactor")
            .field("active", &self.active_connections())
            .finish()
    }
}
