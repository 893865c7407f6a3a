//! # recoil-telemetry — lock-free metrics and stage tracing
//!
//! Observability substrate for the recoil serve/decode pipeline. Everything
//! here is dependency-free, allocation-free on the record path, and safe
//! code (`#![forbid(unsafe_code)]`): the primitives sit inside the reactor
//! loop and the rANS decode hot loop, where a mutex or a malloc would show
//! up directly in the latency distributions they exist to measure.
//!
//! Three primitives, one handle:
//!
//! - [`Counter`] / [`Gauge`] — sharded relaxed-atomic counters (write-hot,
//!   read-cold) and single-publisher gauges.
//! - [`Histogram`] — fixed-size log2-bucketed latency histogram; `record(ns)`
//!   is a leading-zeros plus two relaxed adds (and, rarely, a max update),
//!   snapshots merge across threads and expose `p50/p90/p99/max`.
//! - [`TraceRing`] — a lock-free ring of [`TraceEvent`]s (per-connection
//!   generation, [`Stage`], timestamp, detail word) with a consuming
//!   [`TraceRing::drain`], so the last N pipeline events are inspectable
//!   after a stall or an eviction.
//!
//! The [`Telemetry`] handle bundles the pipeline's named instruments behind
//! a [`TelemetryLevel`]. It is the one metrics registry of a serving node:
//! the content server's STATS view is rendered from it and the TELEMETRY
//! frame snapshots it, so the two cannot disagree.
//!
//! - `Off` — only the serving counters and gauges STATS reports record
//!   (publishes, requests, tier hits/misses/evictions, bytes served,
//!   connection rejections, queue sheds and evictions; queue depth, open
//!   slots and active connections). Every other record call is a single
//!   branch on one relaxed byte load.
//! - `Counters` — every counter, gauge, and histogram records; the trace
//!   ring stays silent.
//! - `Trace` — everything, including the event ring.
//!
//! The level can change at run time ([`Telemetry::set_level`]), so a server
//! owns its registry from construction and a transport raises its level.
//!
//! Snapshots ([`Telemetry::snapshot`]) carry stable-ordered name/value
//! lists and render to a Prometheus-style text exposition via
//! [`TelemetrySnapshot::render_text`] — the same data the TELEMETRY wire
//! frame ships, so a client-side dump and a server-side dump line up.
//!
//! Decode-engine metrics (fast-loop groups vs careful-tail symbols, words
//! consumed) are process-global by necessity — the rANS kernels know
//! nothing about servers — and live in [`decode_metrics`]; putting any
//! `Telemetry` handle at `Counters` or above arms them, and snapshots fold
//! them in under `decode_*` names.

#![forbid(unsafe_code)]

mod counter;
mod hist;
mod trace;

pub use counter::{Counter, Gauge};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use trace::{Stage, TraceEvent, TraceRing};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// How much the pipeline records. Ordered: each level includes the ones
/// below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TelemetryLevel {
    /// Only the serving counters and the gauges record; every other
    /// instrument call is one branch.
    #[default]
    Off,
    /// Counters, gauges, and histograms record.
    Counters,
    /// Everything, including the event trace ring.
    Trace,
}

impl TelemetryLevel {
    /// Wire byte for the TELEMETRY reply.
    pub const fn byte(self) -> u8 {
        match self {
            Self::Off => 0,
            Self::Counters => 1,
            Self::Trace => 2,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => Self::Off,
            1 => Self::Counters,
            2 => Self::Trace,
            _ => return None,
        })
    }

    /// Stable lowercase name for expositions and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Counters => "counters",
            Self::Trace => "trace",
        }
    }
}

/// Event-count instruments, one per pipeline stage worth counting.
///
/// The serving counters, from `publishes` to `evictions`, record at every
/// level: they are what STATS reports. The rest record at
/// [`TelemetryLevel::Counters`] and above; their call sites check
/// [`Telemetry::counters_enabled`].
#[derive(Debug, Default)]
pub struct PipelineCounters {
    /// Successful content publications.
    pub publishes: Counter,
    /// Content requests, including ones that returned an error.
    pub requests: Counter,
    /// Requests served straight from a content item's tier cache.
    pub cache_hits: Counter,
    /// Requests that had to combine (and serialize) metadata on demand.
    pub cache_misses: Counter,
    /// Cached tiers dropped to make room for newly served ones.
    pub cache_evictions: Counter,
    /// Response bytes served (bitstream payload + shrunk metadata) across
    /// every successful request.
    pub bytes_served: Counter,
    /// Connections turned away at accept because the transport was at its
    /// connection cap.
    pub rejected_connections: Counter,
    /// Requests shed because the dispatch queue was full. With
    /// `rejected_connections` it makes up the snapshot's `busy_rejections`.
    pub queue_sheds: Counter,
    /// Connections evicted for missing a progress deadline (STATS
    /// `evicted_connections`).
    pub evictions: Counter,
    /// Complete frames parsed off connections by the reactor.
    pub frames_read: Counter,
    /// Payload + header bytes taken off the wire.
    pub bytes_read: Counter,
    /// Requests answered on the reactor thread without dispatch.
    pub inline_serves: Counter,
    /// Jobs handed to the dispatch pool.
    pub dispatched_jobs: Counter,
    /// Times a connection's pending write buffer fully drained.
    pub write_flushes: Counter,
    /// Bytes pushed onto sockets.
    pub bytes_written: Counter,
    /// Client/router side: fetches re-issued to a replica after the
    /// serving node died mid-stream.
    pub failovers: Counter,
    /// Client side: operation retries after a transport failure or a
    /// typed busy error (the first attempt is not a retry).
    pub retries: Counter,
    /// Router side: content names promoted onto additional replicas by
    /// hot-key tracking.
    pub replica_promotions: Counter,
}

/// Point-in-time values, recorded at every level. The reactor loop writes
/// its three from one place, so a snapshot always sees them agree.
#[derive(Debug, Default)]
pub struct PipelineGauges {
    /// Jobs waiting in the dispatch queue.
    pub queue_depth: Gauge,
    /// Free connection slots.
    pub open_slots: Gauge,
    /// Open connections; with `open_slots` it sums to the connection cap.
    pub active_connections: Gauge,
    /// Router side: fabric nodes currently considered healthy (equals the
    /// node count when no failures have been observed).
    pub healthy_nodes: Gauge,
}

/// Latency / size distributions, one per measured stage.
#[derive(Debug, Default)]
pub struct PipelineHistograms {
    /// ns to serve a request inline on the reactor thread (sampled 1-in-32
    /// at [`TelemetryLevel::Counters`]; every request at `Trace`).
    pub inline_serve_ns: Histogram,
    /// ns a job waited in the dispatch queue before a worker picked it up.
    pub dispatch_wait_ns: Histogram,
    /// ns a successful publish encode took (recorded by the content
    /// server's publish path, whichever transport drove it).
    pub encode_ns: Histogram,
    /// ns a tier combine took on a dispatch worker.
    pub combine_ns: Histogram,
    /// ns from a write becoming pending to the buffer fully flushing.
    pub write_flush_ns: Histogram,
    /// Segment count of requests that hit the tier cache (sampled 1-in-32
    /// at [`TelemetryLevel::Counters`]; every hit at `Trace` — the exact
    /// hit count is the `cache_hits` counter).
    pub tier_hit_segments: Histogram,
    /// Segment count of requests that missed and forced a combine.
    pub tier_miss_segments: Histogram,
    /// Client streaming: ns from request to first decoded segment.
    pub stream_first_segment_ns: Histogram,
    /// Client streaming: ns spent receiving/decoding the chunk stream.
    pub stream_transfer_ns: Histogram,
    /// Client streaming: ns for the whole fetch.
    pub stream_total_ns: Histogram,
}

/// Process-global decode-engine counters. The rANS kernels are leaf code
/// with no handle to thread through, so these are armed once (by the first
/// handle put at `Counters` or above) and folded into every snapshot.
#[derive(Debug, Default)]
pub struct DecodeMetrics {
    enabled: AtomicBool,
    /// Spans decoded (one per `decode_span` call).
    pub spans: Counter,
    /// Full GROUP-sized fast-loop iterations.
    pub fast_groups: Counter,
    /// Symbols decoded by the branchless fast loop.
    pub fast_symbols: Counter,
    /// Symbols decoded by the careful bounds-checked tail.
    pub careful_symbols: Counter,
    /// Compressed u32 words consumed across all spans.
    pub words_consumed: Counter,
}

impl DecodeMetrics {
    /// Cheap hot-path gate: one relaxed load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Arms recording process-wide (never disarmed: spans from overlapping
    /// servers must not silently stop counting).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }
}

/// The process-global [`DecodeMetrics`] instance.
pub fn decode_metrics() -> &'static DecodeMetrics {
    static METRICS: OnceLock<DecodeMetrics> = OnceLock::new();
    METRICS.get_or_init(DecodeMetrics::default)
}

/// Default trace-ring capacity: big enough to hold the full event history
/// of a burst, small enough to bound the TELEMETRY reply payload.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// The handle a server, client, or bench threads through its pipeline.
/// Instruments below the current level no-op; the serving counters and the
/// gauges record at every level.
#[derive(Debug)]
pub struct Telemetry {
    /// [`TelemetryLevel::byte`] of the current level.
    level: AtomicU8,
    start: Instant,
    pub counters: PipelineCounters,
    pub gauges: PipelineGauges,
    pub hists: PipelineHistograms,
    trace: TraceRing,
}

impl Telemetry {
    pub fn new(level: TelemetryLevel) -> Self {
        let t = Self {
            level: AtomicU8::new(TelemetryLevel::Off.byte()),
            start: Instant::now(),
            counters: PipelineCounters::default(),
            gauges: PipelineGauges::default(),
            hists: PipelineHistograms::default(),
            trace: TraceRing::with_capacity(DEFAULT_TRACE_CAPACITY),
        };
        t.set_level(level);
        t
    }

    /// A handle at `Off`: only the serving counters and gauges record.
    pub fn off() -> Self {
        Self::new(TelemetryLevel::Off)
    }

    pub fn level(&self) -> TelemetryLevel {
        TelemetryLevel::from_u8(self.level.load(Ordering::Relaxed)).unwrap_or_default()
    }

    /// Changes the level for every later record call; raising it to
    /// `Counters` or above arms the global [`decode_metrics`], as
    /// [`Telemetry::new`] does.
    pub fn set_level(&self, level: TelemetryLevel) {
        if level >= TelemetryLevel::Counters {
            decode_metrics().enable();
        }
        self.level.store(level.byte(), Ordering::Relaxed);
    }

    /// Whether the level-gated counters and the histograms record. Call
    /// sites gate `Instant` reads on this so `Off` costs one branch, not a
    /// clock read.
    #[inline]
    pub fn counters_enabled(&self) -> bool {
        self.level.load(Ordering::Relaxed) >= TelemetryLevel::Counters.byte()
    }

    /// Whether [`Telemetry::trace`] records.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.level.load(Ordering::Relaxed) >= TelemetryLevel::Trace.byte()
    }

    /// Nanoseconds since this handle was created — the trace timebase.
    /// Saturates at `u64::MAX` (584 years of uptime).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a trace event if the level allows it. The timestamp is taken
    /// here so disabled tracing never reads the clock.
    #[inline]
    pub fn trace(&self, stage: Stage, conn_gen: u64, detail: u64) {
        if self.trace_enabled() {
            self.trace.record(TraceEvent {
                conn_gen,
                stage,
                t_ns: self.now_ns(),
                detail,
            });
        }
    }

    /// Consumes and returns the buffered trace events in ticket order.
    pub fn drain_trace(&self) -> Vec<(u64, TraceEvent)> {
        self.trace.drain()
    }

    /// Total trace events ever recorded (including overwritten ones).
    pub fn trace_recorded(&self) -> u64 {
        self.trace.recorded()
    }

    /// Snapshots every instrument (plus the global decode metrics) into
    /// stable-ordered name/value lists.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let c = &self.counters;
        let d = decode_metrics();
        let counters = vec![
            ("frames_read", c.frames_read.get()),
            ("bytes_read", c.bytes_read.get()),
            ("inline_serves", c.inline_serves.get()),
            ("dispatched_jobs", c.dispatched_jobs.get()),
            ("write_flushes", c.write_flushes.get()),
            ("bytes_written", c.bytes_written.get()),
            ("evictions", c.evictions.get()),
            (
                "busy_rejections",
                c.rejected_connections
                    .get()
                    .wrapping_add(c.queue_sheds.get()),
            ),
            ("failovers", c.failovers.get()),
            ("retries", c.retries.get()),
            ("replica_promotions", c.replica_promotions.get()),
            ("publishes", c.publishes.get()),
            ("requests", c.requests.get()),
            ("cache_hits", c.cache_hits.get()),
            ("cache_misses", c.cache_misses.get()),
            ("cache_evictions", c.cache_evictions.get()),
            ("bytes_served", c.bytes_served.get()),
            ("rejected_connections", c.rejected_connections.get()),
            ("queue_sheds", c.queue_sheds.get()),
            ("decode_spans", d.spans.get()),
            ("decode_fast_groups", d.fast_groups.get()),
            ("decode_fast_symbols", d.fast_symbols.get()),
            ("decode_careful_symbols", d.careful_symbols.get()),
            ("decode_words_consumed", d.words_consumed.get()),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
        let g = &self.gauges;
        let gauges = vec![
            ("queue_depth".to_string(), g.queue_depth.get()),
            ("open_slots".to_string(), g.open_slots.get()),
            ("active_connections".to_string(), g.active_connections.get()),
            ("healthy_nodes".to_string(), g.healthy_nodes.get()),
        ];
        let h = &self.hists;
        let hists = vec![
            ("inline_serve_ns", h.inline_serve_ns.snapshot()),
            ("dispatch_wait_ns", h.dispatch_wait_ns.snapshot()),
            ("encode_ns", h.encode_ns.snapshot()),
            ("combine_ns", h.combine_ns.snapshot()),
            ("write_flush_ns", h.write_flush_ns.snapshot()),
            ("tier_hit_segments", h.tier_hit_segments.snapshot()),
            ("tier_miss_segments", h.tier_miss_segments.snapshot()),
            (
                "stream_first_segment_ns",
                h.stream_first_segment_ns.snapshot(),
            ),
            ("stream_transfer_ns", h.stream_transfer_ns.snapshot()),
            ("stream_total_ns", h.stream_total_ns.snapshot()),
        ]
        .into_iter()
        .map(|(name, s)| (name.to_string(), s))
        .collect();
        TelemetrySnapshot {
            level: self.level(),
            counters,
            gauges,
            hists,
        }
    }
}

/// Owned snapshot of a [`Telemetry`] handle — what the TELEMETRY wire frame
/// carries and what [`TelemetrySnapshot::render_text`] renders. Names are
/// part of the wire payload, so new instruments can appear without a frame
/// version bump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    pub level: TelemetryLevel,
    /// `(name, value)` in stable order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` in stable order.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` in stable order.
    pub hists: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    /// Looks a counter up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks a gauge up by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks a histogram up by name.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Renders a Prometheus-style text exposition: counters and gauges as
    /// single samples, histograms as cumulative `_bucket{le="..."}` series
    /// (non-empty buckets only, plus `+Inf`) with `_sum`/`_count` and a
    /// `p50/p90/p99/max` comment line per histogram.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# recoil telemetry (level={})", self.level.name());
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE recoil_{name} counter");
            let _ = writeln!(out, "recoil_{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE recoil_{name} gauge");
            let _ = writeln!(out, "recoil_{name} {v}");
        }
        for (name, h) in &self.hists {
            let _ = writeln!(out, "# TYPE recoil_{name} histogram");
            let _ = writeln!(
                out,
                "# recoil_{name}: p50={} p90={} p99={} max={}",
                h.p50(),
                h.p90(),
                h.p99(),
                h.max
            );
            let mut cumulative = 0u64;
            for (b, &n) in h.buckets.iter().enumerate() {
                cumulative = cumulative.wrapping_add(n);
                if n != 0 && b < BUCKETS - 1 {
                    let _ = writeln!(
                        out,
                        "recoil_{name}_bucket{{le=\"{}\"}} {cumulative}",
                        bucket_upper_bound(b)
                    );
                }
            }
            let _ = writeln!(out, "recoil_{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "recoil_{name}_sum {}", h.sum);
            let _ = writeln!(out, "recoil_{name}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_round_trip() {
        assert!(TelemetryLevel::Off < TelemetryLevel::Counters);
        assert!(TelemetryLevel::Counters < TelemetryLevel::Trace);
        for level in [
            TelemetryLevel::Off,
            TelemetryLevel::Counters,
            TelemetryLevel::Trace,
        ] {
            assert_eq!(TelemetryLevel::from_u8(level.byte()), Some(level));
        }
        assert_eq!(TelemetryLevel::from_u8(3), None);
        assert_eq!(TelemetryLevel::default(), TelemetryLevel::Off);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn off_handle_records_nothing_through_trace() {
        let t = Telemetry::off();
        assert!(!t.counters_enabled());
        assert!(!t.trace_enabled());
        t.trace(Stage::FrameRead, 1, 2);
        assert!(t.drain_trace().is_empty());
        assert_eq!(t.trace_recorded(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn trace_handle_records_and_drains_in_order() {
        let t = Telemetry::new(TelemetryLevel::Trace);
        assert!(t.counters_enabled() && t.trace_enabled());
        t.trace(Stage::FrameRead, 7, 100);
        t.trace(Stage::InlineServe, 7, 200);
        let events = t.drain_trace();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].1.stage, Stage::FrameRead);
        assert_eq!(events[1].1.stage, Stage::InlineServe);
        assert!(events[0].1.t_ns <= events[1].1.t_ns);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn snapshot_names_are_stable_and_lookups_work() {
        let t = Telemetry::new(TelemetryLevel::Counters);
        t.counters.frames_read.add(5);
        t.gauges.queue_depth.set(3);
        t.hists.inline_serve_ns.record(1500);
        let s = t.snapshot();
        assert_eq!(s.counter("frames_read"), Some(5));
        assert_eq!(s.gauge("queue_depth"), Some(3));
        assert_eq!(s.gauge("healthy_nodes"), Some(0));
        assert_eq!(s.hist("inline_serve_ns").unwrap().count, 1);
        assert_eq!(s.counter("no_such_counter"), None);
        // Every name a downstream consumer keys on must be present.
        for name in [
            "frames_read",
            "bytes_read",
            "inline_serves",
            "dispatched_jobs",
            "write_flushes",
            "bytes_written",
            "evictions",
            "busy_rejections",
            "failovers",
            "retries",
            "replica_promotions",
            "publishes",
            "requests",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "bytes_served",
            "rejected_connections",
            "queue_sheds",
            "decode_spans",
            "decode_fast_groups",
            "decode_fast_symbols",
            "decode_careful_symbols",
            "decode_words_consumed",
        ] {
            assert!(s.counter(name).is_some(), "missing counter {name}");
        }
        for name in [
            "queue_depth",
            "open_slots",
            "active_connections",
            "healthy_nodes",
        ] {
            assert!(s.gauge(name).is_some(), "missing gauge {name}");
        }
        for name in [
            "inline_serve_ns",
            "dispatch_wait_ns",
            "encode_ns",
            "combine_ns",
            "write_flush_ns",
            "tier_hit_segments",
            "tier_miss_segments",
            "stream_first_segment_ns",
            "stream_transfer_ns",
            "stream_total_ns",
        ] {
            assert!(s.hist(name).is_some(), "missing histogram {name}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn set_level_gates_histograms_but_never_serving_counters() {
        // A call site as the pipeline writes one: the histogram is gated by
        // the level, the serving counter is not.
        let serve = |t: &Telemetry| {
            t.counters.requests.bump();
            if t.counters_enabled() {
                t.hists.encode_ns.record(1000);
            }
        };
        let t = Telemetry::off();
        serve(&t);
        t.counters.rejected_connections.bump();
        t.counters.queue_sheds.add(2);
        t.gauges.active_connections.set(4);
        let s = t.snapshot();
        assert_eq!(s.level, TelemetryLevel::Off);
        assert_eq!(s.counter("requests"), Some(1));
        assert_eq!(s.hist("encode_ns").map(|h| h.count), Some(0));
        assert_eq!(s.counter("busy_rejections"), Some(3));
        assert_eq!(s.gauge("active_connections"), Some(4));

        t.set_level(TelemetryLevel::Counters);
        assert!(t.counters_enabled() && !t.trace_enabled());
        assert!(decode_metrics().enabled());
        serve(&t);
        let s = t.snapshot();
        assert_eq!(s.level, TelemetryLevel::Counters);
        assert_eq!(s.hist("encode_ns").map(|h| h.count), Some(1));
        assert_eq!(s.counter("requests"), Some(2));

        t.set_level(TelemetryLevel::Trace);
        assert_eq!(t.snapshot().level, TelemetryLevel::Trace);
        t.set_level(TelemetryLevel::Off);
        assert_eq!(t.level(), TelemetryLevel::Off);
        t.trace(Stage::FrameRead, 1, 2);
        assert_eq!(t.trace_recorded(), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn render_text_exposes_buckets_and_percentiles() {
        let t = Telemetry::new(TelemetryLevel::Counters);
        t.counters.inline_serves.add(2);
        t.hists.inline_serve_ns.record(1000);
        t.hists.inline_serve_ns.record(2000);
        let text = t.snapshot().render_text();
        assert!(text.contains("# TYPE recoil_inline_serves counter"));
        assert!(text.contains("recoil_inline_serves 2"));
        assert!(text.contains("# TYPE recoil_inline_serve_ns histogram"));
        assert!(text.contains("recoil_inline_serve_ns_count 2"));
        assert!(text.contains("recoil_inline_serve_ns_sum 3000"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("p50="));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // Instant::now is unsupported under isolation
    fn counters_level_arms_global_decode_metrics() {
        let _t = Telemetry::new(TelemetryLevel::Counters);
        assert!(decode_metrics().enabled());
        decode_metrics().spans.bump();
        let s = _t.snapshot();
        assert!(s.counter("decode_spans").unwrap() >= 1);
    }
}
