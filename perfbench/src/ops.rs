//! Per-op records and the end-to-end metrics computed from them.

use crate::measure::{Metrics, Samples};

/// What an op was, for the metrics it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A client fetch (or codec_bulk's in-process decode at capacity
    /// `nproc`): counts toward `fetch_*`, `ttfs_*` and `delivered_mb_s`.
    Fetch,
    /// A decode that is not a fetch (codec_bulk at capacity 1).
    Decode,
    /// A publish.
    Publish,
}

/// One completed (or failed) op. Times are nanoseconds.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub kind: Kind,
    pub ok: bool,
    pub latency_ns: u64,
    /// Time to the first decoded segment, for ops that stream.
    pub ttfs_ns: Option<u64>,
    /// `(segments decoded, decode nanoseconds)` when the op's decode step
    /// was timed on its own.
    pub decode: Option<(u64, u64)>,
    /// Payload bytes decoded (fetch, decode) or published (publish).
    pub bytes: u64,
    pub failovers: u32,
}

impl OpRecord {
    pub fn new(kind: Kind) -> Self {
        Self {
            kind,
            ok: false,
            latency_ns: 0,
            ttfs_ns: None,
            decode: None,
            bytes: 0,
            failovers: 0,
        }
    }
}

/// Reports a failed op on stderr, at most a few times per run.
pub fn report_failure(what: &str, detail: &dyn std::fmt::Display) {
    use std::sync::atomic::{AtomicU32, Ordering};
    static REPORTED: AtomicU32 = AtomicU32::new(0);
    if REPORTED.fetch_add(1, Ordering::Relaxed) < 8 {
        eprintln!("perfbench: {what} failed: {detail}");
    }
}

/// Per-op decode MB/s of ops decoded at `>= nproc` segments and at one
/// segment.
pub fn decode_rates(records: &[OpRecord], nproc: u64) -> (Samples, Samples) {
    let (mut dec_n, mut dec_1) = (Samples::default(), Samples::default());
    for r in records.iter().filter(|r| r.ok) {
        let Some((segments, ns)) = r.decode else {
            continue;
        };
        let rate = r.bytes as f64 / 1e6 / (ns as f64 / 1e9);
        if segments == 1 {
            dec_1.push(rate);
        } else if segments >= nproc {
            dec_n.push(rate);
        }
    }
    (dec_n, dec_1)
}

/// Fills every end-to-end metric except `setup_s` and `transfer_ratio`
/// from the op records of the measured interval `[start_ns, end_ns)`.
/// The MB/s of one decode or publish is a median over ops, so a
/// stretch of a run that loses a core to the host moves it less than a
/// total would. Returns human-readable detail lines.
pub fn end_to_end(
    m: &mut Metrics,
    records: &[OpRecord],
    start_ns: u64,
    end_ns: u64,
    nproc: u64,
) -> Vec<String> {
    let wall_s = (end_ns - start_ns) as f64 / 1e9;
    let mut publish = Samples::default();
    let mut publish_rate = Samples::default();
    let mut fetch = Samples::default();
    let mut ttfs = Samples::default();
    let mut delivered = 0u64;
    for r in records.iter().filter(|r| r.ok) {
        if r.kind == Kind::Publish {
            publish.push(r.latency_ns as f64 / 1e6);
            publish_rate.push(r.bytes as f64 / 1e6 / (r.latency_ns as f64 / 1e9));
            continue;
        }
        delivered += r.bytes;
        if r.kind == Kind::Fetch {
            fetch.push(r.latency_ns as f64 / 1e6);
            if let Some(t) = r.ttfs_ns {
                ttfs.push(t as f64 / 1e6);
            }
        }
    }
    let (dec_n, dec_1) = decode_rates(records, nproc);
    // A workload whose fetches never stream gets its first segment with
    // its last: the buffered latency is its time to first segment.
    let ttfs_source = if ttfs.len() > 0 { &ttfs } else { &fetch };
    // The tail is reported, not bounded: on a shared two-core host it
    // moves with the neighbours more than with the program.
    let (tail, tail_at) = fetch.tail(0.99);
    m.set("publish_mb_s", publish_rate.median());
    m.set("publish_p50_ms", publish.median());
    m.set("decode_mb_s", dec_n.median());
    m.set("decode_1t_mb_s", dec_1.median());
    m.set("fetch_rps", fetch.len() as f64 / wall_s);
    m.set("fetch_p50_ms", fetch.median());
    m.set("delivered_mb_s", delivered as f64 / 1e6 / wall_s);
    m.set("ttfs_p50_ms", ttfs_source.median());
    vec![
        format!(
            "fetches: {} verified in {:.3} s; latency tail p{} = {:.4} ms (the highest \
             percentile with >= 10 samples beyond it, capped at p99)",
            fetch.len(),
            wall_s,
            tail_at * 100.0,
            tail
        ),
        format!(
            "publishes: {}; decodes timed: {} at >= {nproc} segments, {} at 1 segment; \
             ttfs samples: {}",
            publish.len(),
            dec_n.len(),
            dec_1.len(),
            ttfs_source.len()
        ),
    ]
}
