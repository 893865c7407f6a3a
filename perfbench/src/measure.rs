//! Measurement primitives: the metric set, the percentile rule, spans with
//! self times, log2-histogram interpolation, and the result line.

use recoil::telemetry::HistogramSnapshot;
use std::time::Instant;

/// End-to-end metrics (untraced run), `(name, unit)`, in `BENCHMARK.json`
/// order. Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("publish_mb_s", "MB/s"),
    ("publish_p50_ms", "ms"),
    ("decode_mb_s", "MB/s"),
    ("decode_1t_mb_s", "MB/s"),
    ("transfer_ratio", "B/B"),
    ("fetch_rps", "1/s"),
    ("fetch_p50_ms", "ms"),
    ("delivered_mb_s", "MB/s"),
    ("ttfs_p50_ms", "ms"),
];

/// Per-layer metrics (traced run), `(name, unit)`, in `BENCHMARK.json`
/// order. Every workload reports every one of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rans.decode_mb_s", "MB/s"),
    ("rans.encode_mb_s", "MB/s"),
    ("rans.scan_mb_s", "MB/s"),
    ("simd.decode_mb_s.scalar.t1", "MB/s"),
    ("simd.decode_mb_s.pooled.t1", "MB/s"),
    ("simd.decode_mb_s.pooled.t2", "MB/s"),
    ("simd.decode_mb_s.avx2.t1", "MB/s"),
    ("simd.decode_mb_s.avx2.t2", "MB/s"),
    ("simd.decode_mb_s.avx512.t1", "MB/s"),
    ("simd.decode_mb_s.avx512.t2", "MB/s"),
    ("simd.decode_mb_s.auto.t1", "MB/s"),
    ("simd.decode_mb_s.auto.t2", "MB/s"),
    ("parallel.dispatch_us", "us"),
    ("parallel.scaling_eff", "ratio"),
    ("core.encode_serial_mb_s", "MB/s"),
    ("core.encode_pooled_mb_s", "MB/s"),
    ("core.sync_us", "us"),
    ("core.combine_us.s1", "us"),
    ("core.combine_us.s4", "us"),
    ("core.combine_us.s16", "us"),
    ("core.combine_us.s64", "us"),
    ("core.crc_mb_s", "MB/s"),
    ("core.incremental_us", "us"),
    ("core.size_overhead_pct.s1", "%"),
    ("core.size_overhead_pct.s4", "%"),
    ("core.size_overhead_pct.s16", "%"),
    ("core.size_overhead_pct.s64", "%"),
    ("core.size_overhead_pct.s256", "%"),
    ("server.fetch_hit_us", "us"),
    ("server.fetch_miss_us", "us"),
    ("server.tier_hit_rate", "ratio"),
    ("server.publish_ms", "ms"),
    ("net.request_ms", "ms"),
    ("net.decode_ms", "ms"),
    ("net.streaming_total_ms", "ms"),
    ("net.retries", "count"),
    ("reactor.inline_serve_us.p50", "us"),
    ("reactor.inline_serve_us.p99", "us"),
    ("reactor.dispatch_wait_us.p99", "us"),
    ("reactor.write_flush_us.p99", "us"),
    ("fabric.fetch_ms", "ms"),
    ("fabric.failovers", "count"),
    ("telemetry.overhead_pct", "%"),
    ("budget.buffered.fetch_p50_ms", "ms"),
    ("budget.buffered.attributed_ms", "ms"),
    ("budget.streaming.fetch_p50_ms", "ms"),
    ("budget.streaming.attributed_ms", "ms"),
    ("budget.routed.fetch_p50_ms", "ms"),
    ("budget.routed.attributed_ms", "ms"),
    ("budget.unattributed_pct", "%"),
];

/// True when `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 7] = [0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error in `p * n` from bumping an exact rank.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile in the ladder that has at least ten samples
/// beyond it, or `None` when there are fewer than twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n >= rank(p, n) + 10)
}

/// A set of timing (or any) samples, summarized by nearest rank.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile; NaN when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(p, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// The tail by the percentile rule, capped at `cap` (the percentile the
    /// metric is named for): `(value, percentile used)`. With too few
    /// samples for any tail, the maximum.
    pub fn tail(&self, cap: f64) -> (f64, f64) {
        let p = tail_percentile(self.len()).map_or(1.0, |p| p.min(cap));
        (self.percentile(p), p)
    }
}

/// Monotonic nanoseconds since the benchmark's own epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Self(Instant::now())
    }

    pub fn now(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One recorded span. Spans of one request share their root, which acts
/// as the request's identifier.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Spans kept in memory for the length of a run.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its index (the handle children use).
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    pub fn append(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration() - covered(kids, s.start, s.end))
            .collect()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.duration() as f64 / 1e6);
        }
        out
    }

    /// For every root span named `name`: `(duration, attributed)` where
    /// `attributed` is the summed self time of every span below it.
    pub fn budget(&self, name: &str) -> Vec<(u64, u64)> {
        let selfs = self.self_times();
        let mut attributed = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let mut up = s.parent;
            while let Some(p) = up {
                attributed[p] += selfs[i];
                up = self.spans[p].parent;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == name)
            .map(|(i, s)| (s.duration(), attributed[i]))
            .collect()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Quantile `q` of a log2-bucketed histogram snapshot, interpolated
/// linearly inside the bucket that holds the rank and clamped to the
/// recorded maximum. The snapshot's own `percentile` reports bucket upper
/// bounds, which would read identically across runs.
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q * h.count as f64).ceil().max(1.0);
    let mut seen = 0u64;
    for (b, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if (seen + n) as f64 >= rank {
            if b == 0 {
                return 0.0;
            }
            let lo = (1u64 << (b - 1)) as f64;
            let hi = (lo * 2.0).min(h.max as f64 + 1.0);
            let frac = (rank - seen as f64) / n as f64;
            return (lo + (hi - lo) * frac).min(h.max as f64);
        }
        seen += n;
    }
    h.max as f64
}

/// Metric values of one run, in declaration order.
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(defs: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// On an undeclared name — a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
    }

    /// Names of declared metrics that are unset or not finite.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| !v.is_some_and(f64::is_finite))
            .map(|((n, _), _)| *n)
            .collect()
    }

    /// The benchmark's result line: one JSON object. Missing or non-finite
    /// values are written as 0 and must already have made `correct` false.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .defs
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.50));
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.98));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_is_capped_at_the_named_percentile() {
        let mut s = Samples::default();
        for v in 1..=10_000 {
            s.push(v as f64);
        }
        assert_eq!(s.tail(0.99), (9900.0, 0.99));
        let mut few = Samples::default();
        for v in 1..=200 {
            few.push(v as f64);
        }
        assert_eq!(few.tail(0.99), (190.0, 0.95));
        assert_eq!(few.median(), 100.0);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut t = Trace::default();
        let root = t.push("fetch", None, 0, 100);
        let a = t.push("a", Some(root), 10, 40);
        t.push("b", Some(root), 30, 60); // overlaps a over 30..40
        t.push("a.inner", Some(a), 15, 25);
        t.push("late", Some(root), 90, 120); // clipped to the parent's end
        let selfs = t.self_times();
        assert_eq!(selfs, vec![100 - 50 - 10, 30 - 10, 30, 10, 30]);
        // Attributed = every descendant's self time: 20 + 30 + 10 + 30.
        assert_eq!(t.budget("fetch"), vec![(100, 90)]);
        assert!(t.budget("a").is_empty(), "only roots are budgeted");
    }

    #[test]
    fn append_rebases_parents() {
        let mut a = Trace::default();
        a.push("x", None, 0, 10);
        let mut b = Trace::default();
        let r = b.push("fetch", None, 0, 10);
        b.push("c", Some(r), 0, 4);
        a.append(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.budget("fetch"), vec![(10, 4)]);
    }

    #[test]
    fn hist_quantile_interpolates_inside_the_bucket() {
        let mut h = HistogramSnapshot::default();
        // 100 samples in bucket 11 ([1024, 2047]), max 1900.
        h.buckets[11] = 100;
        h.count = 100;
        h.max = 1900;
        let p50 = hist_quantile(&h, 0.5);
        assert!(p50 > 1024.0 && p50 < 1900.0, "{p50}");
        assert_eq!(hist_quantile(&h, 1.0), 1900.0);
        assert_eq!(hist_quantile(&HistogramSnapshot::default(), 0.5), 0.0);
    }

    #[test]
    fn result_line_flags_nothing_itself_but_zeroes_missing_values() {
        let mut m = Metrics::new(&[("a_ms", "ms"), ("b", "count")]);
        m.set("a_ms", 1.25);
        assert_eq!(m.missing(), vec!["b"]);
        assert_eq!(
            m.result_line(false, 3, 1),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }

    /// Names and units declared here must be exactly those of the
    /// repository's `BENCHMARK.json`, each a valid metric name.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect()
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = defs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(section(key), declared, "{key} differs from BENCHMARK.json");
            for (n, _) in defs {
                assert!(valid_name(n), "{n}");
            }
        }
        assert!(!valid_name("a b") && !valid_name("") && valid_name("x.y-z_1"));
    }

    fn field(entry: &str, key: &str) -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes") + open;
        rest[open..close].to_string()
    }
}
