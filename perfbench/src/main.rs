//! One benchmark for Recoil content delivery, end to end and layer by
//! layer. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fetch_large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the lines
//! before it give provenance and sample counts.

mod codec_bulk;
mod fetch;
mod layers;
mod measure;
mod ops;
mod workload;

use fetch::{Fabric, Small};
use measure::{hist_quantile, Clock, Metrics, Samples, Trace, END_TO_END, PER_LAYER};
use ops::{Kind, OpRecord};
use recoil::net::NetServerHandle;
use recoil::prelude::AutoBackend;
use recoil::telemetry::{HistogramSnapshot, Telemetry, TelemetryLevel};
use recoil::RecoilError;
use std::process::ExitCode;
use std::sync::Arc;
use workload::{Path, Scale, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A run still going this long after it started is reported as failed and
/// ended, so a hang in the program cannot outlast the benchmark's own time
/// limit.
const WATCHDOG_S: u64 = 170;

/// How long the traced run's wire probe runs, for workloads whose own
/// loop does not take all three fetch paths.
const PATH_PROBE_NS: u64 = 1_500_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| bad("codec_bulk, fetch_large or fetch_small"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (1..=60).contains(&s))
                        .ok_or_else(|| bad("whole seconds in 1..=60"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run produced.
struct RunOut {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    details: Vec<String>,
}

impl RunOut {
    fn new(defs: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            metrics: Metrics::new(defs),
            attempted: 0,
            failed: 0,
            details: Vec::new(),
        }
    }

    fn count(&mut self, records: &[OpRecord]) {
        self.attempted += records.len() as u64;
        self.failed += records.iter().filter(|r| !r.ok).count() as u64;
    }

    /// Client-side fetch count against the servers' STATS `requests`
    /// delta: a mismatch counts as failed ops.
    fn cross_check(&mut self, fetches: u64, served: u64) {
        self.details.push(format!(
            "cross-check: {fetches} client fetches, {served} server requests"
        ));
        if fetches != served {
            self.failed += fetches.abs_diff(served);
        }
    }
}

fn fetches(records: &[OpRecord]) -> u64 {
    records.iter().filter(|r| r.kind == Kind::Fetch).count() as u64
}

fn nanos(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

/// Runs `setup` [`SETUP_REPS`] times, dropping each result before the
/// next, and records the median wall time as `setup_s`.
fn timed_setups<T>(
    out: &mut RunOut,
    clock: &Clock,
    mut setup: impl FnMut() -> Result<T, RecoilError>,
    mut teardown: impl FnMut(T),
) -> Result<T, RecoilError> {
    let mut times = Samples::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let t0 = clock.now();
        kept = Some(setup()?);
        times.push((clock.now() - t0) as f64 / 1e9);
    }
    out.metrics.set("setup_s", times.median());
    Ok(kept.expect("at least one set-up"))
}

fn untraced(args: &Args, nproc: usize) -> Result<RunOut, RecoilError> {
    let clock = Clock::new();
    let mut out = RunOut::new(END_TO_END);
    let (seed, seconds) = (args.seed, args.seconds as f64);
    let np = nproc as u64;
    let (records, start, end, ratio) = match args.workload {
        Workload::CodecBulk => {
            let (payload, mut bulk) = timed_setups(
                &mut out,
                &clock,
                || {
                    let payload = workload::bulk_payload(&Scale::FULL, seed);
                    let bulk = codec_bulk::Bulk::setup(&payload, np, &clock)?;
                    Ok((payload, bulk))
                },
                drop,
            )?;
            out.count(&bulk.warm);
            let start = clock.now();
            let records = codec_bulk::run(
                &mut bulk,
                &payload,
                seed,
                np,
                start + nanos(seconds),
                &clock,
                None,
            );
            let end = clock.now();
            let plan = workload::planned_fetches(args.workload, seed, 1, 1, np);
            let ratio = workload::transfer_ratio(plan, &[bulk.stored.clone()], |_| payload.len());
            (records, start, end, ratio)
        }
        Workload::FetchLarge => {
            let (items, fabric) = timed_setups(
                &mut out,
                &clock,
                || {
                    let items = workload::large_items(&Scale::FULL, seed);
                    let fabric = Fabric::setup(
                        TelemetryLevel::Off,
                        &items,
                        &workload::LARGE_TIERS,
                        nproc,
                        &clock,
                    )?;
                    Ok((items, fabric))
                },
                |(_, f)| f.shutdown(),
            )?;
            out.count(&fabric.warm);
            let before = fabric.served()?;
            let start = clock.now();
            let records =
                fetch::run_large(&fabric, &items, seed, start + nanos(seconds), &clock, None);
            let end = clock.now();
            out.cross_check(fetches(&records), fabric.served()? - before);
            let plan = workload::planned_fetches(args.workload, seed, 1, items.len(), np);
            let ratio = workload::transfer_ratio(plan, &fabric.stored, |i| items[i].len());
            fabric.shutdown();
            (records, start, end, ratio)
        }
        Workload::FetchSmall => {
            let (items, fresh, small) = timed_setups(
                &mut out,
                &clock,
                || {
                    let items = workload::small_items(&Scale::FULL, seed);
                    let fresh = workload::fresh_payloads(&Scale::FULL, seed);
                    let small = Small::setup(TelemetryLevel::Off, &items, nproc, &clock)?;
                    Ok((items, fresh, small))
                },
                |(_, _, s)| s.shutdown(),
            )?;
            out.count(&small.warm);
            let before = small.served()?;
            let start = clock.now();
            let (records, _) = fetch::run_small(
                &small,
                &items,
                &fresh,
                seed,
                start + nanos(seconds),
                &clock,
                false,
            );
            let end = clock.now();
            out.cross_check(fetches(&records), small.served()? - before);
            let plan = workload::planned_fetches(args.workload, seed, nproc, items.len(), np);
            let ratio = workload::transfer_ratio(plan, &small.stored, |i| items[i].len());
            small.shutdown();
            (records, start, end, ratio)
        }
    };
    out.count(&records);
    out.metrics.set("transfer_ratio", ratio);
    let details = ops::end_to_end(&mut out.metrics, &records, start, end, np);
    out.details.extend(details);
    Ok(out)
}

/// Served-tier hits and misses of `nodes`, from their STATS counters.
fn hits_misses(nodes: &[&NetServerHandle]) -> (u64, u64) {
    nodes.iter().fold((0, 0), |(h, m), n| {
        let s = n.content().stats();
        (h + s.cache_hits, m + s.cache_misses)
    })
}

/// What the traced run gathers from the wire for the per-layer metrics.
#[derive(Default)]
struct Wire {
    trace: Trace,
    failovers: u32,
    hists: Vec<(String, HistogramSnapshot)>,
    retries: u64,
    hits: u64,
    misses: u64,
}

impl Wire {
    /// Adds the histograms of trace-level `nodes` and the retry counters of
    /// trace-level client instruments.
    fn observe(&mut self, nodes: &[&NetServerHandle], clients: &[&Arc<Telemetry>]) {
        for node in nodes {
            for (name, h) in node.telemetry().snapshot().hists {
                match self.hists.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, mine)) => mine.merge(&h),
                    None => self.hists.push((name, h)),
                }
            }
        }
        for t in clients {
            self.retries += t.snapshot().counter("retries").unwrap_or(0);
        }
    }

    fn hist(&self, name: &str) -> HistogramSnapshot {
        self.hists
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }

    /// The wire probe: the three paths at capacity `nproc` over `items`
    /// on a fresh trace-level fabric.
    fn probe_paths(
        &mut self,
        items: &[Vec<u8>],
        nproc: usize,
        clock: &Clock,
    ) -> Result<u64, RecoilError> {
        let np = nproc as u64;
        let fabric = Fabric::setup(TelemetryLevel::Trace, items, &[np], nproc, clock)?;
        let (h0, m0) = hits_misses(&[&fabric.a, &fabric.b]);
        let deadline = clock.now() + PATH_PROBE_NS;
        let records = fetch::run_paths(&fabric, items, np, 3, deadline, clock, &mut self.trace);
        let (h1, m1) = hits_misses(&[&fabric.a, &fabric.b]);
        self.hits += h1 - h0;
        self.misses += m1 - m0;
        self.observe(
            &[&fabric.a, &fabric.b],
            &[fabric.client.telemetry(), fabric.router.telemetry()],
        );
        let failed = fabric.warm.iter().chain(&records).filter(|r| !r.ok).count() as u64;
        self.failovers += records.iter().map(|r| r.failovers).sum::<u32>();
        fabric.shutdown();
        Ok(failed)
    }
}

/// Throughput of a slice set for the telemetry-overhead comparison:
/// decode MB/s of fetch-kind ops (codec_bulk) or fetches per second.
fn slice_rate(workload: Workload, records: &[OpRecord], wall_s: f64) -> f64 {
    let ok = records.iter().filter(|r| r.ok && r.kind == Kind::Fetch);
    if workload == Workload::CodecBulk {
        let (bytes, ns) = ok.fold((0u64, 0u64), |(b, n), r| {
            (b + r.bytes, n + r.decode.map_or(0, |d| d.1))
        });
        bytes as f64 / ns as f64
    } else {
        ok.count() as f64 / wall_s
    }
}

/// Alternates untraced and traced slices of a workload loop (`slices`
/// total, starting untraced) and returns `(untraced, traced)` records with
/// their wall seconds.
fn alternate(
    slices: usize,
    seconds: f64,
    clock: &Clock,
    mut run: impl FnMut(bool, u64) -> Vec<OpRecord>,
) -> ((Vec<OpRecord>, f64), (Vec<OpRecord>, f64)) {
    let (mut off, mut on) = ((Vec::new(), 0.0), (Vec::new(), 0.0));
    for s in 0..slices {
        let traced = s % 2 == 1;
        let start = clock.now();
        let records = run(traced, start + nanos(seconds / slices as f64));
        let side = if traced { &mut on } else { &mut off };
        side.0.extend(records);
        side.1 += (clock.now() - start) as f64 / 1e9;
    }
    (off, on)
}

fn traced(args: &Args, nproc: usize) -> Result<RunOut, RecoilError> {
    let clock = Clock::new();
    let mut out = RunOut::new(PER_LAYER);
    let (seed, seconds) = (args.seed, args.seconds as f64);
    let np = nproc as u64;
    let mut wire = Wire::default();
    let (off, on) = match args.workload {
        Workload::CodecBulk => {
            let payload = workload::bulk_payload(&Scale::FULL, seed);
            let mut plain = codec_bulk::Bulk::setup(&payload, np, &clock)?;
            let mut bulk = codec_bulk::Bulk::setup(&payload, np, &clock)?;
            let t = Arc::new(Telemetry::new(TelemetryLevel::Trace));
            bulk.server.attach_telemetry(t);
            out.count(&plain.warm);
            out.count(&bulk.warm);
            let mut trace = Trace::default();
            let (off, on) = alternate(4, seconds, &clock, |traced, deadline| {
                if traced {
                    let t = Some(&mut trace);
                    codec_bulk::run(&mut bulk, &payload, seed, np, deadline, &clock, t)
                } else {
                    codec_bulk::run(&mut plain, &payload, seed, np, deadline, &clock, None)
                }
            });
            wire.trace.append(trace);
            let stored = [bulk.stored.clone()];
            let input = layers::Input {
                payload: &payload,
                stored: &bulk.stored,
                all: &stored,
                nproc,
            };
            out.failed += layers::probe(&mut out.metrics, &input)?;
            let item = [payload];
            out.failed += wire.probe_paths(&item, nproc, &clock)?;
            (off, on)
        }
        Workload::FetchLarge => {
            let items = workload::large_items(&Scale::FULL, seed);
            let tiers = &workload::LARGE_TIERS;
            let plain = Fabric::setup(TelemetryLevel::Off, &items, tiers, nproc, &clock)?;
            let fabric = Fabric::setup(TelemetryLevel::Trace, &items, tiers, nproc, &clock)?;
            out.count(&plain.warm);
            out.count(&fabric.warm);
            let (h0, m0) = hits_misses(&[&fabric.a, &fabric.b]);
            let (off, on) = alternate(4, seconds, &clock, |traced, deadline| {
                if traced {
                    fetch::run_large(
                        &fabric,
                        &items,
                        seed,
                        deadline,
                        &clock,
                        Some(&mut wire.trace),
                    )
                } else {
                    fetch::run_large(&plain, &items, seed, deadline, &clock, None)
                }
            });
            let (h1, m1) = hits_misses(&[&fabric.a, &fabric.b]);
            wire.hits += h1 - h0;
            wire.misses += m1 - m0;
            wire.observe(
                &[&fabric.a, &fabric.b],
                &[fabric.client.telemetry(), fabric.router.telemetry()],
            );
            wire.failovers += on.0.iter().map(|r| r.failovers).sum::<u32>();
            let input = layers::Input {
                payload: &items[0],
                stored: &fabric.stored[0],
                all: &fabric.stored,
                nproc,
            };
            out.failed += layers::probe(&mut out.metrics, &input)?;
            plain.shutdown();
            fabric.shutdown();
            (off, on)
        }
        Workload::FetchSmall => {
            let items = workload::small_items(&Scale::FULL, seed);
            let fresh = workload::fresh_payloads(&Scale::FULL, seed);
            let plain = Small::setup(TelemetryLevel::Off, &items, nproc, &clock)?;
            let small = Small::setup(TelemetryLevel::Trace, &items, nproc, &clock)?;
            out.count(&plain.warm);
            out.count(&small.warm);
            let (h0, m0) = hits_misses(&[&small.node]);
            let (off, on) = alternate(4, seconds, &clock, |traced, deadline| {
                let target = if traced { &small } else { &plain };
                let (records, trace) =
                    fetch::run_small(target, &items, &fresh, seed, deadline, &clock, traced);
                wire.trace.append(trace);
                records
            });
            let (h1, m1) = hits_misses(&[&small.node]);
            wire.hits += h1 - h0;
            wire.misses += m1 - m0;
            let telemetry: Vec<_> = small.clients.iter().map(|c| c.telemetry()).collect();
            wire.observe(&[&small.node], &telemetry);
            let input = layers::Input {
                payload: &items[0],
                stored: &small.stored[0],
                all: &small.stored,
                nproc,
            };
            out.failed += layers::probe(&mut out.metrics, &input)?;
            plain.shutdown();
            small.shutdown();
            out.failed += wire.probe_paths(&items[..4], nproc, &clock)?;
            (off, on)
        }
    };
    out.count(&off.0);
    out.count(&on.0);
    let (dec_n, dec_1) = ops::decode_rates(&off.0, np);
    let rate_off = slice_rate(args.workload, &off.0, off.1);
    let rate_on = slice_rate(args.workload, &on.0, on.1);
    let m = &mut out.metrics;
    m.set("telemetry.overhead_pct", (rate_off / rate_on - 1.0) * 100.0);
    m.set(
        "parallel.scaling_eff",
        dec_n.median() / (np as f64 * dec_1.median()),
    );
    m.set(
        "server.tier_hit_rate",
        wire.hits as f64 / (wire.hits + wire.misses).max(1) as f64,
    );
    let t = &wire.trace;
    m.set("net.request_ms", t.durations_ms("net.request").median());
    m.set("net.decode_ms", t.durations_ms("net.decode").median());
    m.set(
        "net.streaming_total_ms",
        t.durations_ms("fetch.streaming").median(),
    );
    m.set("net.retries", wire.retries as f64);
    m.set("fabric.fetch_ms", t.durations_ms("fetch.routed").median());
    m.set("fabric.failovers", f64::from(wire.failovers));
    for (metric, hist, q) in [
        ("reactor.inline_serve_us.p50", "inline_serve_ns", 0.50),
        ("reactor.inline_serve_us.p99", "inline_serve_ns", 0.99),
        ("reactor.dispatch_wait_us.p99", "dispatch_wait_ns", 0.99),
        ("reactor.write_flush_us.p99", "write_flush_ns", 0.99),
    ] {
        m.set(metric, hist_quantile(&wire.hist(hist), q) / 1e3);
    }
    let (mut total, mut unattributed) = (0u64, 0u64);
    for path in Path::ALL {
        let ops = t.budget(&format!("fetch.{}", path.name()));
        let (mut dur, mut attr) = (Samples::default(), Samples::default());
        for &(d, a) in &ops {
            dur.push(d as f64 / 1e6);
            attr.push(a as f64 / 1e6);
            total += d;
            unattributed += d.saturating_sub(a);
        }
        m.set(
            &format!("budget.{}.fetch_p50_ms", path.name()),
            dur.median(),
        );
        m.set(
            &format!("budget.{}.attributed_ms", path.name()),
            attr.median(),
        );
        out.details.push(format!(
            "budget.{}: {} traced ops, p50 {:.3} ms, attributed p50 {:.3} ms",
            path.name(),
            ops.len(),
            dur.median(),
            attr.median()
        ));
    }
    m.set(
        "budget.unattributed_pct",
        unattributed as f64 / total.max(1) as f64 * 100.0,
    );
    out.details.push(format!(
        "telemetry overhead: untraced {rate_off:.4} vs traced {rate_on:.4} ({})",
        if args.workload == Workload::CodecBulk {
            "decode bytes/ns"
        } else {
            "fetches/s"
        }
    ));
    Ok(out)
}

/// The CPU's brand string, from CPUID.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".to_string();
    }
    let bytes: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
        .flat_map(|leaf| {
            let r = __cpuid(leaf);
            [r.eax, r.ebx, r.ecx, r.edx]
        })
        .flat_map(u32::to_le_bytes)
        .collect();
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <codec_bulk|fetch_large|fetch_small> \
                 --seed <n> --seconds <1..60> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let fields = [
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        (
            "telemetry",
            json_str(if args.trace { "trace" } else { "off" }),
        ),
        ("cpu", json_str(&cpu_model())),
        ("nproc", nproc.to_string()),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("git_rev", json_str(env!("PERFBENCH_GIT_REV"))),
        (
            "kernel",
            json_str(&format!("{:?}", AutoBackend::new().selected_kernel(32))),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", body.join(", "));
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_S));
        eprintln!("perfbench: run still going after {WATCHDOG_S} s; reporting it failed");
        println!("{}", Metrics::new(defs).result_line(false, 1, 1));
        std::process::exit(0);
    });
    let result = if args.trace {
        traced(&args, nproc)
    } else {
        untraced(&args, nproc)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: run aborted: {e}");
            let mut out = RunOut::new(defs);
            out.attempted = 1;
            out.failed = 1;
            out
        }
    };
    for line in &out.details {
        println!("# {line}");
    }
    let missing = out.metrics.missing();
    if !missing.is_empty() {
        eprintln!("perfbench: no value measured for {}", missing.join(", "));
    }
    let correct = out.failed == 0 && missing.is_empty();
    println!(
        "{}",
        out.metrics
            .result_line(correct, out.attempted.max(1), out.failed)
    );
    ExitCode::SUCCESS
}
