//! Content-delivery serving throughput: the ROADMAP's "heavy traffic"
//! driver for the sharded, tier-caching [`ContentServer`].
//!
//! Publishes a handful of items once (encode-once, §3.3), then hammers the
//! server from N concurrent client threads with a zipf-skewed capacity mix
//! (device classes cluster in practice), plus one big `request_batch` pass
//! over the server's persistent pool. Reports requests/sec and tier-cache
//! behaviour to stdout and as JSON to `BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release -p recoil-bench --bin serve
//! cargo run --release -p recoil-bench --bin serve -- --smoke        # CI
//! cargo run --release -p recoil-bench --bin serve -- --clients 16 --requests 5000
//! ```

use recoil::prelude::*;
use recoil::server::{Client, ContentServer, ServerConfig};
use recoil::telemetry::{Histogram, HistogramSnapshot, TelemetryLevel};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Capacity mix, most popular first; the last entry exceeds every item's
/// encoded maximum, so it exercises post-clamp tier sharing.
const TIERS: [u64; 10] = [16, 4, 64, 1, 8, 32, 128, 2, 256, 100_000];

struct Args {
    clients: usize,
    requests: usize,
    items: usize,
    bytes: usize,
    max_segments: u64,
    smoke: bool,
}

impl Args {
    fn parse() -> Self {
        let argv: Vec<String> = std::env::args().collect();
        let mut a = Self {
            clients: 8,
            requests: 2000,
            items: 4,
            bytes: 2_000_000,
            max_segments: 256,
            smoke: false,
        };
        let mut i = 1;
        while i < argv.len() {
            let next = |i: &mut usize| {
                *i += 1;
                argv[*i].parse().expect("numeric argument")
            };
            match argv[i].as_str() {
                "--clients" => a.clients = next(&mut i),
                "--requests" => a.requests = next(&mut i),
                "--items" => a.items = next(&mut i),
                "--bytes" => a.bytes = next(&mut i),
                "--max-segments" => a.max_segments = next(&mut i) as u64,
                "--smoke" => a.smoke = true,
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        if a.smoke {
            a.clients = a.clients.min(4);
            a.requests = a.requests.min(250);
            a.items = a.items.min(2);
            a.bytes = a.bytes.min(300_000);
        }
        a
    }
}

/// SplitMix-style deterministic generator (no `rand` dependency needed).
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Cumulative 1000 × harmonic weights over [`TIERS`], built at compile time
/// so the timed request loops pay nothing for the draw.
const CUMULATIVE: [u64; TIERS.len()] = {
    let mut c = [0u64; TIERS.len()];
    let mut total = 0u64;
    let mut rank = 0;
    while rank < TIERS.len() {
        total += 1000 / (rank as u64 + 1);
        c[rank] = total;
        rank += 1;
    }
    c
};

/// Draws a tier with probability ∝ 1/(rank+1) — a zipf-ish skew over the
/// device-class popularity order of [`TIERS`].
fn pick_tier(state: &mut u64) -> u64 {
    let draw = next_u64(state) % CUMULATIVE[TIERS.len() - 1];
    let rank = CUMULATIVE.iter().position(|&c| draw < c).unwrap();
    TIERS[rank]
}

fn item_name(i: usize) -> String {
    format!("item{i}")
}

fn main() {
    let args = Args::parse();
    println!(
        "serve bench: {} clients × {} requests over {} items ({} B each, \
         max_segments {}){}",
        args.clients,
        args.requests,
        args.items,
        args.bytes,
        args.max_segments,
        if args.smoke { " [smoke]" } else { "" },
    );

    let server = ContentServer::with_config(ServerConfig {
        shards: 16,
        // Enough for every distinct post-clamp tier of the mix: steady
        // state is eviction-free, misses are compulsory only.
        tier_cache_capacity: TIERS.len() + 2,
        ..ServerConfig::default()
    });
    // The server records its tier-cache and combine histograms into its
    // registry at this level; the JSON's stage columns come from the
    // snapshot below.
    server.telemetry().set_level(TelemetryLevel::Counters);
    let config = EncoderConfig {
        max_segments: args.max_segments,
        ..EncoderConfig::default()
    };
    let t0 = Instant::now();
    let datasets: Vec<Vec<u8>> = (0..args.items)
        .map(|i| recoil::data::exponential_bytes(args.bytes, 80.0 + 60.0 * i as f64, i as u64))
        .collect();
    for (i, data) in datasets.iter().enumerate() {
        server.publish(&item_name(i), data, &config).unwrap();
    }
    println!(
        "published {} items in {:.2?} (encode-once)",
        args.items,
        t0.elapsed()
    );

    // Correctness spot check outside the timed loop: every capacity class
    // decodes the shared bitstream bit-exactly. Clients are built once and
    // reused — their decode pools persist across requests.
    let verifier = Client::new(4);
    let mut verified = 0u64;
    for (i, data) in datasets.iter().enumerate() {
        let name = item_name(i);
        for tier in [1u64, 16, 100_000] {
            // `fetch` resolves name → (transmission, content) atomically.
            let (t, item) = server.fetch(&name, tier).unwrap();
            assert_eq!(
                &verifier.decode(&item.stream, &t, &item.model).unwrap(),
                data
            );
            verified += 1;
        }
    }

    // --- Phase 1: concurrent single requests (the serving hot path). ---
    // Each client thread records its request latencies into a lock-free
    // telemetry histogram; the merged snapshot yields the percentile
    // columns in BENCH_serve.json.
    let ok = AtomicU64::new(0);
    let mut request_hist = HistogramSnapshot::default();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..args.clients)
            .map(|c| {
                let server = &server;
                let ok = &ok;
                s.spawn(move || {
                    let hist = Histogram::new();
                    let mut rng = 0x5eed ^ ((c as u64) << 32);
                    for _ in 0..args.requests {
                        let name = item_name(next_u64(&mut rng) as usize % args.items);
                        let t = Instant::now();
                        let tx = server.request(&name, pick_tier(&mut rng)).unwrap();
                        hist.record(t.elapsed().as_nanos() as u64);
                        std::hint::black_box(tx.total_bytes());
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    hist.snapshot()
                })
            })
            .collect();
        for h in handles {
            request_hist.merge(&h.join().unwrap());
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let total = ok.load(Ordering::Relaxed);
    let rps = total as f64 / wall;

    // --- Phase 2: one bulk request_batch over the server's own pool. ---
    let mut rng = 0xba7c_u64;
    let batch: Vec<(String, u64)> = (0..(args.clients * args.requests).min(8192))
        .map(|_| {
            (
                item_name(next_u64(&mut rng) as usize % args.items),
                pick_tier(&mut rng),
            )
        })
        .collect();
    let t0 = Instant::now();
    let results = server.request_batch(&batch);
    let batch_wall = t0.elapsed().as_secs_f64();
    assert!(results.iter().all(|r| r.is_ok()));
    let batch_rps = batch.len() as f64 / batch_wall;

    let stats = server.stats();
    let tel = server.telemetry().snapshot();
    let us = |ns: u64| ns as f64 / 1_000.0;
    let combine_p99_us = tel.hist("combine_ns").map_or(0.0, |h| us(h.p99()));
    println!(
        "phase 1: {total} requests on {} threads in {wall:.3}s => {rps:.0} req/s",
        args.clients
    );
    println!(
        "phase 1 latency: p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  max {:.1}us \
         (telemetry histogram, {} samples); combine p99 {combine_p99_us:.1}us",
        us(request_hist.p50()),
        us(request_hist.p90()),
        us(request_hist.p99()),
        us(request_hist.max),
        request_hist.count,
    );
    println!(
        "phase 2: batch of {} over {} pool threads in {batch_wall:.3}s => {batch_rps:.0} req/s",
        batch.len(),
        server.batch_threads()
    );
    println!(
        "cache: {} hits / {} misses (hit rate {:.4}), {} evictions",
        stats.cache_hits,
        stats.cache_misses,
        stats.hit_rate(),
        stats.cache_evictions
    );

    let json = format!(
        "{{\n  \"experiment\": \"serve\",\n  \"smoke\": {},\n  \"clients\": {},\n  \
         \"requests_per_client\": {},\n  \"items\": {},\n  \"bytes_per_item\": {},\n  \
         \"max_segments\": {},\n  \"total_requests\": {},\n  \"wall_seconds\": {:.6},\n  \
         \"requests_per_sec\": {:.1},\n  \"batch_size\": {},\n  \
         \"batch_requests_per_sec\": {:.1},\n  \"request_us_p50\": {:.3},\n  \
         \"request_us_p90\": {:.3},\n  \"request_us_p99\": {:.3},\n  \"request_us_max\": {:.3},\n  \
         \"combine_us_p99\": {:.3},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
         \"cache_evictions\": {},\n  \"cache_hit_rate\": {:.6},\n  \"verified_decodes\": {}\n}}\n",
        args.smoke,
        args.clients,
        args.requests,
        args.items,
        args.bytes,
        args.max_segments,
        total,
        wall,
        rps,
        batch.len(),
        batch_rps,
        us(request_hist.p50()),
        us(request_hist.p90()),
        us(request_hist.p99()),
        us(request_hist.max),
        combine_p99_us,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.hit_rate(),
        verified,
    );
    let path = "BENCH_serve.json";
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| panic!("could not write {path}: {e}"));
    println!("[results written to {path}]");
}
