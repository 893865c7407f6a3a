//! In-process layer probes of the traced run: each wraps one public call
//! of a layer (`rans`, `simd`, `parallel`, `core`, `server`) and runs it on
//! the workload's own content.

use crate::measure::{Metrics, Samples};
use crate::workload;
use recoil::core::{
    combine_splits, crc32, metadata_to_bytes, sync_split_states, IncrementalDecoder,
};
use recoil::parallel::ThreadPool;
use recoil::prelude::{
    AutoBackend, Avx2Backend, Avx512Backend, DecodeBackend, DecodeRequest, NullSink, PooledBackend,
    ScalarBackend,
};
use recoil::rans::fast::decode_span;
use recoil::rans::fast_encode::{encode_span, scan_span};
use recoil::rans::params::INITIAL_STATE;
use recoil::server::{ContentServer, ServerConfig, StoredContent};
use recoil::{Codec, RecoilError};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Chunk size the probes feed the incremental decoder with: the
/// transport's default chunk.
const CHUNK_BYTES: usize = 256 * 1024;

/// Times `f` at least `min_reps` times and for at least `min_ms`
/// milliseconds; returns nanoseconds per call.
fn reps(min_reps: usize, min_ms: u64, mut f: impl FnMut()) -> Samples {
    let start = Instant::now();
    let mut out = Samples::default();
    while out.len() < min_reps || start.elapsed().as_millis() < u128::from(min_ms) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as f64);
    }
    out
}

fn mb_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

/// The content the probes run on: one item (payload and its stored
/// encoding) and every item of the workload (for size overhead).
pub struct Input<'a> {
    pub payload: &'a [u8],
    pub stored: &'a StoredContent,
    pub all: &'a [Arc<StoredContent>],
    pub nproc: usize,
}

/// Runs every in-process probe. A probe whose output differs from the
/// payload counts as a failure; the returned count says how many did.
pub fn probe(m: &mut Metrics, input: &Input<'_>) -> Result<u64, RecoilError> {
    let mut failed = 0u64;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            crate::ops::report_failure(what, &"output differs from the payload");
        }
        failed += u64::from(!ok);
    };
    let (payload, stored, nproc) = (input.payload, input.stored, input.nproc);
    let stream = &*stored.stream;
    let model = &*stored.model;
    let n = payload.len();
    let mut out = vec![0u8; n];

    // rans: the span engines under every decoder and encoder.
    let decode = reps(3, 150, || {
        let mut states = stream.final_states.clone();
        let r = decode_span(
            model,
            &stream.words,
            stream.end_cursor(),
            &mut states,
            0,
            &mut out,
        );
        black_box(r).ok();
    });
    check(out == payload, "rans decode_span");
    m.set("rans.decode_mb_s", mb_s(n, decode.median()));
    let mut words = Vec::with_capacity(stream.words.len());
    let encode = reps(3, 150, || {
        words.clear();
        let mut states = vec![INITIAL_STATE; stream.ways as usize];
        let r = encode_span(model, payload, 0, &mut states, &mut words, 0, &mut NullSink);
        black_box(r).ok();
    });
    check(words == stream.words, "rans encode_span");
    m.set("rans.encode_mb_s", mb_s(n, encode.median()));
    let mut scanned = 0u64;
    let scan = reps(3, 150, || {
        let mut states = vec![INITIAL_STATE; stream.ways as usize];
        scanned =
            black_box(scan_span(model, payload, 0, &mut states, 0, &mut NullSink)).unwrap_or(0);
    });
    check(scanned == stream.words.len() as u64, "rans scan_span");
    m.set("rans.scan_mb_s", mb_s(n, scan.median()));

    // simd: the thread sweep per backend, at the item's full segment count.
    let backends: [(&str, Box<dyn DecodeBackend>); 9] = [
        ("scalar.t1", Box::new(ScalarBackend)),
        ("pooled.t1", Box::new(PooledBackend::new(1))),
        ("pooled.t2", Box::new(PooledBackend::new(2))),
        ("avx2.t1", Box::new(Avx2Backend::new())),
        ("avx2.t2", Box::new(Avx2Backend::with_threads(2))),
        ("avx512.t1", Box::new(Avx512Backend::new())),
        ("avx512.t2", Box::new(Avx512Backend::with_threads(2))),
        ("auto.t1", Box::new(AutoBackend::new())),
        ("auto.t2", Box::new(AutoBackend::with_threads(2))),
    ];
    let req = DecodeRequest {
        stream,
        metadata: &stored.metadata,
        model,
    };
    for (label, backend) in &backends {
        let name = format!("simd.decode_mb_s.{label}");
        if !backend.is_available() {
            // The host lacks the kernel: nothing was decoded.
            m.set(&name, 0.0);
            continue;
        }
        out.fill(0);
        let t = reps(3, 150, || {
            black_box(backend.decode_u8(&req, &mut out)).ok();
        });
        check(out == payload, &name);
        m.set(&name, mb_s(n, t.median()));
    }

    // parallel: the cost of waking the pool for an empty job.
    let pool = ThreadPool::new(nproc.saturating_sub(1));
    let dispatch = reps(200, 100, || {
        pool.run(nproc, |i| {
            black_box(i);
        })
    });
    m.set("parallel.dispatch_us", dispatch.median() / 1e3);

    // core: encode serial vs pooled, sync, combine, CRC, incremental.
    let codec = Codec::from_config(workload::encoder_config())?;
    let mut same = true;
    let serial = reps(3, 150, || {
        same &= codec
            .encode(payload)
            .is_ok_and(|e| e.container.stream == *stream);
    });
    let pooled = reps(3, 150, || {
        same &= codec
            .encode_pooled(payload, &pool)
            .is_ok_and(|e| e.container.stream == *stream);
    });
    check(same, "Codec::encode / encode_pooled");
    m.set("core.encode_serial_mb_s", mb_s(n, serial.median()));
    m.set("core.encode_pooled_mb_s", mb_s(n, pooled.median()));

    let mut sync = Samples::default();
    for split in &stored.metadata.splits {
        let t = Instant::now();
        black_box(sync_split_states(split, &stream.words, model, stream.ways)).ok();
        sync.push(t.elapsed().as_nanos() as f64);
    }
    m.set("core.sync_us", sync.median() / 1e3);
    for k in [1u64, 4, 16, 64] {
        let t = reps(20, 30, || {
            black_box(combine_splits(&stored.metadata, k));
        });
        m.set(&format!("core.combine_us.s{k}"), t.median() / 1e3);
    }
    let bytes: Vec<u8> = stream.words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let crc = reps(5, 100, || {
        black_box(crc32(&bytes));
    });
    m.set("core.crc_mb_s", mb_s(bytes.len(), crc.median()));

    let backend = AutoBackend::with_threads(nproc);
    let tier = combine_splits(&stored.metadata, nproc as u64);
    let mut finished = true;
    let incremental = reps(3, 150, || {
        out.fill(0);
        let decoder =
            IncrementalDecoder::new(tier.clone(), stream.final_states.clone(), model.clone());
        finished &= decoder.is_ok_and(|mut d| {
            bytes.chunks(CHUNK_BYTES).all(|chunk| {
                d.push_bytes(chunk).is_ok() && d.decode_ready_segments(&backend, &mut out).is_ok()
            }) && d.is_finished()
        });
    });
    check(finished && out == payload, "IncrementalDecoder");
    m.set("core.incremental_us", incremental.median() / 1e3);

    // Metadata bytes per stream byte at each served segment count, over
    // every item of the workload (Tables 5-6).
    let stream_bytes: u64 = input.all.iter().map(|s| s.stream.payload_bytes()).sum();
    for k in [1u64, 4, 16, 64, 256] {
        let meta: usize = input
            .all
            .iter()
            .map(|s| metadata_to_bytes(&combine_splits(&s.metadata, k.min(s.max_segments()))).len())
            .sum();
        m.set(
            &format!("core.size_overhead_pct.s{k}"),
            meta as f64 / stream_bytes as f64 * 100.0,
        );
    }

    // server: publish, and fetch served from the tier cache or combined.
    // One cached tier, so alternating two capacities always misses.
    let server = ContentServer::with_config(ServerConfig {
        tier_cache_capacity: 1,
        ..ServerConfig::default()
    });
    let config = workload::encoder_config();
    let publish = reps(3, 150, || {
        server.unpublish("probe");
        same &= server.publish("probe", payload, &config).is_ok();
    });
    check(same, "ContentServer::publish");
    m.set("server.publish_ms", publish.median() / 1e6);
    let cap = (nproc as u64).min(stored.max_segments());
    server.fetch("probe", cap)?;
    let hit = reps(200, 50, || {
        same &= server.fetch("probe", cap).is_ok_and(|(t, _)| t.cache_hit);
    });
    check(same, "ContentServer::fetch hit");
    m.set("server.fetch_hit_us", hit.median() / 1e3);
    let mut flip = false;
    let miss = reps(100, 50, || {
        flip = !flip;
        let c = if flip {
            1
        } else {
            2.min(stored.max_segments())
        };
        black_box(server.fetch("probe", c)).ok();
    });
    m.set("server.fetch_miss_us", miss.median() / 1e3);
    Ok(failed)
}
