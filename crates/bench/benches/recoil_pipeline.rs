//! Criterion microbenchmarks of the Recoil pipeline pieces: encode+plan,
//! metadata wire codec, split combining, and parallel decode vs the
//! conventional baseline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use recoil::conventional::encode_conventional;
use recoil::prelude::*;

fn bench_pipeline(c: &mut Criterion) {
    let data = recoil::data::exponential_bytes(2_000_000, 100.0, 42);
    let codec = Codec::builder().max_segments(256).build().unwrap();
    let encoded = codec.encode(&data).unwrap();
    let (container, model) = (&encoded.container, &encoded.model);
    let conv = encode_conventional(&data, model, 32, 256);
    let meta_bytes = metadata_to_bytes(&container.metadata);
    let pooled = PooledBackend::with_default_parallelism();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(data.len() as u64));

    group.bench_function("encode_with_split_planning", |b| {
        b.iter(|| std::hint::black_box(codec.encode_with_provider(&data, model).unwrap()));
    });
    group.bench_function("encode_plain_interleaved", |b| {
        b.iter(|| {
            let mut enc = InterleavedEncoder::new(model, 32);
            enc.encode_all(&data, &mut NullSink);
            std::hint::black_box(enc.finish())
        });
    });
    group.bench_function("recoil_decode_parallel", |b| {
        let mut out = vec![0u8; data.len()];
        b.iter(|| {
            codec.decode_with_into(&pooled, &encoded, &mut out).unwrap();
            std::hint::black_box(&out);
        });
    });
    group.bench_function("decode_conventional_parallel", |b| {
        let mut out = vec![0u8; data.len()];
        b.iter(|| {
            recoil::conventional::decode_conventional_into(&conv, model, pooled.pool(), &mut out)
                .unwrap();
            std::hint::black_box(&out);
        });
    });
    group.finish();

    let mut group = c.benchmark_group("metadata");
    group.bench_function("serialize_256_splits", |b| {
        b.iter(|| std::hint::black_box(metadata_to_bytes(&container.metadata)));
    });
    group.bench_function("parse_256_splits", |b| {
        b.iter(|| std::hint::black_box(metadata_from_bytes(&meta_bytes).unwrap()));
    });
    group.bench_function("combine_256_to_16", |b| {
        b.iter(|| std::hint::black_box(combine_splits(&container.metadata, 16)));
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
