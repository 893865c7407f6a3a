//! The one-method backend contract: a backend that implements only
//! `DecodeBackend::decode_segments` gets every other decode entry point as
//! a provided wrapper, and each wrapper matches `ScalarBackend` byte for
//! byte — errors included.

use recoil::data::latent_dataset;
use recoil::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// Implements only the required methods, delegating the decode to the
/// scalar engine.
struct RangeOnly;

impl DecodeBackend for RangeOnly {
    fn name(&self) -> &'static str {
        "range-only"
    }

    fn decode_segments(
        &self,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: SymbolsMut<'_>,
    ) -> Result<(), RecoilError> {
        ScalarBackend.decode_segments(req, segments, out)
    }
}

fn sample(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
        .collect()
}

fn request(enc: &Encoded) -> DecodeRequest<'_> {
    DecodeRequest {
        stream: &enc.container.stream,
        metadata: &enc.container.metadata,
        model: &enc.model,
    }
}

/// Runs `decode` on both backends, each into a zeroed `len`-symbol buffer,
/// asserts identical buffers and errors, and returns the outcome.
fn same<S: Symbol>(
    len: usize,
    decode: impl Fn(&dyn DecodeBackend, &mut [S]) -> Result<(), RecoilError>,
) -> Result<Vec<S>, String> {
    let run = |backend: &dyn DecodeBackend| {
        let mut out = vec![S::from_u16(0); len];
        decode(backend, &mut out)
            .map(|()| out)
            .map_err(|e| e.to_string())
    };
    let want = run(&ScalarBackend);
    assert_eq!(run(&RangeOnly), want);
    want
}

#[test]
fn byte_wrappers_match_scalar() {
    let data = sample(150_000);
    let codec = Codec::builder().max_segments(16).build().unwrap();
    let enc = codec.encode(&data).unwrap();
    let req = request(&enc);
    let meta = &enc.container.metadata;
    let nseg = meta.num_segments();
    assert!(nseg >= 4);

    // Whole stream: exact length only.
    assert_eq!(
        same(data.len(), |b, out| b.decode_u8(&req, out)),
        Ok(data.clone())
    );
    for len in [data.len() - 1, data.len() + 1] {
        assert!(same::<u8>(len, |b, out| b.decode_u8(&req, out)).is_err());
    }
    assert_eq!(codec.decode_with::<u8>(&RangeOnly, &enc).unwrap(), data);

    // Segment ranges need only coverage, and may run against a word prefix.
    let half = nseg / 2;
    let mut prefix = enc.container.stream.clone();
    prefix
        .words
        .truncate(meta.splits[half as usize - 1].offset as usize + 1);
    let preq = DecodeRequest {
        stream: &prefix,
        ..req
    };
    for (r, range) in [
        (&req, 0..nseg),
        (&req, half..nseg),
        (&req, 2..3),
        (&preq, 0..half),
        (&preq, 1..half),
        (&preq, half..half),
    ] {
        let got = same(data.len() + 5, |b, out| {
            b.decode_u8_segments(r, range.clone(), out)
        });
        assert!(got.is_ok(), "range {range:?}: {got:?}");
    }
    let final_on_prefix = same::<u8>(data.len(), |b, out| {
        b.decode_u8_segments(&preq, 0..nseg, out)
    });
    assert!(
        final_on_prefix.is_err(),
        "the final segment needs every word"
    );
}

#[test]
fn wide_wrappers_match_scalar() {
    let wide: Vec<u16> = sample(120_000).iter().map(|&b| u16::from(b) << 4).collect();
    let codec = Codec::builder()
        .quant_bits(12)
        .max_segments(12)
        .build()
        .unwrap();
    let enc = codec.encode_u16(&wide).unwrap();
    let req = request(&enc);
    let nseg = enc.container.metadata.num_segments();
    assert_eq!(
        same(wide.len(), |b, out| b.decode_u16(&req, out)),
        Ok(wide.clone())
    );
    assert!(same::<u16>(wide.len() - 1, |b, out| b.decode_u16(&req, out)).is_err());
    let range = same(wide.len(), |b, out| {
        b.decode_u16_segments(&req, 1..nseg - 1, out)
    });
    assert!(range.is_ok());
}

#[test]
fn adaptive_wrapper_matches_scalar() {
    let bank = Arc::new(GaussianScaleBank::build(12, 1024, 16, 0.4, 64.0));
    let ds = latent_dataset(bank, 40_000, 6.0, 7);
    let codec = Codec::builder()
        .quant_bits(12)
        .max_segments(8)
        .build()
        .unwrap();
    let c = codec
        .encode_with_provider(&ds.symbols, &ds.provider)
        .unwrap();
    let n = ds.symbols.len();
    let decode = |b: &dyn DecodeBackend, out: &mut [u16]| {
        b.decode_adaptive(&c.stream, &c.metadata, &ds.provider, out)
    };
    assert_eq!(same(n, decode), Ok(ds.symbols.clone()));
    assert!(same(n - 1, decode).is_err());
}
