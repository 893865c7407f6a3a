//! Segment and stream decode drivers on top of the group kernels.
//!
//! The vector kernels run only on aligned 32-symbol groups away from the
//! stream head (memory guards); everything else — group-unaligned segment
//! edges, the last few words of the stream — falls back to scalar steps
//! with identical semantics. SIMD drivers support static models (the
//! adaptive hyperprior path stays on the scalar trait-based decoder, as the
//! per-position model indirection defeats flat gathers).

use crate::kernel::Kernel;
use crate::model::SimdModel;
use crate::scalar::{scalar_group, scalar_step};
use recoil_conventional::ConventionalContainer;
use recoil_models::{StaticModelProvider, Symbol};
use recoil_parallel::{run_segments, ThreadPool};
use recoil_rans::{EncodedStream, RansError};

/// Words that must remain below the cursor for a vector group (underread
/// guard: four sub-registers consume at most 32 words).
const MIN_WORDS_BELOW: isize = 64;
/// Words that must remain above the cursor (overread guard: the widest
/// renorm load touches 16 u16 past the base).
const OVERREAD_WORDS: isize = 16;

/// Decodes positions `lo .. lo + out.len()` (descending) of a 32-way
/// interleaved stream, starting from `states` and backward word cursor
/// `next_read`. Returns the cursor after the segment.
///
/// This is the building block shared by the single-thread and Conventional
/// drivers and by the Recoil backends' segment tasks; `lo` need not be
/// group-aligned.
pub fn decode_segment<S: Symbol>(
    kernel: Kernel,
    model: &SimdModel<'_>,
    words: &[u16],
    next_read: Option<u64>,
    states: &mut [u32; 32],
    lo: u64,
    out: &mut [S],
) -> Result<Option<u64>, RansError> {
    let n = model.quant_bits();
    let mask = (1u32 << n) - 1;
    let mut p: isize = match next_read {
        Some(o) => {
            debug_assert!((o as usize) < words.len());
            o as isize
        }
        None => -1,
    };
    let hi = lo + out.len() as u64;
    let mut pos = hi;

    // Scalar head down to a group boundary.
    while pos > lo && !pos.is_multiple_of(32) {
        pos -= 1;
        let sym = scalar_step(model, words, &mut p, states, pos, n, mask)?;
        out[(pos - lo) as usize] = S::from_u16(sym);
    }

    // Vector main loop over full groups.
    let mut buf = [0u16; 32];
    while pos >= lo + 32 {
        let base = pos - 32;
        let vector_ok = !matches!(kernel, Kernel::Scalar)
            && p >= MIN_WORDS_BELOW
            && p + OVERREAD_WORDS <= words.len() as isize;
        if vector_ok {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: feature availability is encoded in `kernel` (checked
            // at construction); the cursor guards above keep every load in
            // bounds.
            unsafe {
                match kernel {
                    Kernel::Avx2 => crate::avx2::group_avx2(
                        model,
                        words.as_ptr(),
                        &mut p,
                        states,
                        n,
                        mask,
                        &mut buf,
                    ),
                    Kernel::Avx512 => crate::avx512::group_avx512(
                        model,
                        words.as_ptr(),
                        &mut p,
                        states,
                        n,
                        mask,
                        &mut buf,
                    ),
                    Kernel::Scalar => unreachable!(),
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            scalar_group(model, words, &mut p, states, base, n, mask, &mut buf)?;
        } else {
            scalar_group(model, words, &mut p, states, base, n, mask, &mut buf)?;
        }
        let seg = &mut out[(base - lo) as usize..][..32];
        for (o, &s) in seg.iter_mut().zip(buf.iter()) {
            *o = S::from_u16(s);
        }
        pos = base;
    }

    // Scalar tail below the last full group.
    while pos > lo {
        pos -= 1;
        let sym = scalar_step(model, words, &mut p, states, pos, n, mask)?;
        out[(pos - lo) as usize] = S::from_u16(sym);
    }
    Ok(if p < 0 { None } else { Some(p as u64) })
}

fn require_32_ways(ways: u32) -> Result<(), RansError> {
    if ways != 32 {
        return Err(RansError::MalformedStream(format!(
            "SIMD kernels require the 32-way interleave, stream has {ways}"
        )));
    }
    Ok(())
}

fn states_array(states: &[u32]) -> [u32; 32] {
    let mut a = [0u32; 32];
    a.copy_from_slice(states);
    a
}

/// Baseline (A) with SIMD: single-thread full-stream decode.
pub fn decode_interleaved_simd<S: Symbol>(
    kernel: Kernel,
    stream: &EncodedStream,
    model: &SimdModel<'_>,
    out: &mut [S],
) -> Result<(), RansError> {
    stream.validate()?;
    require_32_ways(stream.ways)?;
    if out.len() as u64 != stream.num_symbols {
        return Err(RansError::MalformedStream("output length mismatch".into()));
    }
    let mut states = states_array(&stream.final_states);
    let next = (!stream.words.is_empty()).then(|| stream.words.len() as u64 - 1);
    decode_segment(kernel, model, &stream.words, next, &mut states, 0, out)?;
    Ok(())
}

/// Baseline (B) with SIMD: per-partition vector decode (static models only —
/// a chunk's positions restart at zero, which only a position-independent
/// model tolerates).
pub fn decode_conventional_simd<S: Symbol>(
    kernel: Kernel,
    container: &ConventionalContainer,
    provider: &StaticModelProvider,
    pool: Option<&ThreadPool>,
    out: &mut [S],
) -> Result<(), RansError> {
    require_32_ways(container.ways)?;
    if out.len() as u64 != container.num_symbols() {
        return Err(RansError::MalformedStream("output length mismatch".into()));
    }
    let model = SimdModel::from_provider(provider);
    run_segments(pool, &container.symbol_bounds(), out, |m, seg| {
        let chunk = &container.chunks[m];
        chunk.validate()?;
        let mut states = states_array(&chunk.final_states);
        let next = (!chunk.words.is_empty()).then(|| chunk.words.len() as u64 - 1);
        decode_segment(kernel, &model, &chunk.words, next, &mut states, 0, seg)?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AutoBackend, Avx2Backend, Avx512Backend};
    use recoil_core::codec::{Codec, DecodeBackend};
    use recoil_models::CdfTable;
    use recoil_rans::{decode_interleaved, InterleavedEncoder, NullSink};

    fn sample(len: usize, seed: u32, spread: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (((i ^ seed).wrapping_mul(2654435761)) >> spread) as u8)
            .collect()
    }

    fn encode(data: &[u8], n: u32) -> (EncodedStream, StaticModelProvider) {
        let p = StaticModelProvider::new(CdfTable::of_bytes(data, n));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all(data, &mut NullSink);
        (enc.finish(), p)
    }

    #[test]
    fn all_kernels_match_reference_packed() {
        let data = sample(123_457, 0, 23);
        let (stream, p) = encode(&data, 11);
        let reference: Vec<u8> = decode_interleaved(&stream, &p).unwrap();
        assert_eq!(reference, data);
        let model = SimdModel::from_provider(&p);
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_interleaved_simd(kernel, &stream, &model, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn all_kernels_match_reference_wide_n16() {
        let data = sample(90_001, 1, 22);
        let (stream, p) = encode(&data, 16);
        let model = SimdModel::from_provider(&p);
        assert!(matches!(model, SimdModel::Wide { .. }));
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_interleaved_simd(kernel, &stream, &model, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn sixteen_bit_symbols_wide_path() {
        let bytes = sample(80_000, 2, 22);
        let data: Vec<u16> = bytes.iter().map(|&b| (b as u16) * 17).collect();
        let p = StaticModelProvider::new(CdfTable::of_u16(&data, 1 << 13, 14));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all(&data, &mut NullSink);
        let stream = enc.finish();
        let model = SimdModel::from_provider(&p);
        for kernel in Kernel::all_available() {
            let mut out = vec![0u16; data.len()];
            decode_interleaved_simd(kernel, &stream, &model, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn recoil_simd_matches_scalar_recoil() {
        let data = sample(300_000, 3, 23);
        let codec = Codec::builder().max_segments(16).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        assert_eq!(codec.decode::<u8>(&enc).unwrap(), data);
        let backends: [Box<dyn DecodeBackend>; 3] = [
            Box::new(Avx2Backend::with_pool(ThreadPool::new(7))),
            Box::new(Avx512Backend::with_pool(ThreadPool::new(7))),
            Box::new(AutoBackend::with_pool(ThreadPool::new(7))),
        ];
        for backend in backends.iter().filter(|b| b.is_available()) {
            let got: Vec<u8> = codec.decode_with(backend.as_ref(), &enc).unwrap();
            assert_eq!(got, data, "backend {}", backend.name());
        }
    }

    #[test]
    fn conventional_simd_matches() {
        let data = sample(200_000, 4, 23);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let c = recoil_conventional::encode_conventional(&data, &p, 32, 16);
        for kernel in Kernel::all_available() {
            let mut out = vec![0u8; data.len()];
            decode_conventional_simd(kernel, &c, &p, None, &mut out).unwrap();
            assert_eq!(out, data, "kernel {kernel:?}");
        }
    }

    #[test]
    fn short_streams_fall_back_to_scalar_paths() {
        for len in [1usize, 31, 32, 33, 63, 65, 100] {
            let data = sample(len, 5, 24);
            let (stream, p) = encode(&data, 10);
            let model = SimdModel::from_provider(&p);
            for kernel in Kernel::all_available() {
                let mut out = vec![0u8; len];
                decode_interleaved_simd(kernel, &stream, &model, &mut out).unwrap();
                assert_eq!(out, data, "kernel {kernel:?} len {len}");
            }
        }
    }

    #[test]
    fn non_32_way_streams_rejected() {
        let data = sample(1000, 6, 24);
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 10));
        let mut enc = InterleavedEncoder::new(&p, 8);
        enc.encode_all(&data, &mut NullSink);
        let stream = enc.finish();
        let model = SimdModel::from_provider(&p);
        let mut out = vec![0u8; 1000];
        assert!(decode_interleaved_simd(Kernel::Scalar, &stream, &model, &mut out).is_err());
    }
}

#[cfg(test)]
mod segment_tests {
    use super::*;
    use recoil_models::CdfTable;
    use recoil_rans::{InterleavedEncoder, NullSink};

    /// `decode_segment` returns the read cursor so callers can chain
    /// segments: two chained calls must equal one full-stream call for any
    /// (unaligned) split position and any kernel.
    #[test]
    fn chained_segments_equal_full_decode() {
        let data: Vec<u8> = (0..100_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect();
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let mut enc = InterleavedEncoder::new(&p, 32);
        enc.encode_all(&data, &mut NullSink);
        let stream = enc.finish();
        let model = SimdModel::from_provider(&p);
        for kernel in Kernel::all_available() {
            for cut in [1usize, 31, 32, 4097, 50_000, 99_999] {
                let mut full = vec![0u8; data.len()];
                decode_interleaved_simd(kernel, &stream, &model, &mut full).unwrap();

                let mut states = [0u32; 32];
                states.copy_from_slice(&stream.final_states);
                let next = Some(stream.words.len() as u64 - 1);
                let mut hi_part = vec![0u8; data.len() - cut];
                let next = decode_segment(
                    kernel,
                    &model,
                    &stream.words,
                    next,
                    &mut states,
                    cut as u64,
                    &mut hi_part,
                )
                .unwrap();
                let mut lo_part = vec![0u8; cut];
                decode_segment(
                    kernel,
                    &model,
                    &stream.words,
                    next,
                    &mut states,
                    0,
                    &mut lo_part,
                )
                .unwrap();
                assert_eq!(
                    &lo_part[..],
                    &full[..cut],
                    "kernel {kernel:?} cut {cut} low"
                );
                assert_eq!(
                    &hi_part[..],
                    &full[cut..],
                    "kernel {kernel:?} cut {cut} high"
                );
            }
        }
    }
}
