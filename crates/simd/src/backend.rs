//! SIMD [`DecodeBackend`] implementations plugging the AVX2/AVX-512 kernels
//! into the `recoil_core::codec` facade.
//!
//! All three backends are one type, [`SimdBackend`], parameterised by a
//! [`KernelPolicy`]; the aliases [`Avx2Backend`], [`Avx512Backend`] and
//! [`AutoBackend`] name the three policies. Like every backend, it
//! implements only [`DecodeBackend::decode_segments`]: core's segment-range
//! engine schedules the tasks and runs each split's Synchronization Phase,
//! and the vector kernel runs the Decoding and Cross-Boundary phases inside
//! each task.
//!
//! ## Backend selection semantics
//!
//! * [`Avx2Backend`] / [`Avx512Backend`] run their kernel or fail: decoding
//!   on a host without the CPU feature returns
//!   [`RecoilError::BackendUnavailable`] (and `is_available()` reports it
//!   up front, so [`recoil_core::codec::CodecBuilder::build`] rejects the
//!   configuration early).
//! * [`AutoBackend`] dispatches at decode time in the order
//!   **AVX-512 → AVX2 → scalar**: the best kernel the CPU supports wins,
//!   and when neither vector extension is present it degrades to the
//!   scalar three-phase decoder rather than erroring — one binary serves
//!   every host.
//! * The vector kernels are built for the paper's 32-way interleave and
//!   static models. For non-32-way streams [`AutoBackend`] falls back to
//!   the scalar path, while the explicit AVX backends report the stream as
//!   malformed. Adaptive (per-position-model) decodes always take the
//!   scalar engine — per-symbol model indirection defeats flat gathers.
//!
//! All backends optionally carry a [`ThreadPool`], in which case decode
//! tasks (one per metadata segment) are distributed across it; the kernels
//! then run *inside* each task.

use crate::driver::decode_segment;
use crate::kernel::Kernel;
use crate::model::SimdModel;
use recoil_core::codec::{decode_segments_pooled, DecodeBackend, DecodeRequest, SymbolsMut};
use recoil_core::{decode_segments_with, RecoilError};
use recoil_models::Symbol;
use recoil_parallel::ThreadPool;
use recoil_rans::RansError;
use std::marker::PhantomData;
use std::ops::Range;

/// How a [`SimdBackend`] picks its kernel.
pub trait KernelPolicy: Send + Sync + 'static {
    /// The backend's name.
    const NAME: &'static str;
    /// The one kernel this backend runs, or `None` to pick the best
    /// available kernel per stream.
    const FIXED: Option<Kernel>;
}

/// Policy of [`Avx2Backend`]: always the AVX2 kernel.
pub struct Avx2Only;

/// Policy of [`Avx512Backend`]: always the AVX-512 kernel.
pub struct Avx512Only;

/// Policy of [`AutoBackend`]: AVX-512 → AVX2 → scalar, per stream.
pub struct BestAvailable;

impl KernelPolicy for Avx2Only {
    const NAME: &'static str = "avx2";
    const FIXED: Option<Kernel> = Some(Kernel::Avx2);
}

impl KernelPolicy for Avx512Only {
    const NAME: &'static str = "avx512";
    const FIXED: Option<Kernel> = Some(Kernel::Avx512);
}

impl KernelPolicy for BestAvailable {
    const NAME: &'static str = "auto";
    const FIXED: Option<Kernel> = None;
}

/// A decode backend running segment tasks with the kernel its policy picks.
pub struct SimdBackend<P: KernelPolicy> {
    pool: Option<ThreadPool>,
    policy: PhantomData<P>,
}

/// AVX2 kernel backend (8 lanes × 4 unroll, paper implementation (2)).
pub type Avx2Backend = SimdBackend<Avx2Only>;

/// AVX-512 kernel backend (16 lanes × 2 unroll, paper implementation (3)).
pub type Avx512Backend = SimdBackend<Avx512Only>;

/// Runtime-dispatch backend: AVX-512 → AVX2 → scalar, never unavailable.
pub type AutoBackend = SimdBackend<BestAvailable>;

impl<P: KernelPolicy> SimdBackend<P> {
    /// Single-threaded backend (kernels still vectorize within the calling
    /// thread).
    pub fn new() -> Self {
        Self::from_parts(None)
    }

    /// Backend decoding on `threads` threads.
    pub fn with_threads(threads: usize) -> Self {
        Self::from_parts((threads > 1).then(|| ThreadPool::new(threads - 1)))
    }

    /// Backend decoding on an existing pool.
    pub fn with_pool(pool: ThreadPool) -> Self {
        Self::from_parts(Some(pool))
    }

    fn from_parts(pool: Option<ThreadPool>) -> Self {
        Self {
            pool,
            policy: PhantomData,
        }
    }

    /// The kernel a decode will use for a `ways`-way stream on this host
    /// ([`Kernel::Scalar`] means the scalar three-phase decoder).
    pub fn selected_kernel(&self, ways: u32) -> Kernel {
        match P::FIXED {
            Some(kernel) => kernel,
            None if ways == crate::SIMD_WAYS => Kernel::best(),
            None => Kernel::Scalar,
        }
    }
}

impl<P: KernelPolicy> Default for SimdBackend<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: KernelPolicy> DecodeBackend for SimdBackend<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn is_available(&self) -> bool {
        P::FIXED.is_none_or(Kernel::is_available)
    }

    fn pool(&self) -> Option<&ThreadPool> {
        self.pool.as_ref()
    }

    fn decode_segments(
        &self,
        req: &DecodeRequest<'_>,
        segments: Range<u64>,
        out: SymbolsMut<'_>,
    ) -> Result<(), RecoilError> {
        if !self.is_available() {
            return Err(RecoilError::BackendUnavailable { backend: P::NAME });
        }
        let kernel = self.selected_kernel(req.stream.ways);
        match out {
            SymbolsMut::U8(out) => run_kernel(kernel, req, self.pool(), segments, out),
            SymbolsMut::U16(out) => run_kernel(kernel, req, self.pool(), segments, out),
        }
    }
}

/// Decodes `segments` with `kernel` inside each task of core's engine; the
/// scalar kernel is core's own fast loop. The memory guards in
/// [`decode_segment`] keep vector loads inside a resident stream prefix,
/// falling back to scalar steps near its edge with bit-identical results.
fn run_kernel<S: Symbol>(
    kernel: Kernel,
    req: &DecodeRequest<'_>,
    pool: Option<&ThreadPool>,
    segments: Range<u64>,
    out: &mut [S],
) -> Result<(), RecoilError> {
    let DecodeRequest {
        stream,
        metadata,
        model,
    } = *req;
    if kernel == Kernel::Scalar {
        return decode_segments_pooled(stream, metadata, model, pool, segments, out);
    }
    let simd_model = SimdModel::from_provider(model);
    let words = &stream.words;
    decode_segments_with(
        stream,
        metadata,
        model,
        pool,
        segments,
        out,
        |states, next_read, lo, seg| {
            let states = states.try_into().map_err(|_| {
                RansError::MalformedStream(format!(
                    "SIMD kernels require the 32-way interleave, stream has {}",
                    stream.ways
                ))
            })?;
            decode_segment(kernel, &simd_model, words, next_read, states, lo, seg)?;
            Ok(())
        },
    )
    .map_err(RecoilError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_core::codec::Codec;
    use recoil_models::{CdfTable, StaticModelProvider};

    fn sample(len: usize, seed: u32) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (((i ^ seed).wrapping_mul(2654435761)) >> 23) as u8)
            .collect()
    }

    #[test]
    fn auto_matches_scalar_on_any_host() {
        let data = sample(200_000, 1);
        let codec = Codec::builder().max_segments(24).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        let reference: Vec<u8> = codec.decode(&enc).unwrap();
        let auto: Vec<u8> = codec
            .decode_with(&AutoBackend::with_threads(4), &enc)
            .unwrap();
        assert_eq!(reference, data);
        assert_eq!(auto, data);
    }

    #[test]
    fn auto_falls_back_to_scalar_for_narrow_streams() {
        let data = sample(50_000, 2);
        let codec = Codec::builder().ways(8).max_segments(8).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        let backend = AutoBackend::new();
        assert_eq!(backend.selected_kernel(8), Kernel::Scalar);
        let got: Vec<u8> = codec.decode_with(&backend, &enc).unwrap();
        assert_eq!(got, data);
        // The explicit kernels report the stream as malformed instead.
        let explicit: [&dyn DecodeBackend; 2] = [&Avx2Backend::new(), &Avx512Backend::new()];
        for backend in explicit.into_iter().filter(|b| b.is_available()) {
            let err = codec.decode_with::<u8>(backend, &enc).unwrap_err();
            assert!(err.to_string().contains("32-way"), "{err}");
        }
    }

    #[test]
    fn explicit_backends_error_when_unavailable() {
        let data = sample(20_000, 3);
        let codec = Codec::builder().max_segments(4).build().unwrap();
        let enc = codec.encode(&data).unwrap();
        for (avail, result) in [
            (
                Kernel::Avx2.is_available(),
                codec.decode_with::<u8>(&Avx2Backend::new(), &enc),
            ),
            (
                Kernel::Avx512.is_available(),
                codec.decode_with::<u8>(&Avx512Backend::new(), &enc),
            ),
        ] {
            if avail {
                assert_eq!(result.unwrap(), data);
            } else {
                assert!(matches!(
                    result,
                    Err(RecoilError::BackendUnavailable { .. })
                ));
            }
        }
    }

    #[test]
    fn adaptive_path_is_scalar_but_correct() {
        use recoil_models::{GaussianScaleBank, LatentModelProvider, LatentSpec};
        use std::sync::Arc;
        let bank = Arc::new(GaussianScaleBank::build(12, 256, 8, 0.5, 32.0));
        let count = 40_000usize;
        let specs: Vec<LatentSpec> = (0..count)
            .map(|i| LatentSpec {
                mean: 2000 + (i % 700) as u16,
                scale_idx: (i % 8) as u8,
            })
            .collect();
        let provider = LatentModelProvider::new(bank, specs.clone());
        let data: Vec<u16> = (0..count)
            .map(|i| {
                let d = ((i as i64).wrapping_mul(2654435761) % 31) - 15;
                provider.clamp_to_window(specs[i], specs[i].mean as i64 + d)
            })
            .collect();
        let codec = Codec::builder()
            .quant_bits(12)
            .max_segments(8)
            .build()
            .unwrap();
        let container = codec.encode_with_provider(&data, &provider).unwrap();
        for backend in [
            &AutoBackend::with_threads(4) as &dyn DecodeBackend,
            &Avx2Backend::new(),
        ] {
            let mut out = vec![0u16; data.len()];
            backend
                .decode_adaptive(&container.stream, &container.metadata, &provider, &mut out)
                .unwrap();
            assert_eq!(out, data, "backend {}", backend.name());
        }
    }

    #[test]
    fn model_quant_check_rejects_mismatch() {
        let data = sample(5_000, 4);
        let model = StaticModelProvider::new(CdfTable::of_bytes(&data, 10));
        let codec = Codec::builder().quant_bits(11).build().unwrap();
        assert!(codec.encode_with_provider(&data, &model).is_err());
    }
}
