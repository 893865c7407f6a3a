//! The stream+metadata container.

use crate::metadata::RecoilMetadata;
use crate::wire::metadata_to_bytes;
use recoil_rans::EncodedStream;

/// An encoded bitstream together with its (independent) Recoil metadata.
///
/// The server keeps the Large-variation container and derives per-client
/// metadata with [`crate::combine_splits`]; the bitstream bytes never change.
#[derive(Debug, Clone)]
pub struct RecoilContainer {
    /// The interleaved rANS bitstream (+ final states).
    pub stream: EncodedStream,
    /// Split metadata enabling parallel decoding.
    pub metadata: RecoilMetadata,
}

impl RecoilContainer {
    /// Bytes of the bitstream payload alone — the paper's variation (a)
    /// baseline size.
    pub fn stream_bytes(&self) -> u64 {
        self.stream.payload_bytes()
    }

    /// Serialized metadata size in bytes — the Recoil overhead the size
    /// tables report relative to variation (a).
    pub fn metadata_bytes(&self) -> u64 {
        metadata_to_bytes(&self.metadata).len() as u64
    }

    /// Total transfer size: payload + metadata.
    pub fn total_bytes(&self) -> u64 {
        self.stream_bytes() + self.metadata_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_pooled;
    use crate::encoder::encode_container;
    use crate::planner::PlannerConfig;
    use recoil_models::{CdfTable, ModelProvider, StaticModelProvider, Symbol};

    fn encode_with_segments<S: Symbol, P: ModelProvider>(
        data: &[S],
        provider: &P,
        segments: u64,
    ) -> RecoilContainer {
        encode_container(data, provider, 32, PlannerConfig::with_segments(segments)).unwrap()
    }

    #[test]
    fn one_call_encode_decodes_back() {
        let data: Vec<u8> = (0..150_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 22) as u8)
            .collect();
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let c = encode_with_segments(&data, &p, 16);
        assert_eq!(c.metadata.num_segments(), 16);
        let mut got = vec![0u8; data.len()];
        decode_pooled(&c.stream, &c.metadata, &p, None, &mut got).unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn metadata_bytes_scale_with_segments() {
        let data: Vec<u8> = (0..400_000u32)
            .map(|i| (i.wrapping_mul(747796405) >> 21) as u8)
            .collect();
        let p = StaticModelProvider::new(CdfTable::of_bytes(&data, 11));
        let small = encode_with_segments(&data, &p, 8);
        let large = encode_with_segments(&data, &p, 128);
        assert_eq!(
            small.stream_bytes(),
            large.stream_bytes(),
            "bitstream is unchanged"
        );
        assert!(large.metadata_bytes() > small.metadata_bytes() * 8);
        // ~76 bytes per split at W=32 (paper §5.2 ballpark).
        let per_split = large.metadata_bytes() as f64 / 127.0;
        assert!(
            per_split > 60.0 && per_split < 100.0,
            "per-split {per_split}"
        );
    }
}
