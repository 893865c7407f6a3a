//! [`Fetch`]: the one receive state machine behind every client fetch.
//!
//! A fetch in progress is a validated TRANSMIT header, the bitstream bytes
//! received so far, and a running CRC-32 over them. Recoil's split metadata
//! makes that enough to resume anywhere: segment `m` decodes once the first
//! `splits[m].offset + 1` words are resident, so the word offset received
//! so far is the complete resume state (paper §4). `Fetch` holds exactly
//! that and does no I/O: the caller reads CHUNK frames from whatever
//! connection it owns and feeds the bodies in.
//!
//! - The buffered request pushes every chunk, then takes the
//!   [`RemoteContent`] with [`Fetch::into_content`].
//! - The streaming fetch calls [`Fetch::decode_ready`] after each push, so
//!   segments decode while later chunks are still on the wire.
//! - The fabric router keeps one `Fetch` across nodes: when a node dies it
//!   asks the next one to resume at [`Fetch::word_offset`] and splices its
//!   stream in only after [`Fetch::resume`] accepts the new header.

use crate::client::RemoteContent;
use crate::proto::TransmitHeader;
use recoil_core::codec::DecodeBackend;
use recoil_core::{metadata_from_bytes, update_crc32, IncrementalDecoder, RecoilError};
use recoil_models::{CdfTable, StaticModelProvider};

/// One chunked fetch in progress (see the module docs).
#[derive(Debug)]
pub struct Fetch {
    /// The TRANSMIT header the fetch started from: its whole-stream
    /// fields are what every resumed header must repeat.
    header: TransmitHeader,
    decoder: IncrementalDecoder,
    /// Running CRC-32 register over the bytes pushed so far.
    crc: u32,
}

impl Fetch {
    /// Validates a TRANSMIT header before any chunk bytes arrive and sets
    /// up the incremental decoder for it.
    ///
    /// The checks mirror the container file parser: an information-capacity
    /// bound so a hostile header cannot drive the decode-side allocation,
    /// the quantizer invariants on the transmitted frequencies, the
    /// metadata's own CRC footer, and the metadata's geometry against the
    /// header's. [`IncrementalDecoder::new`] then bounds every readiness
    /// prefix the same way.
    pub fn new(header: TransmitHeader) -> Result<Self, RecoilError> {
        let bad = |msg: String| RecoilError::net(msg);
        if !header.word_bytes.is_multiple_of(2) {
            return Err(bad("odd bitstream byte count".into()));
        }
        let n = header.quant_bits;
        if n == 0 || n > 16 {
            return Err(bad(format!("bad quantization level {n}")));
        }
        let min_bits = ((1u64 << n) as f64).log2() - ((1u64 << n) as f64 - 1.0).log2();
        let capacity_bits = 8.0 * header.word_bytes as f64 + 16.0 * header.ways as f64;
        if header.num_symbols as f64 * min_bits > capacity_bits * 1.001 + 64.0 {
            return Err(bad(format!(
                "symbol count {} impossible for {} bitstream bytes",
                header.num_symbols, header.word_bytes
            )));
        }

        // Model reconstruction with the container parser's invariants.
        if header.freqs.is_empty() {
            return Err(bad("empty model frequency table".into()));
        }
        let sum: u64 = header.freqs.iter().map(|&f| u64::from(f)).sum();
        if sum != 1 << n {
            return Err(bad(format!(
                "model frequencies sum to {sum}, expected 2^{n}"
            )));
        }
        if header.freqs.iter().any(|&f| u64::from(f) >= 1u64 << n) {
            return Err(bad("model frequency reaches 2^n".into()));
        }
        let freqs = header.freqs.iter().map(|&f| u32::from(f)).collect();
        let model = StaticModelProvider::new(CdfTable::from_freqs(freqs, n));

        // Metadata bytes carry their own CRC footer; this parses + checks.
        let metadata = metadata_from_bytes(&header.metadata)?;
        if metadata.ways != header.ways
            || metadata.num_symbols != header.num_symbols
            || metadata.num_words.checked_mul(2) != Some(header.word_bytes)
        {
            return Err(bad(format!(
                "metadata (W={}, N={}, B={}) does not match the transmit header \
                 (W={}, N={}, B={})",
                metadata.ways,
                metadata.num_symbols,
                metadata.num_words,
                header.ways,
                header.num_symbols,
                header.word_bytes / 2
            )));
        }
        let decoder = IncrementalDecoder::new(metadata, header.final_states.clone(), model)?;
        Ok(Self {
            header,
            decoder,
            crc: 0xFFFF_FFFF,
        })
    }

    /// The header the fetch started from.
    pub fn header(&self) -> &TransmitHeader {
        &self.header
    }

    /// Adds one CHUNK body. A body that would take the payload past its
    /// declared size is rejected before any of it is used.
    pub fn push(&mut self, body: &[u8]) -> Result<(), RecoilError> {
        let received = self.decoder.bytes_received();
        if received.saturating_add(body.len() as u64) > self.header.word_bytes {
            return Err(RecoilError::net("chunked payload overruns declared size"));
        }
        self.crc = update_crc32(self.crc, body);
        self.decoder.push_bytes(body)
    }

    /// Whole bitstream words received so far: the offset a RESUME asks the
    /// next node to continue from.
    pub fn word_offset(&self) -> u64 {
        self.decoder.bytes_received() / 2
    }

    /// Accepts the TRANSMIT header of a resumed serve (another node, or a
    /// new connection) so its chunks can continue this fetch. Only the
    /// chunk count and the per-serve cache fields may differ: any
    /// whole-stream field that disagrees means different content, and the
    /// streams are not spliced.
    pub fn resume(&mut self, header: &TransmitHeader) -> Result<(), RecoilError> {
        if !self.decoder.bytes_received().is_multiple_of(2) {
            return Err(RecoilError::net(
                "cannot resume a fetch that stopped inside a word",
            ));
        }
        let old = &self.header;
        let differs = [
            ("segments", header.segments != old.segments),
            ("metadata", header.metadata != old.metadata),
            ("quant_bits", header.quant_bits != old.quant_bits),
            ("freqs", header.freqs != old.freqs),
            ("ways", header.ways != old.ways),
            ("num_symbols", header.num_symbols != old.num_symbols),
            ("final_states", header.final_states != old.final_states),
            ("word_bytes", header.word_bytes != old.word_bytes),
            ("payload_crc", header.payload_crc != old.payload_crc),
        ]
        .into_iter()
        .find(|&(_, differs)| differs);
        match differs {
            Some((field, _)) => Err(RecoilError::net(format!(
                "resumed TRANSMIT header disagrees with the original in `{field}`; \
                 refusing to splice streams"
            ))),
            None => Ok(()),
        }
    }

    /// Decodes every segment that became resident since the last call into
    /// `out`, growing it only to the symbols now ready (never from the
    /// declared total, so a hostile header cannot drive the allocation).
    /// Returns whether this call decoded anything: the first `true` marks
    /// the fetch's time to first segment.
    pub fn decode_ready(
        &mut self,
        backend: &dyn DecodeBackend,
        out: &mut Vec<u8>,
    ) -> Result<bool, RecoilError> {
        let need = self.decoder.ready_symbols();
        if need > out.len() {
            out.resize(need, 0);
        }
        let before = self.decoder.decoded_segments();
        self.decoder
            .decode_ready_segments(backend, out.as_mut_slice())?;
        Ok(self.decoder.decoded_segments() > before)
    }

    /// Checks a streamed fetch is done: the whole payload arrived, its
    /// CRC-32 matches the header, and every segment was decoded.
    pub fn finish(&self) -> Result<(), RecoilError> {
        self.check_payload()?;
        if !self.decoder.is_finished() {
            return Err(RecoilError::net(format!(
                "stream complete but only {} of {} segments decoded",
                self.decoder.decoded_segments(),
                self.decoder.num_segments()
            )));
        }
        Ok(())
    }

    /// The received content a buffered request yields, after checking the
    /// payload's length and CRC-32.
    pub fn into_content(self) -> Result<RemoteContent, RecoilError> {
        self.check_payload()?;
        let (stream, metadata, model) = self.decoder.into_parts();
        Ok(RemoteContent {
            stream,
            metadata,
            metadata_bytes: self.header.metadata,
            model,
            segments: self.header.segments,
            cache_hit: self.header.cache_hit,
            combine_nanos: self.header.combine_nanos,
        })
    }

    fn check_payload(&self) -> Result<(), RecoilError> {
        let received = self.decoder.bytes_received();
        if received != self.header.word_bytes {
            return Err(RecoilError::net(format!(
                "chunked payload short: {received} of {} bytes",
                self.header.word_bytes
            )));
        }
        if self.crc ^ 0xFFFF_FFFF != self.header.payload_crc {
            return Err(RecoilError::net("bitstream payload checksum mismatch"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil_core::codec::{Codec, ScalarBackend};
    use recoil_core::{crc32, metadata_to_bytes, plan_chunks, ChunkPlan};

    /// What a server sends for one small payload: the TRANSMIT header,
    /// the word bytes, and the split-aligned chunk plan it cuts them with.
    /// Small enough for Miri.
    struct Served {
        data: Vec<u8>,
        header: TransmitHeader,
        words: Vec<u8>,
        plan: ChunkPlan,
    }

    fn serve() -> Served {
        let data: Vec<u8> = (0..6_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 27) as u8)
            .collect();
        let codec = Codec::builder()
            .ways(4)
            .max_segments(6)
            .backend(ScalarBackend)
            .build()
            .unwrap();
        let enc = codec.encode(&data).unwrap();
        assert_eq!(codec.decode::<u8>(&enc).unwrap(), data);
        let (stream, meta) = (&enc.container.stream, &enc.container.metadata);
        let words: Vec<u8> = stream.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let table = enc.model.table();
        let plan = plan_chunks(meta, 64);
        let header = TransmitHeader {
            segments: meta.num_segments(),
            cache_hit: false,
            combine_nanos: 0,
            metadata: metadata_to_bytes(meta),
            quant_bits: table.quant_bits(),
            freqs: (0..table.alphabet_size())
                .map(|s| table.freq(s) as u16)
                .collect(),
            ways: stream.ways,
            num_symbols: stream.num_symbols,
            final_states: stream.final_states.clone(),
            word_bytes: words.len() as u64,
            payload_crc: crc32(&words),
            chunk_count: plan.len() as u32,
        };
        Served {
            data,
            header,
            words,
            plan,
        }
    }

    impl Served {
        /// The chunk bodies the plan cuts the word bytes into.
        fn bodies(&self) -> Vec<&[u8]> {
            self.plan
                .chunks
                .iter()
                .map(|c| &self.words[c.words.start as usize * 2..c.words.end as usize * 2])
                .collect()
        }
    }

    fn is_net(got: Result<impl std::fmt::Debug, RecoilError>, needle: &str) {
        match got {
            Err(RecoilError::Net { detail }) => {
                assert!(detail.contains(needle), "`{needle}` not in: {detail}")
            }
            other => panic!("expected a Net error about `{needle}`, got {other:?}"),
        }
    }

    #[test]
    fn bodies_at_any_split_decode_like_the_codec() {
        let s = serve();
        assert!(s.header.segments > 2, "need several segments");
        for piece in [1usize, 3, 7, 61, s.words.len()] {
            let mut fetch = Fetch::new(s.header.clone()).unwrap();
            let mut out = Vec::new();
            for body in s.words.chunks(piece) {
                fetch.push(body).unwrap();
                fetch.decode_ready(&ScalarBackend, &mut out).unwrap();
                // Output grows with readiness and is final where decoded.
                assert_eq!(out, s.data[..out.len()], "piece {piece}");
            }
            fetch.finish().unwrap();
            assert_eq!(out, s.data, "piece {piece}");
        }
    }

    #[test]
    fn plan_aligned_bodies_decode_as_their_segments_complete() {
        let s = serve();
        assert!(s.plan.len() > 2, "need several chunks");
        let mut fetch = Fetch::new(s.header.clone()).unwrap();
        let mut out = Vec::new();
        for (chunk, body) in s.plan.chunks.iter().zip(s.bodies()) {
            fetch.push(body).unwrap();
            let decoded = fetch.decode_ready(&ScalarBackend, &mut out).unwrap();
            assert_eq!(decoded, !chunk.segments.is_empty());
            assert_eq!(fetch.word_offset(), chunk.words.end);
        }
        fetch.finish().unwrap();
        assert_eq!(out, s.data);
    }

    #[test]
    fn buffered_content_decodes_like_the_codec() {
        let s = serve();
        let mut fetch = Fetch::new(s.header.clone()).unwrap();
        for body in s.words.chunks(5) {
            fetch.push(body).unwrap();
        }
        let content = fetch.into_content().unwrap();
        assert_eq!(content.metadata_bytes, s.header.metadata);
        assert_eq!(content.segments, s.header.segments);
        assert_eq!(content.decode_with(&ScalarBackend).unwrap(), s.data);
    }

    #[test]
    fn resume_at_every_chunk_boundary_is_seamless() {
        let s = serve();
        let bodies = s.bodies();
        for k in 0..=bodies.len() {
            let mut fetch = Fetch::new(s.header.clone()).unwrap();
            let mut out = Vec::new();
            for body in &bodies[..k] {
                fetch.push(body).unwrap();
                fetch.decode_ready(&ScalarBackend, &mut out).unwrap();
            }
            let resume_at = s
                .plan
                .chunks
                .get(k)
                .map_or(s.words.len() as u64 / 2, |c| c.words.start);
            assert_eq!(fetch.word_offset(), resume_at, "boundary {k}");
            // Another node's serve: same content, its own cache fields and
            // a chunk count trimmed to the missing words.
            let resumed = TransmitHeader {
                cache_hit: true,
                combine_nanos: 12_345,
                chunk_count: (bodies.len() - k) as u32,
                ..s.header.clone()
            };
            fetch.resume(&resumed).unwrap();
            for body in &bodies[k..] {
                fetch.push(body).unwrap();
                fetch.decode_ready(&ScalarBackend, &mut out).unwrap();
            }
            fetch.finish().unwrap();
            assert_eq!(out, s.data, "boundary {k}");
        }
    }

    #[test]
    fn short_stream_is_a_net_error() {
        let s = serve();
        let mut fetch = Fetch::new(s.header.clone()).unwrap();
        fetch.push(&s.words[..s.words.len() - 2]).unwrap();
        fetch.decode_ready(&ScalarBackend, &mut Vec::new()).unwrap();
        is_net(fetch.finish(), "short");
        is_net(fetch.into_content(), "short");
    }

    #[test]
    fn overrun_is_a_net_error_before_any_byte_is_used() {
        let s = serve();
        let mut fetch = Fetch::new(s.header.clone()).unwrap();
        let mut long = s.words.clone();
        long.extend_from_slice(&[0, 0]);
        is_net(fetch.push(&long), "overruns");
        assert_eq!(fetch.word_offset(), 0, "the rejected body was not pushed");
        fetch.push(&s.words).unwrap();
        is_net(fetch.push(&[0]), "overruns");
        fetch.finish().unwrap_err(); // nothing decoded yet
        assert_eq!(
            fetch
                .into_content()
                .unwrap()
                .decode_with(&ScalarBackend)
                .unwrap(),
            s.data
        );
    }

    #[test]
    fn flipped_payload_bit_fails_the_crc() {
        let s = serve();
        let mut words = s.words.clone();
        let last = words.len() - 1;
        words[last] ^= 0x10;
        let mut fetch = Fetch::new(s.header.clone()).unwrap();
        fetch.push(&words).unwrap();
        is_net(fetch.finish(), "checksum");
        is_net(fetch.into_content(), "checksum");
    }

    #[test]
    fn tampered_metadata_is_rejected() {
        let s = serve();
        let mut header = s.header.clone();
        header.metadata[8] ^= 0x01;
        assert!(matches!(Fetch::new(header), Err(RecoilError::Wire { .. })));
        // Intact metadata that disagrees with the header's geometry.
        let header = TransmitHeader {
            num_symbols: s.header.num_symbols - 1,
            ..s.header.clone()
        };
        is_net(Fetch::new(header), "does not match");
    }

    #[test]
    fn resume_refuses_any_whole_stream_difference() {
        let s = serve();
        let h = &s.header;
        let mut metadata = h.metadata.clone();
        metadata[8] ^= 0x01;
        let mut freqs = h.freqs.clone();
        freqs[0] += 1;
        let mut final_states = h.final_states.clone();
        final_states[0] ^= 1;
        let changed = [
            TransmitHeader {
                segments: h.segments + 1,
                ..h.clone()
            },
            TransmitHeader {
                metadata,
                ..h.clone()
            },
            TransmitHeader {
                quant_bits: h.quant_bits + 1,
                ..h.clone()
            },
            TransmitHeader { freqs, ..h.clone() },
            TransmitHeader {
                ways: h.ways + 1,
                ..h.clone()
            },
            TransmitHeader {
                num_symbols: h.num_symbols + 1,
                ..h.clone()
            },
            TransmitHeader {
                final_states,
                ..h.clone()
            },
            TransmitHeader {
                word_bytes: h.word_bytes + 2,
                ..h.clone()
            },
            TransmitHeader {
                payload_crc: !h.payload_crc,
                ..h.clone()
            },
        ];
        for other in &changed {
            let mut fetch = Fetch::new(h.clone()).unwrap();
            fetch.push(s.bodies()[0]).unwrap();
            is_net(fetch.resume(other), "refusing to splice");
        }
        // A header that differs only in `final_states` names the field.
        let mut fetch = Fetch::new(h.clone()).unwrap();
        is_net(fetch.resume(&changed[6]), "final_states");
    }

    #[test]
    fn resume_inside_a_word_is_refused() {
        let s = serve();
        let mut fetch = Fetch::new(s.header.clone()).unwrap();
        fetch.push(&s.words[..3]).unwrap();
        is_net(fetch.resume(&s.header), "inside a word");
    }
}
