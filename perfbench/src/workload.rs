//! The three workloads' seeded inputs and op plans.
//!
//! Everything a run feeds the program derives from `--seed` through
//! [`SplitMix`]: payload bytes, item sizes, and the op sequence each client
//! draws. The transfer ratio is computed over a fixed-length prefix of the
//! op plan, so it depends on the seed alone, never on how many ops a run
//! happened to complete.

use recoil::core::{combine_splits, metadata_to_bytes};
use recoil::server::StoredContent;
use recoil::EncoderConfig;

/// The workloads, by the names `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CodecBulk,
    FetchLarge,
    FetchSmall,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "codec_bulk" => Self::CodecBulk,
            "fetch_large" => Self::FetchLarge,
            "fetch_small" => Self::FetchSmall,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::CodecBulk => "codec_bulk",
            Self::FetchLarge => "fetch_large",
            Self::FetchSmall => "fetch_small",
        }
    }
}

/// Input sizes. [`Scale::FULL`] is what the benchmark runs; tests use a
/// small scale through the same code.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub bulk_bytes: usize,
    pub large_items: usize,
    pub large_bytes: usize,
    pub small_items: usize,
    pub small_bytes: usize,
    /// Distinct payloads fetch_small's publishing client cycles through.
    pub fresh_payloads: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        bulk_bytes: 16 << 20,
        large_items: 4,
        large_bytes: 2 << 20,
        small_items: 256,
        small_bytes: 64 << 10,
        fresh_payloads: 8,
    };
}

/// Ops of the plan prefix the transfer ratio is computed over.
pub const PLAN_PREFIX: usize = 4096;

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// An independent sub-seed of `seed` for stream `k` (an item, a client).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    SplitMix::new(seed ^ k.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// The encoder settings every workload publishes with: the paper's 32-way
/// interleave, 2^11 quantization, and metadata for up to 256 segments.
pub fn encoder_config() -> EncoderConfig {
    EncoderConfig {
        ways: 32,
        max_segments: 256,
        quant_bits: 11,
        ..EncoderConfig::default()
    }
}

/// codec_bulk's single payload: text-like bytes at about 4.5 bits/byte.
pub fn bulk_payload(scale: &Scale, seed: u64) -> Vec<u8> {
    recoil::data::text_like_bytes(scale.bulk_bytes, 4.5, sub_seed(seed, 0))
}

/// fetch_large's items: exponential bytes with λ = 80, 140, 200, 260.
pub fn large_items(scale: &Scale, seed: u64) -> Vec<Vec<u8>> {
    (0..scale.large_items)
        .map(|i| {
            let lambda = 80.0 + 60.0 * i as f64;
            recoil::data::exponential_bytes(scale.large_bytes, lambda, sub_seed(seed, i as u64))
        })
        .collect()
}

/// fetch_small's items: exponential bytes of 60–68 KiB with λ in 40..440.
pub fn small_items(scale: &Scale, seed: u64) -> Vec<Vec<u8>> {
    (0..scale.small_items)
        .map(|i| small_payload(scale, sub_seed(seed, i as u64)))
        .collect()
}

/// Payloads fetch_small's publishing client cycles through under fresh
/// names: exactly `small_bytes` each, at λ spread evenly over 40..440. The
/// seed picks the bytes only, so every seed publishes the same mix of
/// sizes and entropies (an encode's cost depends on both, and the pooled
/// encoder takes inputs of 64 KiB and up).
pub fn fresh_payloads(scale: &Scale, seed: u64) -> Vec<Vec<u8>> {
    let n = scale.fresh_payloads;
    (0..n)
        .map(|k| {
            let lambda = 40.0 + 400.0 * (2 * k + 1) as f64 / (2 * n) as f64;
            let sub = sub_seed(seed, (1 << 32) + k as u64);
            recoil::data::exponential_bytes(scale.small_bytes, lambda, sub)
        })
        .collect()
}

fn small_payload(scale: &Scale, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    let jitter = (scale.small_bytes / 8) as u64;
    let len = scale.small_bytes - jitter as usize / 2 + rng.below(jitter.max(1)) as usize;
    let lambda = 40.0 + rng.below(400) as f64;
    recoil::data::exponential_bytes(len, lambda, rng.next_u64())
}

/// The op sequence of one client, drawn from its own sub-seed.
pub fn client_rng(seed: u64, client: usize) -> SplitMix {
    SplitMix::new(sub_seed(seed, (2 << 32) + client as u64))
}

/// One codec_bulk op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkOp {
    /// Unpublish, then `ContentServer::publish` of the payload.
    Publish,
    /// Decode through `Codec` at capacity `cap` (`cap` segments, `cap`
    /// threads).
    Decode { cap: u64 },
}

/// codec_bulk's op sequence: blocks of 16 ops — one publish, five decodes
/// at capacity 1 and ten at capacity `nproc` — each block in a seeded
/// order. Fixed shares keep the mix from varying between seeds; a publish
/// costs about twenty decodes, so a third of the time goes to encoding.
#[derive(Debug, Clone)]
pub struct BulkPlan {
    rng: SplitMix,
    nproc: u64,
    block: Vec<BulkOp>,
}

impl BulkPlan {
    pub fn new(rng: SplitMix, nproc: u64) -> Self {
        Self {
            rng,
            nproc,
            block: Vec::new(),
        }
    }

    pub fn next_op(&mut self) -> BulkOp {
        if self.block.is_empty() {
            self.block.push(BulkOp::Publish);
            self.block.extend([BulkOp::Decode { cap: 1 }; 5]);
            self.block.extend([BulkOp::Decode { cap: self.nproc }; 10]);
            // Fisher-Yates.
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("a refilled block")
    }
}

/// The three client fetch paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `NetClient::request` then `RemoteContent::decode_with`: what
    /// `fetch_and_decode` does, timed in two parts.
    Buffered,
    /// `NetClient::fetch_and_decode_streaming`.
    Streaming,
    /// `FabricRouter::fetch` over two nodes.
    Routed,
}

impl Path {
    pub const ALL: [Path; 3] = [Path::Buffered, Path::Streaming, Path::Routed];

    pub fn name(self) -> &'static str {
        match self {
            Self::Buffered => "buffered",
            Self::Streaming => "streaming",
            Self::Routed => "routed",
        }
    }
}

/// One fetch: item index, client capacity, path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOp {
    pub item: usize,
    pub cap: u64,
    pub path: Path,
}

/// fetch_large's capacity tiers, Zipf-weighted by position (weight 1/rank):
/// eight tiers, so the server's eight-entry tier cache holds all of them.
pub const LARGE_TIERS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 256];

/// Every this-many-th op of fetch_large's client (the 32nd, the 64th, ...)
/// publishes: item `k mod items` for the k-th publish, under a fresh name.
/// Publishes take no draw from the plan: the fetches are the same with or
/// without them.
pub const LARGE_PUBLISH_EVERY: usize = 32;

/// A fetch_large op: uniform item, Zipf tier, uniform path.
pub fn large_op(rng: &mut SplitMix, items: usize) -> FetchOp {
    const SCALE: u64 = 840; // divisible by 1..=8
    let total: u64 = (1..=LARGE_TIERS.len() as u64).map(|r| SCALE / r).sum();
    let mut draw = rng.below(total);
    let mut tier = LARGE_TIERS[LARGE_TIERS.len() - 1];
    for (r, &t) in LARGE_TIERS.iter().enumerate() {
        let w = SCALE / (r as u64 + 1);
        if draw < w {
            tier = t;
            break;
        }
        draw -= w;
    }
    FetchOp {
        item: rng.below(items as u64) as usize,
        cap: tier,
        path: Path::ALL[rng.below(3) as usize],
    }
}

/// One fetch_small op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallOp {
    /// Publish a fresh item over the wire.
    Publish,
    /// A buffered fetch.
    Fetch(FetchOp),
}

/// Ops of fetch_small's publishing client per publish.
pub const SMALL_PUBLISH_EVERY: u64 = 16;

/// One fetch_small op. Only client 0 publishes, 1 op in
/// [`SMALL_PUBLISH_EVERY`] (about 1 op in 40 overall with two clients), so
/// wire publishes never overlap: two at once can deadlock the server (see
/// `perfbench/README.md`). The rest fetch a uniform item at a capacity
/// uniform in 1..=64, wider than the eight-entry tier cache.
pub fn small_op(rng: &mut SplitMix, items: usize, publisher: bool) -> SmallOp {
    if publisher && rng.below(SMALL_PUBLISH_EVERY) == 0 {
        return SmallOp::Publish;
    }
    SmallOp::Fetch(FetchOp {
        item: rng.below(items as u64) as usize,
        cap: 1 + rng.below(64),
        path: Path::Buffered,
    })
}

/// Bytes one response for `cap` carries: the bitstream payload plus the
/// served tier's serialized metadata.
pub fn transfer_bytes(stored: &StoredContent, cap: u64) -> u64 {
    let tier = combine_splits(&stored.metadata, cap.min(stored.max_segments()));
    stored.stream.payload_bytes() + metadata_to_bytes(&tier).len() as u64
}

/// Transfer bytes per payload byte over `fetches` (item, capacity).
pub fn transfer_ratio(
    fetches: impl IntoIterator<Item = (usize, u64)>,
    stored: &[std::sync::Arc<StoredContent>],
    payload_len: impl Fn(usize) -> usize,
) -> f64 {
    let mut memo = std::collections::HashMap::new();
    let (mut sent, mut payload) = (0u64, 0u64);
    for (item, cap) in fetches {
        sent += *memo
            .entry((item, cap))
            .or_insert_with(|| transfer_bytes(&stored[item], cap));
        payload += payload_len(item) as u64;
    }
    sent as f64 / payload as f64
}

/// The (item, capacity) of every fetch in the first [`PLAN_PREFIX`] ops
/// of each client's plan.
pub fn planned_fetches(
    workload: Workload,
    seed: u64,
    clients: usize,
    items: usize,
    nproc: u64,
) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    for c in 0..clients {
        let mut rng = client_rng(seed, c);
        let mut bulk = BulkPlan::new(client_rng(seed, c), nproc);
        for _ in 0..PLAN_PREFIX {
            match workload {
                Workload::CodecBulk => {
                    if let BulkOp::Decode { cap } = bulk.next_op() {
                        out.push((0, cap));
                    }
                }
                Workload::FetchLarge => {
                    let op = large_op(&mut rng, items);
                    out.push((op.item, op.cap));
                }
                Workload::FetchSmall => {
                    if let SmallOp::Fetch(op) = small_op(&mut rng, items, c == 0) {
                        out.push((op.item, op.cap));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use recoil::server::ContentServer;

    const TINY: Scale = Scale {
        bulk_bytes: 40_000,
        large_items: 2,
        large_bytes: 30_000,
        small_items: 6,
        small_bytes: 8_000,
        fresh_payloads: 2,
    };

    fn inputs(workload: Workload, seed: u64) -> Vec<Vec<u8>> {
        match workload {
            Workload::CodecBulk => vec![bulk_payload(&TINY, seed)],
            Workload::FetchLarge => large_items(&TINY, seed),
            Workload::FetchSmall => {
                let mut v = small_items(&TINY, seed);
                v.extend(fresh_payloads(&TINY, seed));
                v
            }
        }
    }

    fn ratio(workload: Workload, seed: u64) -> f64 {
        let server = ContentServer::new();
        let items = inputs(workload, seed);
        let stored: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, data)| {
                server
                    .publish(&format!("i{i}"), data, &encoder_config())
                    .unwrap()
            })
            .collect();
        let fetches = planned_fetches(workload, seed, 2, stored.len(), 2);
        assert!(
            fetches.len() > PLAN_PREFIX,
            "{workload:?}: plan has fetches"
        );
        transfer_ratio(fetches, &stored, |i| items[i].len())
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_transfer_ratio() {
        for w in [
            Workload::CodecBulk,
            Workload::FetchLarge,
            Workload::FetchSmall,
        ] {
            assert_eq!(inputs(w, 7), inputs(w, 7), "{w:?}");
            assert_ne!(inputs(w, 7), inputs(w, 8), "{w:?}: the seed matters");
            let r = ratio(w, 7);
            assert!(r > 0.0 && r.is_finite(), "{w:?}: {r}");
            assert_eq!(r.to_bits(), ratio(w, 7).to_bits(), "{w:?}");
        }
    }

    #[test]
    fn plans_follow_their_mixes() {
        let mut rng = SplitMix::new(1);
        let n = 84_000;
        let ops: Vec<_> = (0..n).map(|_| large_op(&mut rng, 4)).collect();
        let share =
            |f: &dyn Fn(&FetchOp) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / n as f64;
        // Zipf: tier 1 carries 1/H(8) ≈ 0.368 of draws, tier 256 ≈ 0.046.
        assert!((share(&|o| o.cap == 1) - 0.368).abs() < 0.01);
        assert!((share(&|o| o.cap == 256) - 0.046).abs() < 0.005);
        assert!((share(&|o| o.path == Path::Routed) - 1.0 / 3.0).abs() < 0.01);
        let mut plan = BulkPlan::new(SplitMix::new(3), 2);
        let block: Vec<_> = (0..16).map(|_| plan.next_op()).collect();
        assert_eq!(block.iter().filter(|&&o| o == BulkOp::Publish).count(), 1);
        assert_eq!(
            block
                .iter()
                .filter(|&&o| o == BulkOp::Decode { cap: 1 })
                .count(),
            5
        );
        let mut rng = SplitMix::new(2);
        let publishes = (0..n)
            .filter(|_| small_op(&mut rng, 256, true) == SmallOp::Publish)
            .count() as f64;
        assert!((publishes / n as f64 - 1.0 / 16.0).abs() < 0.004);
        assert!((0..n).all(|_| small_op(&mut rng, 256, false) != SmallOp::Publish));
    }
}
