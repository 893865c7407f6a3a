//! Per-content LRU cache of shrunk metadata tiers.
//!
//! The server's real-time combine (§3.3) is lightweight but not free: it
//! clones the kept split points and re-serializes the wire bytes on every
//! request. Client capacities are heavily clustered in practice (a handful
//! of device classes), so each published item carries a small LRU cache of
//! the tiers it has actually served.
//!
//! The cache key is the **post-clamp** segment count — the tier actually
//! served, not the capacity the client asked for. A request for 10 000
//! segments against content encoded with 128 serves the 128-segment tier,
//! and therefore shares a cache entry with an explicit 128-segment request.

use parking_lot::Mutex;
use recoil_core::RecoilMetadata;
use recoil_telemetry::Counter;
use std::sync::Arc;

/// One shrunk, ready-to-serve metadata tier: the combined metadata and its
/// serialized wire bytes, shared by every response for this tier.
#[derive(Debug)]
pub struct ShrunkTier {
    /// The tier's segment count (post-clamp: `min(requested, available)`).
    pub segments: u64,
    /// Combined metadata (parsed form, for in-process clients).
    pub metadata: RecoilMetadata,
    /// Serialized metadata, what goes on the wire.
    pub metadata_bytes: Vec<u8>,
}

/// A small LRU (most-recently-served first) of [`ShrunkTier`]s.
///
/// Capacities are tiny (default 8) and entries are `Arc`-shared, so the
/// inner structure is a plain vector under a mutex: lookup is a short scan,
/// promotion a rotate — cheaper than any linked-list bookkeeping at this
/// size, and the lock is held only for the scan, never during a combine.
#[derive(Debug)]
pub(crate) struct TierCache {
    capacity: usize,
    /// `(segments, tier)` pairs, most recently used first.
    tiers: Mutex<Vec<(u64, Arc<ShrunkTier>)>>,
}

impl TierCache {
    /// Cache holding at most `capacity` tiers (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            tiers: Mutex::new(Vec::new()),
        }
    }

    /// Looks up `segments`, promoting the entry to most-recently-used.
    pub fn get(&self, segments: u64) -> Option<Arc<ShrunkTier>> {
        let mut tiers = self.tiers.lock();
        let idx = tiers.iter().position(|(t, _)| *t == segments)?;
        // Promote: rotate the hit to the front, preserving relative order
        // of everything in between.
        tiers[..=idx].rotate_right(1);
        Some(Arc::clone(&tiers[0].1))
    }

    /// Inserts `tier` as most-recently-used, evicting the least recently
    /// used entry when full, and bumps `evictions` accordingly.
    ///
    /// Two threads can miss the same tier concurrently and both compute it
    /// (combining happens outside the cache lock on purpose); whichever
    /// insert lands second adopts the already-cached entry, so every caller
    /// ends up sharing one allocation. Returns the entry to serve.
    pub fn insert(&self, tier: Arc<ShrunkTier>, evictions: &Counter) -> Arc<ShrunkTier> {
        let mut tiers = self.tiers.lock();
        if let Some(idx) = tiers.iter().position(|(t, _)| t == &tier.segments) {
            tiers[..=idx].rotate_right(1);
            return Arc::clone(&tiers[0].1);
        }
        if tiers.len() == self.capacity {
            tiers.pop();
            evictions.bump();
        }
        tiers.insert(0, (tier.segments, Arc::clone(&tier)));
        tier
    }

    /// Number of currently cached tiers.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.tiers.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(segments: u64) -> Arc<ShrunkTier> {
        Arc::new(ShrunkTier {
            segments,
            metadata: RecoilMetadata {
                ways: 1,
                quant_bits: 11,
                num_symbols: 10,
                num_words: 10,
                splits: vec![],
            },
            metadata_bytes: vec![0; segments as usize],
        })
    }

    #[test]
    fn lru_evicts_least_recently_served() {
        let evictions = Counter::new();
        let cache = TierCache::new(2);
        cache.insert(tier(1), &evictions);
        cache.insert(tier(2), &evictions);
        assert!(cache.get(1).is_some()); // 1 is now MRU
        cache.insert(tier(3), &evictions); // evicts 2
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(evictions.get(), 1);
    }

    #[test]
    fn racing_inserts_converge_on_one_entry() {
        let evictions = Counter::new();
        let cache = TierCache::new(4);
        let first = cache.insert(tier(7), &evictions);
        let second = cache.insert(tier(7), &evictions);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        assert_eq!(evictions.get(), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let evictions = Counter::new();
        let cache = TierCache::new(0);
        cache.insert(tier(1), &evictions);
        assert!(cache.get(1).is_some());
        cache.insert(tier(2), &evictions);
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some());
    }
}
