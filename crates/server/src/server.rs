//! The encode-once, combine-per-request server.

use crate::cache::{ShrunkTier, TierCache};
use crate::stats::ServerStats;
use parking_lot::{Mutex, RwLock};
use recoil_core::codec::{Codec, EncoderConfig};
use recoil_core::{
    metadata_to_bytes, try_combine_splits, update_crc32, RecoilContainer, RecoilError,
    RecoilMetadata,
};
use recoil_models::StaticModelProvider;
use recoil_parallel::ThreadPool;
use recoil_rans::EncodedStream;
use recoil_telemetry::Telemetry;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One published content item: the Large-variation artifact.
#[derive(Debug)]
pub struct StoredContent {
    /// The single encoded bitstream (shared by every response).
    pub stream: Arc<EncodedStream>,
    /// Full metadata at maximum supported parallelism.
    pub metadata: RecoilMetadata,
    /// The static model clients decode with (transmitted out of band; its
    /// size is identical across variations so the paper's size tables
    /// exclude it).
    pub model: Arc<StaticModelProvider>,
    /// Shrunk-metadata tiers this item has served (LRU).
    cache: TierCache,
    /// Memoized CRC-32 of the wire payload (every word's LE bytes); see
    /// [`StoredContent::payload_crc32`].
    payload_crc: OnceLock<u32>,
    /// Requests served for this item (any tier, hit or miss) — the
    /// per-name popularity signal hot-key promotion reads through
    /// [`ContentServer::hit_counts`].
    hits: std::sync::atomic::AtomicU64,
}

impl StoredContent {
    /// The maximum parallelism this item was encoded for; requests beyond
    /// it are clamped to this tier.
    pub fn max_segments(&self) -> u64 {
        self.metadata.num_segments()
    }

    /// CRC-32 over the item's whole wire payload: every bitstream word's
    /// little-endian bytes, in stream order.
    ///
    /// The word stream is shared by every metadata tier, so this value is
    /// identical for every response of the item — it is computed once on
    /// first use and memoized, taking a full-stream checksum off every
    /// transport request's critical path.
    pub fn payload_crc32(&self) -> u32 {
        *self.payload_crc.get_or_init(|| {
            let mut state = 0xFFFF_FFFFu32;
            let mut scratch = [0u8; 4096];
            for block in self.stream.words.chunks(scratch.len() / 2) {
                for (bytes, &w) in scratch.chunks_exact_mut(2).zip(block) {
                    bytes.copy_from_slice(&w.to_le_bytes());
                }
                state = update_crc32(state, &scratch[..block.len() * 2]);
            }
            state ^ 0xFFFF_FFFF
        })
    }

    /// Requests served for this item so far (any tier, cached or combined).
    pub fn hit_count(&self) -> u64 {
        self.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Counts one served request; returns the prior count.
    fn note_hit(&self) -> u64 {
        self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }
}

/// What the server puts on the wire for one request.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Shared bitstream payload bytes.
    pub stream_bytes: u64,
    /// The served metadata tier, shared with the item's cache (and with
    /// every other response for the same tier).
    pub tier: Arc<ShrunkTier>,
    /// Wall-clock nanoseconds the real-time combine + serialize took
    /// (zero when the tier came out of the cache).
    pub combine_nanos: u128,
    /// Whether this response was served from the tier cache.
    pub cache_hit: bool,
}

impl Transmission {
    /// Parsed metadata for the client's capability (for in-process clients).
    pub fn metadata(&self) -> &RecoilMetadata {
        &self.tier.metadata
    }

    /// Serialized metadata bytes, what a remote client would wire-parse.
    pub fn metadata_bytes(&self) -> &[u8] {
        &self.tier.metadata_bytes
    }

    /// Total bytes transferred for this response.
    pub fn total_bytes(&self) -> u64 {
        self.stream_bytes + self.tier.metadata_bytes.len() as u64
    }
}

/// RAII claim on a name in [`ContentServer`]'s in-flight publish set; the
/// drop releases the name on every exit path, so a failed publish (bad
/// config, unsupported symbol) frees it for retry.
struct InflightGuard<'a> {
    set: &'a Mutex<HashSet<String>>,
    name: &'a str,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.set.lock().remove(self.name);
    }
}

/// Construction knobs for [`ContentServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Store shards (each an independent `RwLock<HashMap>`); publishes only
    /// write-lock one shard, so reads elsewhere never block. Minimum 1.
    pub shards: usize,
    /// Shrunk-metadata tiers cached per published item (LRU). Minimum 1.
    pub tier_cache_capacity: usize,
    /// Worker threads of the pool backing [`ContentServer::request_batch`]
    /// (the calling thread participates too). The pool is created once per
    /// server and reused by every batch — no per-call thread churn.
    pub batch_workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self {
            shards: 16,
            tier_cache_capacity: 8,
            batch_workers: cpus.saturating_sub(1),
        }
    }
}

/// In-memory content server with decoder-adaptive responses.
///
/// All methods take `&self`: the store is sharded under reader-writer
/// locks, the tier caches and the telemetry registry use interior
/// mutability, so one server instance is shared freely across request
/// threads.
pub struct ContentServer {
    shards: Vec<RwLock<HashMap<String, Arc<StoredContent>>>>,
    /// Names with a publish currently encoding. Claimed before the encode
    /// starts, so a racing duplicate publish fails fast instead of running
    /// the whole (expensive, pooled) encode and losing at the store insert.
    publishing: Mutex<HashSet<String>>,
    /// Persistent pool for [`ContentServer::request_batch`] and the
    /// segment-parallel encode behind [`ContentServer::publish`].
    pool: ThreadPool,
    tier_cache_capacity: usize,
    /// The one metrics registry: [`ContentServer::stats`] renders from it,
    /// a transport shares it (and sets its level) for TELEMETRY.
    telemetry: Arc<Telemetry>,
}

impl Default for ContentServer {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentServer {
    /// Empty server with the default configuration (16 shards, 8 cached
    /// tiers per item, machine-sized batch pool).
    pub fn new() -> Self {
        Self::with_config(ServerConfig::default())
    }

    /// Empty server with explicit sharding/caching/pool sizes.
    pub fn with_config(config: ServerConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            publishing: Mutex::new(HashSet::new()),
            pool: ThreadPool::new(config.batch_workers),
            tier_cache_capacity: config.tier_cache_capacity.max(1),
            telemetry: Arc::new(Telemetry::off()),
        }
    }

    /// Sets this server's registry to the level of `telemetry`; the handle
    /// itself is not kept, so read the instruments through
    /// [`ContentServer::telemetry`]. Equivalent to
    /// `self.telemetry().set_level(telemetry.level())`, which new code
    /// should call instead; this method remains only for the benchmark
    /// harness, which still calls it.
    pub fn attach_telemetry(&self, telemetry: Arc<Telemetry>) {
        self.telemetry.set_level(telemetry.level());
    }

    /// The server's metrics registry, at level `Off` until someone raises
    /// it. STATS reads its serving counters and gauges at every level; a
    /// transport writes its connection instruments into it and serves it
    /// as TELEMETRY.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Tier-cache hit instrumentation for the serving hot loop: at
    /// `Counters` the histogram samples 1-in-32, taking the phase from the
    /// item's prior hit count; at `Trace` every hit records. The exact hit
    /// count is the `cache_hits` counter.
    #[inline]
    fn record_tier_hit(&self, phase: u64, segments: u64) {
        let t = &self.telemetry;
        if t.counters_enabled() && (phase & 31 == 0 || t.trace_enabled()) {
            t.hists.tier_hit_segments.record(segments);
        }
    }

    /// The shard owning `name`.
    fn shard(&self, name: &str) -> &RwLock<HashMap<String, Arc<StoredContent>>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    /// Encodes `data` once under `config` (lane width, split budget,
    /// quantization) and publishes it as `name`. The encode itself is
    /// segment-parallel over the server's pool when the input is large
    /// enough; the stored bytes are identical to a serial encode either way.
    ///
    /// Encoding happens outside any store lock — a slow publish never stalls
    /// requests, not even for other names on the same shard.
    ///
    /// Publishing over an existing name is rejected with
    /// [`RecoilError::AlreadyPublished`] — republishing would silently
    /// invalidate bitstreams clients may still be downloading. Use
    /// [`ContentServer::unpublish`] first to replace content. Two *racing*
    /// publishes of one name are also arbitrated here: the name is claimed
    /// in an in-flight set before any encoding work, so the loser fails
    /// fast instead of burning a full encode it can never store.
    pub fn publish(
        &self,
        name: &str,
        data: &[u8],
        config: &EncoderConfig,
    ) -> Result<Arc<StoredContent>, RecoilError> {
        let taken = || RecoilError::AlreadyPublished {
            name: name.to_string(),
        };
        let _inflight = {
            let mut publishing = self.publishing.lock();
            if self.shard(name).read().contains_key(name) || publishing.contains(name) {
                return Err(taken());
            }
            publishing.insert(name.to_string());
            InflightGuard {
                set: &self.publishing,
                name,
            }
        };
        let codec = Codec::from_config(config.clone())?;
        let t0 = Instant::now();
        let encoded = codec.encode_pooled(data, &self.pool)?;
        let t = &self.telemetry;
        if t.counters_enabled() {
            t.hists
                .encode_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let RecoilContainer { stream, metadata } = encoded.container;
        let content = Arc::new(StoredContent {
            stream: Arc::new(stream),
            metadata,
            model: Arc::new(encoded.model),
            cache: TierCache::new(self.tier_cache_capacity),
            payload_crc: OnceLock::new(),
            hits: std::sync::atomic::AtomicU64::new(0),
        });
        // The shard's write guard must drop before `_inflight`, whose `Drop`
        // locks `publishing`: a concurrent publish holds `publishing` while
        // it reads this shard. Binding the result releases the guard at the
        // end of this statement, not after the locals.
        let inserted = match self.shard(name).write().entry(name.to_string()) {
            // Unreachable while every insert goes through the in-flight
            // claim above; kept as a cheap belt-and-braces re-check.
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(Arc::clone(&content));
                true
            }
        };
        if !inserted {
            return Err(taken());
        }
        t.counters.publishes.bump();
        Ok(content)
    }

    /// Removes published content, returning whether it existed. In-flight
    /// responses keep their `Arc`s; the bitstream outlives the unpublish.
    pub fn unpublish(&self, name: &str) -> bool {
        self.shard(name).write().remove(name).is_some()
    }

    /// Published item lookup.
    pub fn get(&self, name: &str) -> Option<Arc<StoredContent>> {
        self.shard(name).read().get(name).cloned()
    }

    /// Number of published items across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Per-name request tallies across every published item, unsorted.
    /// This is the hot-key signal a replication router polls to decide
    /// which names deserve promotion onto more replicas; each count is
    /// exact (bumped on every served request, cached or combined).
    pub fn hit_counts(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.read();
            out.extend(
                shard
                    .iter()
                    .map(|(name, item)| (name.clone(), item.hit_count())),
            );
        }
        out
    }

    /// Snapshot of the serving counters (cache hits/misses/evictions,
    /// publishes, requests).
    pub fn stats(&self) -> ServerStats {
        ServerStats::read(&self.telemetry)
    }

    /// Threads a [`ContentServer::request_batch`] call fans out over.
    pub fn batch_threads(&self) -> usize {
        self.pool.threads()
    }

    /// Serves `name` for a client that can decode `parallel_segments`
    /// segments in parallel: resolves the capacity to a tier (clamped to
    /// the item's encoded maximum) and serves it from the item's LRU cache,
    /// combining splits in real time only on a miss — never touching the
    /// bitstream either way.
    ///
    /// `parallel_segments` is validated at this API boundary: a request for
    /// zero segments is a malformed client header, reported as
    /// [`RecoilError::InvalidConfig`] rather than silently clamped deep in
    /// the combine path.
    pub fn request(&self, name: &str, parallel_segments: u64) -> Result<Transmission, RecoilError> {
        self.fetch(name, parallel_segments).map(|(t, _)| t)
    }

    /// Like [`ContentServer::request`], but also returns the
    /// [`StoredContent`] handle the transmission was served from — in **one
    /// atomic lookup**.
    ///
    /// `request` followed by a separate [`ContentServer::get`] is a TOCTOU
    /// hazard: a concurrent [`ContentServer::unpublish`] between the two
    /// calls hands the caller a `Transmission` with no content to decode
    /// against. `fetch` resolves the name exactly once; the returned `Arc`s
    /// stay valid however the store changes afterwards.
    pub fn fetch(
        &self,
        name: &str,
        parallel_segments: u64,
    ) -> Result<(Transmission, Arc<StoredContent>), RecoilError> {
        self.telemetry.counters.requests.bump();
        if parallel_segments == 0 {
            return Err(RecoilError::config(
                "parallel_segments",
                "a client must request at least one decode segment",
            ));
        }
        let item = self.get(name).ok_or_else(|| RecoilError::NotFound {
            name: name.to_string(),
        })?;
        let transmission = self.serve_item(&item, parallel_segments)?;
        Ok((transmission, item))
    }

    /// The cache-hit-only half of [`ContentServer::fetch`], for callers
    /// that must not block: `Ok(Some(..))` is a fully served response,
    /// `Ok(None)` means the tier is not cached and serving it would run a
    /// real-time combine — the caller should then run [`ContentServer::fetch`]
    /// somewhere it may take its time (e.g. a dispatch worker).
    ///
    /// Counters stay exact across the two-call flow: this method bumps
    /// `requests` (and `cache_hits`/`bytes_served`) only on terminal paths
    /// (hit or error). On `Ok(None)` nothing is counted — the follow-up
    /// `fetch` then counts the request and its miss, so
    /// `cache_hits + cache_misses` still equals successfully served
    /// requests.
    pub fn fetch_cached(
        &self,
        name: &str,
        parallel_segments: u64,
    ) -> Result<Option<(Transmission, Arc<StoredContent>)>, RecoilError> {
        let c = &self.telemetry.counters;
        if parallel_segments == 0 {
            c.requests.bump();
            return Err(RecoilError::config(
                "parallel_segments",
                "a client must request at least one decode segment",
            ));
        }
        let Some(item) = self.get(name) else {
            c.requests.bump();
            return Err(RecoilError::NotFound {
                name: name.to_string(),
            });
        };
        let segments = parallel_segments.min(item.max_segments());
        let Some(tier) = item.cache.get(segments) else {
            return Ok(None);
        };
        c.requests.bump();
        c.cache_hits.bump();
        self.record_tier_hit(item.note_hit(), segments);
        let transmission = Transmission {
            stream_bytes: item.stream.payload_bytes(),
            tier,
            combine_nanos: 0,
            cache_hit: true,
        };
        c.bytes_served.add(transmission.total_bytes());
        Ok(Some((transmission, item)))
    }

    /// Serves one tier from an already-resolved item (the tail of `fetch`).
    fn serve_item(
        &self,
        item: &Arc<StoredContent>,
        parallel_segments: u64,
    ) -> Result<Transmission, RecoilError> {
        let stream_bytes = item.stream.payload_bytes();
        let phase = item.note_hit();
        let t = &self.telemetry;
        // Cache by the tier actually served: a request beyond capacity and
        // an exact maximum-capacity request share one entry.
        let segments = parallel_segments.min(item.max_segments());
        if let Some(tier) = item.cache.get(segments) {
            t.counters.cache_hits.bump();
            self.record_tier_hit(phase, segments);
            let transmission = Transmission {
                stream_bytes,
                tier,
                combine_nanos: 0,
                cache_hit: true,
            };
            t.counters.bytes_served.add(transmission.total_bytes());
            return Ok(transmission);
        }
        let t0 = Instant::now();
        let metadata = try_combine_splits(&item.metadata, segments)?;
        let metadata_bytes = metadata_to_bytes(&metadata);
        let combine_nanos = t0.elapsed().as_nanos();
        // Counted only after the combine succeeds, keeping
        // `cache_hits + cache_misses` equal to successfully served requests
        // even if stored metadata ever fails validation.
        t.counters.cache_misses.bump();
        if t.counters_enabled() {
            t.hists.tier_miss_segments.record(segments);
            t.hists
                .combine_ns
                .record(u64::try_from(combine_nanos).unwrap_or(u64::MAX));
        }
        let tier = item.cache.insert(
            Arc::new(ShrunkTier {
                segments,
                metadata,
                metadata_bytes,
            }),
            &t.counters.cache_evictions,
        );
        let transmission = Transmission {
            stream_bytes,
            tier,
            combine_nanos,
            cache_hit: false,
        };
        t.counters.bytes_served.add(transmission.total_bytes());
        Ok(transmission)
    }

    /// Resolves many `(name, capacity)` pairs concurrently over the
    /// server's persistent thread pool, returning one result per request in
    /// input order. Failures are per-entry — one unknown name does not poison
    /// the batch.
    pub fn request_batch<N: AsRef<str> + Sync>(
        &self,
        requests: &[(N, u64)],
    ) -> Vec<Result<Transmission, RecoilError>> {
        let slots: Vec<Mutex<Option<Result<Transmission, RecoilError>>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        self.pool.run(requests.len(), |i| {
            let (name, capacity) = &requests[i];
            *slots[i].lock() = Some(self.request(name.as_ref(), *capacity));
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("pool fills every batch slot"))
            .collect()
    }
}

impl std::fmt::Debug for ContentServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentServer")
            .field("items", &self.len())
            .field("shards", &self.shards.len())
            .field("tier_cache_capacity", &self.tier_cache_capacity)
            .field("batch_threads", &self.pool.threads())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sample(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect()
    }

    fn config(max_segments: u64) -> EncoderConfig {
        EncoderConfig {
            max_segments,
            ..EncoderConfig::default()
        }
    }

    /// Small server config so tests don't spin up machine-sized pools.
    fn small_server() -> ContentServer {
        ContentServer::with_config(ServerConfig {
            shards: 4,
            tier_cache_capacity: 8,
            batch_workers: 3,
        })
    }

    #[test]
    fn publish_then_request_scales_metadata() {
        let data = sample(400_000);
        let server = small_server();
        server.publish("movie", &data, &config(128)).unwrap();
        let big = server.request("movie", 128).unwrap();
        let small = server.request("movie", 4).unwrap();
        assert_eq!(big.stream_bytes, small.stream_bytes, "bitstream is shared");
        assert!(big.metadata_bytes().len() > 10 * small.metadata_bytes().len());
        assert_eq!(small.metadata().num_segments(), 4);
    }

    #[test]
    fn request_beyond_capacity_serves_max_and_shares_cache_tier() {
        let data = sample(100_000);
        let server = small_server();
        server.publish("x", &data, &config(16)).unwrap();
        let t = server.request("x", 10_000).unwrap();
        assert_eq!(t.metadata().num_segments(), 16);
        assert!(!t.cache_hit);
        // The cache key is the post-clamp tier: an exact 16-segment request
        // (and another absurd one) hit the same entry, no re-shrink.
        let exact = server.request("x", 16).unwrap();
        let huge = server.request("x", u64::MAX).unwrap();
        assert!(exact.cache_hit && huge.cache_hit);
        assert!(Arc::ptr_eq(&t.tier, &exact.tier));
        assert!(Arc::ptr_eq(&t.tier, &huge.tier));
        let s = server.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (2, 1));
    }

    #[test]
    fn repeated_capacity_hits_the_lru() {
        let data = sample(200_000);
        let server = small_server();
        server.publish("movie", &data, &config(64)).unwrap();
        let first = server.request("movie", 8).unwrap();
        assert!(!first.cache_hit);
        assert!(first.combine_nanos > 0);
        let second = server.request("movie", 8).unwrap();
        assert!(second.cache_hit, "repeated capacity must hit the LRU");
        assert_eq!(second.combine_nanos, 0, "no re-shrink on a hit");
        assert!(Arc::ptr_eq(&first.tier, &second.tier), "tiers are shared");
        let s = server.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.requests, 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_counts_track_per_name_popularity() {
        let server = small_server();
        server.publish("hot", &sample(60_000), &config(8)).unwrap();
        server.publish("cold", &sample(60_000), &config(8)).unwrap();
        for _ in 0..5 {
            server.request("hot", 4).unwrap();
        }
        server.request("cold", 4).unwrap();
        // A failed lookup counts nothing.
        assert!(server.request("missing", 4).is_err());
        let mut counts = server.hit_counts();
        counts.sort();
        assert_eq!(counts, vec![("cold".into(), 1), ("hot".into(), 5)]);
        // fetch_cached hit paths count too.
        server.fetch_cached("hot", 4).unwrap().unwrap();
        assert_eq!(server.get("hot").unwrap().hit_count(), 6);
    }

    #[test]
    fn tier_cache_evicts_and_counts() {
        let data = sample(150_000);
        let server = ContentServer::with_config(ServerConfig {
            shards: 2,
            tier_cache_capacity: 2,
            batch_workers: 0,
        });
        server.publish("x", &data, &config(64)).unwrap();
        for tier in [2u64, 4, 8, 16] {
            server.request("x", tier).unwrap();
        }
        let s = server.stats();
        assert_eq!(s.cache_misses, 4);
        assert_eq!(s.cache_evictions, 2, "capacity 2, four distinct tiers");
        // Tier 2 was evicted; re-requesting it is a miss again.
        let again = server.request("x", 2).unwrap();
        assert!(!again.cache_hit);
    }

    #[test]
    fn duplicate_publish_is_rejected_and_preserves_original() {
        let data = sample(50_000);
        let server = small_server();
        server.publish("x", &data, &config(16)).unwrap();
        let before = server.get("x").unwrap().metadata.num_segments();
        let err = match server.publish("x", &data, &config(4)) {
            Err(e) => e,
            Ok(_) => panic!("duplicate publish must be rejected"),
        };
        assert!(matches!(err, RecoilError::AlreadyPublished { ref name } if name == "x"));
        assert_eq!(server.get("x").unwrap().metadata.num_segments(), before);
        assert_eq!(server.stats().publishes, 1, "failed publish not counted");
        // After unpublishing, the name is free again.
        assert!(server.unpublish("x"));
        server.publish("x", &data, &config(4)).unwrap();
        assert_eq!(server.len(), 1);
    }

    #[test]
    fn concurrent_publishes_on_one_shard_do_not_deadlock() {
        // Regression: `publish` used to end in a `match` on the shard's
        // write guard. As a tail-expression temporary that guard outlived
        // the in-flight guard, whose `Drop` locks `publishing`, while a
        // second publish held `publishing` and waited to read the same
        // shard. A watchdog turns the hang into a failure.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 300;
        let server = Arc::new(ContentServer::with_config(ServerConfig {
            shards: 1,
            tier_cache_capacity: 2,
            batch_workers: 0,
        }));
        let data: Arc<[u8]> = sample(256).into();
        let (done, finished) = std::sync::mpsc::channel();
        for t in 0..THREADS {
            let (server, data, done) = (Arc::clone(&server), Arc::clone(&data), done.clone());
            std::thread::spawn(move || {
                let published = (0..PER_THREAD).all(|i| {
                    server
                        .publish(&format!("item-{t}-{i}"), &data, &config(1))
                        .is_ok()
                });
                done.send(published).ok();
            });
        }
        for _ in 0..THREADS {
            let published = finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("concurrent publishes deadlocked");
            assert!(published, "a publish failed");
        }
        assert_eq!(server.len(), THREADS * PER_THREAD);
    }

    #[test]
    fn racing_same_name_publishes_run_exactly_one_encode() {
        // Regression: the old fast-fail read the store *before* encoding,
        // so two concurrent publishes of one name could both pass it, both
        // run the expensive encode, and one would lose only at the final
        // store insert. The in-flight claim makes the loser fail before
        // encoding — observable as exactly one encode_ns sample.
        let data = sample(600_000);
        let server = small_server();
        server
            .telemetry()
            .set_level(recoil_telemetry::TelemetryLevel::Counters);
        let barrier = std::sync::Barrier::new(2);
        let outcomes: Vec<Result<_, _>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (server, data, barrier) = (&server, &data, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        server.publish("contested", data, &config(32))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let oks = outcomes.iter().filter(|r| r.is_ok()).count();
        assert_eq!(oks, 1, "exactly one publisher wins");
        assert!(outcomes.iter().any(
            |r| matches!(r, Err(RecoilError::AlreadyPublished { name }) if name == "contested")
        ));
        assert_eq!(
            server
                .telemetry()
                .snapshot()
                .hist("encode_ns")
                .map(|h| h.count),
            Some(1),
            "the losing publish must fail before encoding"
        );
        // The winner's content is served normally.
        assert!(server.request("contested", 4).is_ok());
    }

    #[test]
    fn failed_publish_releases_the_inflight_claim() {
        // An in-flight claim must not leak when the encode errors out, or
        // the name would be poisoned forever.
        let data = sample(10_000);
        let server = small_server();
        let bad = EncoderConfig {
            quant_bits: 0,
            ..EncoderConfig::default()
        };
        assert!(server.publish("x", &data, &bad).is_err());
        server.publish("x", &data, &config(8)).unwrap();
        assert!(server.get("x").is_some());
    }

    #[test]
    fn invalid_publish_config_is_rejected() {
        let data = sample(10_000);
        let server = small_server();
        let bad = EncoderConfig {
            ways: 0,
            ..EncoderConfig::default()
        };
        assert!(matches!(
            server.publish("x", &data, &bad),
            Err(RecoilError::InvalidConfig { field: "ways", .. })
        ));
        assert!(server.get("x").is_none());
        assert!(server.is_empty());
    }

    #[test]
    fn zero_segment_request_is_invalid() {
        let data = sample(10_000);
        let server = small_server();
        server.publish("x", &data, &config(8)).unwrap();
        assert!(matches!(
            server.request("x", 0),
            Err(RecoilError::InvalidConfig {
                field: "parallel_segments",
                ..
            })
        ));
    }

    #[test]
    fn combine_is_real_time() {
        // §3.3: "this process is very lightweight ... can be done in real
        // time by the content delivery server before data transmission".
        let data = sample(2_000_000);
        let server = small_server();
        server.publish("big", &data, &config(2176)).unwrap();
        let t = server.request("big", 16).unwrap();
        assert!(
            t.combine_nanos < 50_000_000,
            "combine took {} ns — not real-time",
            t.combine_nanos
        );
    }

    #[test]
    fn unknown_content_is_not_found() {
        let server = small_server();
        assert!(matches!(
            server.request("nope", 4),
            Err(RecoilError::NotFound { ref name }) if name == "nope"
        ));
    }

    #[test]
    fn request_batch_preserves_order_and_isolates_failures() {
        let data = sample(120_000);
        let server = small_server();
        server.publish("a", &data, &config(32)).unwrap();
        server.publish("b", &data, &config(8)).unwrap();
        let batch = [
            ("a", 4u64),
            ("missing", 4),
            ("b", 1_000),
            ("a", 4),
            ("b", 0),
        ];
        let results = server.request_batch(&batch);
        assert_eq!(results.len(), batch.len());
        assert_eq!(results[0].as_ref().unwrap().metadata().num_segments(), 4);
        assert!(matches!(
            results[1],
            Err(RecoilError::NotFound { ref name }) if name == "missing"
        ));
        assert_eq!(results[2].as_ref().unwrap().metadata().num_segments(), 8);
        assert_eq!(results[3].as_ref().unwrap().metadata().num_segments(), 4);
        assert!(matches!(results[4], Err(RecoilError::InvalidConfig { .. })));
        // ("a", 4) appears twice: one miss, one hit, whatever the order.
        let s = server.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.requests, 5);
    }

    #[test]
    fn fetch_is_atomic_across_unpublish() {
        let data = sample(80_000);
        let server = small_server();
        server.publish("x", &data, &config(16)).unwrap();
        // The returned handles survive an unpublish that lands immediately
        // after — the hazard the two-call request+get flow had.
        let (t, item) = server.fetch("x", 4).unwrap();
        assert!(server.unpublish("x"));
        assert!(server.get("x").is_none(), "name is gone from the store");
        assert_eq!(t.metadata().num_segments(), 4);
        assert_eq!(item.max_segments(), 16);
        assert_eq!(t.stream_bytes, item.stream.payload_bytes());
        // And fetching the now-unpublished name is a clean NotFound.
        assert!(matches!(
            server.fetch("x", 4),
            Err(RecoilError::NotFound { .. })
        ));
    }

    #[test]
    fn bytes_served_and_connection_gauge_are_tracked() {
        let data = sample(90_000);
        let server = small_server();
        server.publish("x", &data, &config(8)).unwrap();
        assert_eq!(server.stats().bytes_served, 0);
        let a = server.request("x", 2).unwrap();
        let b = server.request("x", 8).unwrap();
        let c = server.request("x", 2).unwrap(); // cache hit counts too
        assert!(c.cache_hit);
        assert_eq!(
            server.stats().bytes_served,
            a.total_bytes() + b.total_bytes() + c.total_bytes()
        );
        // Failed requests serve no bytes.
        let before = server.stats().bytes_served;
        assert!(server.request("missing", 2).is_err());
        assert_eq!(server.stats().bytes_served, before);

        // The connection gauge is the registry's, written by a transport.
        assert_eq!(server.stats().active_connections, 0);
        let gauge = &server.telemetry().gauges.active_connections;
        gauge.set(2);
        assert_eq!(server.stats().active_connections, 2);
        gauge.set(0);
        assert_eq!(server.stats().active_connections, 0);
    }

    #[test]
    fn fetch_cached_hits_only_and_keeps_counters_exact() {
        let data = sample(80_000);
        let server = small_server();
        server.publish("x", &data, &config(16)).unwrap();
        // Cold tier: fetch_cached declines without touching any counter.
        assert!(server.fetch_cached("x", 4).unwrap().is_none());
        let s = server.stats();
        assert_eq!((s.requests, s.cache_hits, s.cache_misses), (0, 0, 0));
        // The blocking path serves (and counts) the miss...
        let (via_fetch, _) = server.fetch("x", 4).unwrap();
        // ...after which fetch_cached serves the warm tier.
        let (t, item) = server.fetch_cached("x", 4).unwrap().unwrap();
        assert!(t.cache_hit);
        assert!(Arc::ptr_eq(&t.tier, &via_fetch.tier));
        assert_eq!(item.max_segments(), 16);
        let s = server.stats();
        assert_eq!((s.requests, s.cache_hits, s.cache_misses), (2, 1, 1));
        assert_eq!(
            s.bytes_served,
            via_fetch.total_bytes() + t.total_bytes(),
            "both paths count served bytes"
        );
        // Error paths count the request exactly once.
        assert!(server.fetch_cached("missing", 4).is_err());
        assert!(matches!(
            server.fetch_cached("x", 0),
            Err(RecoilError::InvalidConfig { .. })
        ));
        assert_eq!(server.stats().requests, 4);
    }

    #[test]
    fn payload_crc_is_memoized_and_matches_streaming() {
        let data = sample(70_000);
        let server = small_server();
        let item = server.publish("x", &data, &config(8)).unwrap();
        // Reference: one streaming pass over every word's LE bytes.
        let mut state = 0xFFFF_FFFFu32;
        for &w in &item.stream.words {
            state = recoil_core::update_crc32(state, &w.to_le_bytes());
        }
        let expect = state ^ 0xFFFF_FFFF;
        assert_eq!(item.payload_crc32(), expect);
        // Memoized: the second call returns the same value.
        assert_eq!(item.payload_crc32(), expect);
    }

    #[test]
    fn transport_counters_and_gauges() {
        // A transport writes these into the server's registry; STATS
        // renders them.
        let server = small_server();
        let t = server.telemetry();
        t.counters.rejected_connections.add(2);
        t.counters.evictions.bump();
        t.gauges.queue_depth.set(5);
        t.gauges.open_slots.set(59);
        let s = server.stats();
        assert_eq!(s.rejected_connections, 2);
        assert_eq!(s.evicted_connections, 1);
        assert_eq!(s.queue_depth, 5);
        assert_eq!(s.open_slots, 59);
        // Gauges move both ways.
        t.gauges.queue_depth.set(0);
        assert_eq!(server.stats().queue_depth, 0);
    }

    #[test]
    fn concurrent_publish_and_request_stress() {
        let data = sample(60_000);
        let server = ContentServer::with_config(ServerConfig {
            shards: 8,
            tier_cache_capacity: 4,
            batch_workers: 2,
        });
        for i in 0..3 {
            server
                .publish(&format!("seed{i}"), &data, &config(32))
                .unwrap();
        }
        let ok_count = AtomicU64::new(0);
        let issued = AtomicU64::new(0);
        std::thread::scope(|s| {
            // Publishers: new names (some raced duplicates) mid-traffic.
            for p in 0..2 {
                let server = &server;
                let data = &data;
                s.spawn(move || {
                    for i in 0..3 {
                        // Both publishers try "shared{i}": exactly one wins.
                        let _ = server.publish(&format!("shared{i}"), data, &config(16));
                        server
                            .publish(&format!("pub{p}_{i}"), data, &config(16))
                            .unwrap();
                    }
                });
            }
            // Readers: skewed tier mix across seeded + appearing items.
            for r in 0..4usize {
                let server = &server;
                let ok_count = &ok_count;
                let issued = &issued;
                s.spawn(move || {
                    let tiers = [8u64, 8, 8, 4, 16, 1, 500];
                    for i in 0..120 {
                        let name = match (r + i) % 5 {
                            0 => "seed0".to_string(),
                            1 => "seed1".to_string(),
                            2 => "seed2".to_string(),
                            3 => format!("shared{}", i % 3),
                            _ => format!("pub{}_{}", r % 2, i % 3),
                        };
                        issued.fetch_add(1, Ordering::Relaxed);
                        match server.request(&name, tiers[i % tiers.len()]) {
                            Ok(t) => {
                                assert!(t.metadata().num_segments() <= 32);
                                ok_count.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(RecoilError::NotFound { .. }) => {} // not yet published
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
        });
        let s = server.stats();
        let ok = ok_count.load(Ordering::Relaxed);
        assert_eq!(s.requests, issued.load(Ordering::Relaxed));
        assert_eq!(
            s.cache_hits + s.cache_misses,
            ok,
            "every served request is exactly one hit or one miss"
        );
        assert!(s.cache_hits > 0, "skewed mix must produce hits");
        // 3 seeds + 3 shared (single winner each) + 2×3 per-publisher names.
        assert_eq!(s.publishes, 12);
        assert_eq!(server.len(), 12);
    }
}
