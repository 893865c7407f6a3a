//! Serving-layer observability: the STATS view of the telemetry registry.

use recoil_telemetry::Telemetry;

/// A snapshot of the server's serving counters
/// (see [`crate::ContentServer::stats`]), rendered from its telemetry
/// registry: each field reads one registry instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Successful content publications.
    pub publishes: u64,
    /// Total `request` calls, including ones that returned an error.
    pub requests: u64,
    /// Requests served straight from a content item's tier cache.
    pub cache_hits: u64,
    /// Requests that had to combine (and serialize) metadata on demand.
    pub cache_misses: u64,
    /// Cached tiers dropped to make room for newly served ones.
    pub cache_evictions: u64,
    /// Total response bytes served (bitstream payload + shrunk metadata)
    /// across every successful request, in-process or over a transport.
    pub bytes_served: u64,
    /// Gauge: currently open transport connections (zero for a purely
    /// in-process server).
    pub active_connections: u64,
    /// Connections turned away at accept because the transport was at its
    /// connection capacity.
    pub rejected_connections: u64,
    /// Connections evicted by the transport for missing a progress
    /// deadline (slow-loris peers, stalled writes); the registry's
    /// `evictions` counter.
    pub evicted_connections: u64,
    /// Gauge: requests currently queued for the transport's dispatch
    /// workers (zero for a purely in-process server).
    pub queue_depth: u64,
    /// Gauge: connection slots still open in the transport's slab (zero
    /// for a purely in-process server, which has no slab).
    pub open_slots: u64,
}

impl ServerStats {
    /// Reads the STATS instruments of `t`.
    ///
    /// Instruments are read individually with relaxed ordering: under load
    /// the snapshot is not a single global instant, but each counter is
    /// exact and monotone, and once the server quiesces the arithmetic
    /// invariants hold exactly (`cache_hits + cache_misses` = successfully
    /// served requests).
    pub(crate) fn read(t: &Telemetry) -> Self {
        let (c, g) = (&t.counters, &t.gauges);
        Self {
            publishes: c.publishes.get(),
            requests: c.requests.get(),
            cache_hits: c.cache_hits.get(),
            cache_misses: c.cache_misses.get(),
            cache_evictions: c.cache_evictions.get(),
            bytes_served: c.bytes_served.get(),
            active_connections: g.active_connections.get(),
            rejected_connections: c.rejected_connections.get(),
            evicted_connections: c.evictions.get(),
            queue_depth: g.queue_depth.get(),
            open_slots: g.open_slots.get(),
        }
    }

    /// Fraction of served requests answered from the tier cache
    /// (`0.0` when nothing has been served yet).
    pub fn hit_rate(&self) -> f64 {
        let served = self.cache_hits + self.cache_misses;
        if served == 0 {
            0.0
        } else {
            self.cache_hits as f64 / served as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        assert_eq!(ServerStats::default().hit_rate(), 0.0);
        let s = ServerStats {
            cache_hits: 9,
            cache_misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn snapshot_copies_counters() {
        let t = Telemetry::off();
        let c = &t.counters;
        c.requests.bump();
        c.requests.bump();
        c.cache_hits.bump();
        c.evictions.add(3);
        c.queue_sheds.bump(); // TELEMETRY-only: not a STATS field
        t.gauges.active_connections.set(4);
        let s = ServerStats::read(&t);
        assert_eq!(s.requests, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.evicted_connections, 3);
        assert_eq!(s.active_connections, 4);
        assert_eq!(s.publishes, 0);
        assert_eq!(s.rejected_connections, 0);
    }
}
