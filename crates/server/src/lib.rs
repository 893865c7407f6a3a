//! Content-delivery service (paper §1, §3.3).
//!
//! "We consider the use case where the client requests content, and also
//! attaches its parallel capacity inside the request header; the server
//! receives the request, shrinks down the metadata in real-time, and serves
//! the bitstream and the shrunk metadata to the decoder. No compression
//! rate is wasted to provide unnecessary parallelism."
//!
//! The server encodes each item **once**, at the maximum parallelism it
//! intends to support (the Large variation). Every client request is served
//! from that single artifact: the bitstream bytes never change, only the
//! metadata is filtered.
//!
//! ## Concurrency model
//!
//! [`ContentServer`] is built to be shared across request threads — every
//! method takes `&self`:
//!
//! * the item store is split over `N` shards (default 16), each an
//!   independent `RwLock<HashMap>` keyed by a hash of the content name.
//!   Requests take a shard read lock for the duration of one `HashMap`
//!   lookup; publishing encodes **outside** any lock and write-locks only
//!   the owning shard for the final insert, so a slow publish never stalls
//!   reads — not even of other names on the same shard;
//! * [`ContentServer::request_batch`] resolves many `(name, capacity)`
//!   pairs over one persistent [`recoil_parallel::ThreadPool`] created with
//!   the server and reused for every batch.
//!
//! ## Shrunk-metadata caching and capacity tiers
//!
//! Real-world capacities cluster into a handful of device classes, so each
//! published item carries a small LRU cache (default 8 entries) of the
//! metadata tiers it has actually served: the combined [`RecoilMetadata`]
//! **and** its serialized wire bytes, behind one `Arc` shared by every
//! response.
//!
//! The cache key is the **post-clamp segment count** — the tier actually
//! served, not the capacity the client asked for. Content encoded with 128
//! segments serves a 10 000-segment request and a 128-segment request from
//! the same entry. A hit costs a few relaxed counter adds and an `Arc` clone;
//! only a miss pays the real-time combine + serialize, and its
//! [`Transmission::combine_nanos`] records exactly that cost (hits report
//! zero).
//!
//! ## One metrics registry
//!
//! Each server owns one [`recoil_telemetry::Telemetry`] registry from
//! construction ([`ContentServer::telemetry`], level `Off` until a
//! transport or bench raises it). The serve path counts publishes,
//! requests, tier hits/misses/evictions and bytes served into it at every
//! level; a transport adds its connection counters and gauges.
//! [`ContentServer::stats`] renders the [`ServerStats`] snapshot (the STATS
//! frame) from those instruments, and the TELEMETRY frame snapshots the
//! same registry, so the two views cannot disagree.
//!
//! [`RecoilMetadata`]: recoil_core::RecoilMetadata

// Safe crate: `unsafe` lives only in the audited allowlist (cargo xtask check).
#![forbid(unsafe_code)]

mod cache;
mod client;
mod server;
mod stats;

pub use cache::ShrunkTier;
pub use client::Client;
pub use server::{ContentServer, ServerConfig, StoredContent, Transmission};
pub use stats::ServerStats;
