//! The wire workloads: loopback `NetServer` nodes, the three client fetch
//! paths, and the closed loops of fetch_large and fetch_small.

use crate::measure::{Clock, Trace};
use crate::ops::{report_failure, Kind, OpRecord};
use crate::workload::{self, FetchOp, Path, SmallOp};
use recoil::fabric::{FabricRouter, RouterConfig};
use recoil::net::{NetClient, NetClientConfig, NetConfig, NetServer, NetServerHandle};
use recoil::prelude::AutoBackend;
use recoil::server::{ContentServer, StoredContent};
use recoil::telemetry::TelemetryLevel;
use recoil::RecoilError;
use std::sync::Arc;

pub fn item_name(i: usize) -> String {
    format!("item{i}")
}

/// A loopback node: dispatch workers sized to the machine, telemetry at
/// `level`.
pub fn bind_node(level: TelemetryLevel, nproc: usize) -> Result<NetServerHandle, RecoilError> {
    NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            workers: nproc,
            telemetry: level,
            ..NetConfig::default()
        },
    )
}

pub fn client_config(level: TelemetryLevel) -> NetClientConfig {
    NetClientConfig {
        telemetry: level,
        ..NetClientConfig::default()
    }
}

/// One fetch on `path`, verified against `expected` outside the timed
/// span. With a trace, records the op's root span and the spans of the
/// public calls inside it.
pub fn fetch_once(
    client: &NetClient,
    router: Option<&FabricRouter>,
    op: FetchOp,
    expected: &[u8],
    clock: &Clock,
    trace: Option<&mut Trace>,
) -> OpRecord {
    let name = item_name(op.item);
    let mut rec = OpRecord::new(Kind::Fetch);
    let t0 = clock.now();
    let outcome: Result<Vec<u8>, RecoilError> = match op.path {
        Path::Buffered => client.request(&name, op.cap).and_then(|content| {
            let t1 = clock.now();
            let decoded = content.decode_with(client.backend());
            let t2 = clock.now();
            rec.latency_ns = t2 - t0;
            rec.decode = Some((content.segments, t2 - t1));
            if let Some(t) = trace {
                let root = t.push("fetch.buffered", None, t0, t2);
                t.push("net.request", Some(root), t0, t1);
                t.push("net.decode", Some(root), t1, t2);
            }
            decoded
        }),
        Path::Streaming => client.fetch_and_decode_streaming(&name, op.cap).map(|s| {
            let t1 = clock.now();
            rec.latency_ns = t1 - t0;
            rec.ttfs_ns = Some(s.first_segment_nanos);
            // The client times its own pipeline from the request write;
            // its transfer and total become child spans of the op.
            if let Some(t) = trace {
                let root = t.push("fetch.streaming", None, t0, t1);
                let stream = t.push("net.stream", Some(root), t0, (t0 + s.total_nanos).min(t1));
                t.push(
                    "net.transfer",
                    Some(stream),
                    t0,
                    (t0 + s.transfer_nanos).min(t1),
                );
            }
            s.data
        }),
        Path::Routed => router
            .expect("routed fetches need a router")
            .fetch(&name, op.cap)
            .map(|f| {
                let t1 = clock.now();
                rec.latency_ns = t1 - t0;
                rec.ttfs_ns = Some(f.first_segment_nanos);
                rec.failovers = f.failovers;
                if let Some(t) = trace {
                    let root = t.push("fetch.routed", None, t0, t1);
                    t.push(
                        "fabric.stream",
                        Some(root),
                        t0,
                        (t0 + f.total_nanos).min(t1),
                    );
                }
                f.data
            }),
    };
    match outcome {
        Ok(data) if data == expected => {
            rec.ok = true;
            rec.bytes = data.len() as u64;
        }
        Ok(_) => report_failure(
            op.path.name(),
            &format!("{name} decoded to different bytes"),
        ),
        Err(e) => report_failure(op.path.name(), &e),
    }
    rec
}

/// Two nodes holding the same items, a client on node A, and a router
/// over both: what fetch_large measures, and what the traced runs of the
/// other workloads probe the wire layers with.
pub struct Fabric {
    pub a: NetServerHandle,
    pub b: NetServerHandle,
    pub client: NetClient,
    pub router: FabricRouter,
    pub stored: Vec<Arc<StoredContent>>,
    /// Set-up fetches, verified.
    pub warm: Vec<OpRecord>,
}

impl Fabric {
    /// Binds both nodes, publishes every item to each over the wire, and
    /// warms both tier caches by fetching every item at every capacity in
    /// `tiers` on every path.
    pub fn setup(
        level: TelemetryLevel,
        items: &[Vec<u8>],
        tiers: &[u64],
        nproc: usize,
        clock: &Clock,
    ) -> Result<Self, RecoilError> {
        let a = bind_node(level, nproc)?;
        let b = bind_node(level, nproc)?;
        let config = workload::encoder_config();
        for node in [&a, &b] {
            let publisher = NetClient::connect_with(node.addr(), client_config(level))?;
            for (i, data) in items.iter().enumerate() {
                publisher.publish(&item_name(i), data, &config)?;
            }
        }
        let client = NetClient::connect_with(a.addr(), client_config(level))?;
        let router = FabricRouter::connect(
            &[a.addr(), b.addr()],
            RouterConfig {
                // Replica promotion off: no re-publish lands in the loop.
                rebalance_interval: 0,
                client: client_config(level),
                telemetry: level,
                ..RouterConfig::default()
            },
        )?;
        let mut warm = Vec::new();
        for (item, data) in items.iter().enumerate() {
            for &cap in tiers {
                for path in Path::ALL {
                    let op = FetchOp { item, cap, path };
                    warm.push(fetch_once(&client, Some(&router), op, data, clock, None));
                }
            }
        }
        let stored = (0..items.len())
            .map(|i| {
                a.content()
                    .get(&item_name(i))
                    .ok_or_else(|| RecoilError::NotFound { name: item_name(i) })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            a,
            b,
            client,
            router,
            stored,
            warm,
        })
    }

    /// Wire `STATS` requests served by both nodes.
    pub fn served(&self) -> Result<u64, RecoilError> {
        Ok(self.client.stats()?.stats.requests + self.router.node_stats(1)?.stats.requests)
    }

    pub fn shutdown(self) {
        drop(self.router);
        drop(self.client);
        self.a.shutdown();
        self.b.shutdown();
    }
}

/// fetch_large's closed loop: one client draws fetches from its seeded
/// plan until `deadline_ns`, and every [`workload::LARGE_PUBLISH_EVERY`]-th
/// op publishes a copy of an item to node A under a fresh name. The copy
/// must encode to the stored stream; it is removed again (in process,
/// after the check) so the store keeps its size.
pub fn run_large(
    fabric: &Fabric,
    items: &[Vec<u8>],
    seed: u64,
    deadline_ns: u64,
    clock: &Clock,
    mut trace: Option<&mut Trace>,
) -> Vec<OpRecord> {
    let mut rng = workload::client_rng(seed, 0);
    let config = workload::encoder_config();
    let mut out = Vec::new();
    while clock.now() < deadline_ns {
        let n = out.len();
        if n % workload::LARGE_PUBLISH_EVERY == workload::LARGE_PUBLISH_EVERY - 1 {
            let item = n / workload::LARGE_PUBLISH_EVERY % items.len();
            let name = format!("fresh-{n}");
            let mut rec = OpRecord::new(Kind::Publish);
            let t0 = clock.now();
            let result = fabric.client.publish(&name, &items[item], &config);
            let t1 = clock.now();
            let stored = fabric.a.content().get(&name);
            match (result, stored) {
                (Ok(_), Some(copy)) if copy.stream == fabric.stored[item].stream => {
                    rec.ok = true;
                    rec.latency_ns = t1 - t0;
                    rec.bytes = items[item].len() as u64;
                }
                (Err(e), _) => report_failure("publish", &e),
                _ => report_failure("publish", &format!("{name} stored a different stream")),
            }
            if let Some(t) = trace.as_deref_mut() {
                t.push("publish.wire", None, t0, t1);
            }
            fabric.a.content().unpublish(&name);
            out.push(rec);
            continue;
        }
        let op = workload::large_op(&mut rng, items.len());
        out.push(fetch_once(
            &fabric.client,
            Some(&fabric.router),
            op,
            &items[op.item],
            clock,
            trace.as_deref_mut(),
        ));
    }
    out
}

/// Round-robin over the three paths at capacity `cap` until `deadline_ns`
/// (and at least `min_rounds` rounds): the wire-layer probe of traced runs
/// whose own loop does not take every path.
pub fn run_paths(
    fabric: &Fabric,
    items: &[Vec<u8>],
    cap: u64,
    min_rounds: usize,
    deadline_ns: u64,
    clock: &Clock,
    trace: &mut Trace,
) -> Vec<OpRecord> {
    let mut out = Vec::new();
    let mut round = 0;
    while round < min_rounds || clock.now() < deadline_ns {
        for path in Path::ALL {
            let item = round % items.len();
            let op = FetchOp { item, cap, path };
            out.push(fetch_once(
                &fabric.client,
                Some(&fabric.router),
                op,
                &items[item],
                clock,
                Some(trace),
            ));
        }
        round += 1;
    }
    out
}

/// One node holding fetch_small's items and one single-connection,
/// single-thread client per core.
pub struct Small {
    pub node: NetServerHandle,
    pub clients: Vec<NetClient>,
    pub stored: Vec<Arc<StoredContent>>,
    pub warm: Vec<OpRecord>,
}

impl Small {
    pub fn setup(
        level: TelemetryLevel,
        items: &[Vec<u8>],
        nproc: usize,
        clock: &Clock,
    ) -> Result<Self, RecoilError> {
        let node = bind_node(level, nproc)?;
        let config = workload::encoder_config();
        let publisher = NetClient::connect_with(node.addr(), client_config(level))?;
        for (i, data) in items.iter().enumerate() {
            publisher.publish(&item_name(i), data, &config)?;
        }
        // Each client decodes on its own thread: `nproc` clients then use
        // `nproc` cores, instead of `nproc` thread pools of `nproc` threads
        // contending for them.
        let clients = (0..nproc)
            .map(|_| {
                NetClient::connect_with(
                    node.addr(),
                    NetClientConfig {
                        max_pool: 1,
                        ..client_config(level)
                    },
                )
                .map(|c| c.with_backend(AutoBackend::new()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Every item decodes correctly once before the loop.
        let warm = items
            .iter()
            .enumerate()
            .map(|(item, data)| {
                let op = FetchOp {
                    item,
                    cap: 1 + (item as u64 % 64),
                    path: Path::Buffered,
                };
                fetch_once(&clients[item % nproc], None, op, data, clock, None)
            })
            .collect();
        let stored = (0..items.len())
            .map(|i| {
                node.content()
                    .get(&item_name(i))
                    .ok_or_else(|| RecoilError::NotFound { name: item_name(i) })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            node,
            clients,
            stored,
            warm,
        })
    }

    /// Wire `STATS` requests served by the node.
    pub fn served(&self) -> Result<u64, RecoilError> {
        Ok(self.clients[0].stats()?.stats.requests)
    }

    pub fn shutdown(self) {
        drop(self.clients);
        self.node.shutdown();
    }
}

/// fetch_small's closed loop: one thread per client, each drawing from
/// its own seeded plan until `deadline_ns`; client 0 also publishes, cycling
/// through `fresh`. Fresh publishes are removed again (in process, outside
/// the timed span) so the store stays the size the workload defines.
pub fn run_small(
    small: &Small,
    items: &[Vec<u8>],
    fresh: &[Vec<u8>],
    seed: u64,
    deadline_ns: u64,
    clock: &Clock,
    traced: bool,
) -> (Vec<OpRecord>, Trace) {
    let config = workload::encoder_config();
    let per_client: Vec<(Vec<OpRecord>, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = small
            .clients
            .iter()
            .enumerate()
            .map(|(c, client)| {
                let config = &config;
                s.spawn(move || {
                    let mut rng = workload::client_rng(seed, c);
                    let mut trace = Trace::default();
                    let mut out = Vec::new();
                    let mut published = 0usize;
                    while clock.now() < deadline_ns {
                        match workload::small_op(&mut rng, items.len(), c == 0) {
                            SmallOp::Publish => {
                                let name = format!("fresh-{published}");
                                let data = &fresh[published % fresh.len()];
                                published += 1;
                                let mut rec = OpRecord::new(Kind::Publish);
                                let t0 = clock.now();
                                let result = client.publish(&name, data, config);
                                let t1 = clock.now();
                                match result {
                                    Ok(_) => {
                                        rec.ok = true;
                                        rec.latency_ns = t1 - t0;
                                        rec.bytes = data.len() as u64;
                                    }
                                    Err(e) => report_failure("publish", &e),
                                }
                                if traced {
                                    trace.push("publish.wire", None, t0, t1);
                                }
                                small.node.content().unpublish(&name);
                                out.push(rec);
                            }
                            SmallOp::Fetch(op) => {
                                let t = traced.then_some(&mut trace);
                                out.push(fetch_once(client, None, op, &items[op.item], clock, t));
                            }
                        }
                    }
                    (out, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a fetch_small client thread panicked"))
            .collect()
    });
    let mut records = Vec::new();
    let mut trace = Trace::default();
    for (r, t) in per_client {
        records.extend(r);
        trace.append(t);
    }
    (records, trace)
}
