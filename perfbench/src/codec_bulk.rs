//! codec_bulk: in process, no sockets. One large payload, published
//! through `ContentServer` and decoded through `Codec` at capacity 1 and
//! at capacity `nproc`.

use crate::measure::{Clock, Trace};
use crate::ops::{report_failure, Kind, OpRecord};
use crate::workload::{self, BulkOp};
use recoil::core::{combine_splits, RecoilContainer};
use recoil::prelude::AutoBackend;
use recoil::server::{ContentServer, StoredContent};
use recoil::{Codec, Encoded, RecoilError};
use std::sync::Arc;

pub const NAME: &str = "bulk";

/// The published payload and, per capacity, its `Encoded` form with the
/// metadata combined to that many segments and a backend with that many
/// threads.
pub struct Bulk {
    pub server: ContentServer,
    pub codec: Codec,
    pub stored: Arc<StoredContent>,
    decoders: Vec<(u64, Encoded, AutoBackend)>,
    out: Vec<u8>,
    pub warm: Vec<OpRecord>,
}

impl Bulk {
    pub fn setup(payload: &[u8], nproc: u64, clock: &Clock) -> Result<Self, RecoilError> {
        let config = workload::encoder_config();
        let server = ContentServer::new();
        let stored = server.publish(NAME, payload, &config)?;
        let decoders = [1, nproc]
            .into_iter()
            .map(|cap| {
                let encoded = Encoded {
                    container: RecoilContainer {
                        stream: (*stored.stream).clone(),
                        metadata: combine_splits(&stored.metadata, cap),
                    },
                    model: (*stored.model).clone(),
                    symbol_bits: 8,
                };
                (cap, encoded, AutoBackend::with_threads(cap as usize))
            })
            .collect();
        let mut bulk = Self {
            server,
            codec: Codec::from_config(config)?,
            stored,
            decoders,
            out: vec![0; payload.len()],
            warm: Vec::new(),
        };
        for cap in [1, nproc] {
            let rec = bulk.op(BulkOp::Decode { cap }, payload, nproc, clock, None);
            bulk.warm.push(rec);
        }
        Ok(bulk)
    }

    /// Runs one op and verifies its output outside the timed span.
    pub fn op(
        &mut self,
        op: BulkOp,
        payload: &[u8],
        nproc: u64,
        clock: &Clock,
        trace: Option<&mut Trace>,
    ) -> OpRecord {
        match op {
            BulkOp::Publish => {
                let mut rec = OpRecord::new(Kind::Publish);
                self.server.unpublish(NAME);
                let t0 = clock.now();
                let result = self
                    .server
                    .publish(NAME, payload, &workload::encoder_config());
                let t1 = clock.now();
                match result {
                    Ok(stored) if stored.stream == self.stored.stream => {
                        rec.ok = true;
                        rec.latency_ns = t1 - t0;
                        rec.bytes = payload.len() as u64;
                    }
                    Ok(_) => report_failure("publish", &"republished stream differs"),
                    Err(e) => report_failure("publish", &e),
                }
                if let Some(t) = trace {
                    t.push("codec.publish", None, t0, t1);
                }
                rec
            }
            BulkOp::Decode { cap } => {
                let kind = if cap == nproc {
                    Kind::Fetch
                } else {
                    Kind::Decode
                };
                let mut rec = OpRecord::new(kind);
                let (_, encoded, backend) = self
                    .decoders
                    .iter()
                    .find(|(c, _, _)| *c == cap)
                    .expect("a decoder per planned capacity");
                // Stale output from the previous op must not pass the check.
                self.out.fill(0);
                let t0 = clock.now();
                let result = self.codec.decode_with_into(backend, encoded, &mut self.out);
                let t1 = clock.now();
                match result {
                    Ok(()) if self.out == payload => {
                        rec.ok = true;
                        rec.latency_ns = t1 - t0;
                        rec.decode = Some((encoded.container.metadata.num_segments(), t1 - t0));
                        rec.bytes = payload.len() as u64;
                    }
                    Ok(()) => report_failure("decode", &"decoded bytes differ"),
                    Err(e) => report_failure("decode", &e),
                }
                if let Some(t) = trace {
                    t.push("codec.decode", None, t0, t1);
                }
                rec
            }
        }
    }
}

/// The closed loop: ops from the seeded plan until `deadline_ns`.
pub fn run(
    bulk: &mut Bulk,
    payload: &[u8],
    seed: u64,
    nproc: u64,
    deadline_ns: u64,
    clock: &Clock,
    mut trace: Option<&mut Trace>,
) -> Vec<OpRecord> {
    let mut plan = workload::BulkPlan::new(workload::client_rng(seed, 0), nproc);
    let mut out = Vec::new();
    while clock.now() < deadline_ns {
        out.push(bulk.op(plan.next_op(), payload, nproc, clock, trace.as_deref_mut()));
    }
    out
}
