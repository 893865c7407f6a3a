//! Loopback tests for the TELEMETRY wire frame and the instruments behind
//! it: a real server, a real client, and assertions that the numbers the
//! wire reports match the numbers the server-side handle sees.

use recoil_core::codec::{EncoderConfig, ScalarBackend};
use recoil_net::raw::{read_frame, write_frame, ReadOutcome};
use recoil_net::{
    FrameType, Hello, NetClient, NetClientConfig, NetConfig, NetServer, NetServerHandle,
    StatsReply, TelemetryReply, CAP_CHUNKED, CAP_TELEMETRY, PROTOCOL_VERSION,
};
use recoil_server::ContentServer;
use recoil_telemetry::{Stage, TelemetryLevel};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn sample(len: usize, seed: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| ((i.wrapping_add(seed).wrapping_mul(2654435761)) >> 23) as u8)
        .collect()
}

fn start_server(telemetry: TelemetryLevel) -> NetServerHandle {
    NetServer::bind(
        Arc::new(ContentServer::new()),
        "127.0.0.1:0",
        NetConfig {
            workers: 2,
            read_timeout: Duration::from_millis(50),
            telemetry,
            ..NetConfig::default()
        },
    )
    .unwrap()
}

/// Raw-socket HELLO exchange with an explicit capability set; returns the
/// connection and the capabilities the server granted.
fn raw_hello_with_caps(addr: std::net::SocketAddr, caps: u32) -> (TcpStream, u32) {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let ours = Hello {
        version: PROTOCOL_VERSION,
        capabilities: caps,
    };
    write_frame(&mut conn, FrameType::Hello, &ours.encode()).unwrap();
    match read_frame(&mut conn).unwrap() {
        ReadOutcome::Frame(FrameType::Hello, payload) => {
            let theirs = Hello::decode(&payload).unwrap();
            (conn, theirs.capabilities)
        }
        other => panic!("expected HELLO reply, got {other:?}"),
    }
}

fn await_reply(conn: &mut TcpStream) -> (FrameType, Vec<u8>) {
    loop {
        match read_frame(conn).unwrap() {
            ReadOutcome::Frame(ty, payload) => return (ty, payload),
            ReadOutcome::Idle => {}
            ReadOutcome::Eof => panic!("server closed before replying"),
        }
    }
}

/// A known request mix against a `Trace`-level server, then the TELEMETRY
/// frame: the reply's counters, histograms, and trace must describe that
/// mix, and must agree with what the server-side handle renders locally.
#[test]
fn telemetry_round_trip_matches_server_side_snapshot() {
    let server = start_server(TelemetryLevel::Trace);
    let data = sample(200_000, 7);
    // The scalar backend keeps the decode deterministic on any host (the
    // auto backend's SIMD paths skip the instrumented span decoder).
    let client = NetClient::connect(server.addr())
        .unwrap()
        .with_backend(ScalarBackend);

    // Mix: 1 publish (dispatch + encode), 1 cache-miss request (dispatch +
    // combine), 2 cache-hit requests (inline), 1 streaming fetch (hit).
    client
        .publish("movie", &data, &EncoderConfig::default())
        .unwrap();
    assert_eq!(client.fetch_and_decode("movie", 8).unwrap(), data);
    assert_eq!(client.fetch_and_decode("movie", 8).unwrap(), data);
    assert_eq!(client.fetch_and_decode("movie", 8).unwrap(), data);
    let streamed = client.fetch_and_decode_streaming("movie", 8).unwrap();
    assert_eq!(streamed.data, data);

    let reply = client.remote_telemetry().unwrap();
    let remote = &reply.snapshot;
    assert_eq!(remote.level, TelemetryLevel::Trace);

    // The mix, as the wire reports it.
    assert_eq!(remote.counter("dispatched_jobs"), Some(2), "publish + miss");
    assert_eq!(remote.hist("encode_ns").map(|h| h.count), Some(1));
    assert_eq!(remote.hist("combine_ns").map(|h| h.count), Some(1));
    assert_eq!(remote.hist("tier_miss_segments").map(|h| h.count), Some(1));
    assert_eq!(
        remote.hist("tier_hit_segments").map(|h| h.count),
        Some(3),
        "two buffered re-fetches and one streamed fetch hit the tier cache"
    );
    assert!(remote.counter("frames_read").unwrap() >= 6);
    assert!(remote.counter("inline_serves").unwrap() >= 3);
    assert!(remote.counter("bytes_read").unwrap() > data.len() as u64);
    assert!(remote.counter("bytes_written").unwrap() > 0);
    assert!(remote.counter("write_flushes").unwrap() >= 5);
    assert_eq!(remote.counter("evictions"), Some(0));
    assert!(remote.hist("dispatch_wait_ns").map(|h| h.count) == Some(2));
    let inline = remote.hist("inline_serve_ns").unwrap();
    assert!(inline.count >= 3);
    assert!(inline.p50() <= inline.p99());
    assert!(inline.p99() <= inline.max);

    // The trace ring (drained into this reply) saw the pipeline stages.
    assert!(!reply.trace.is_empty());
    let stages: Vec<Stage> = reply.trace.iter().map(|(_, ev)| ev.stage).collect();
    for want in [
        Stage::FrameRead,
        Stage::InlineServe,
        Stage::DispatchQueue,
        Stage::DispatchRun,
        Stage::Encode,
        Stage::Combine,
        Stage::WriteFlush,
    ] {
        assert!(stages.contains(&want), "missing {want:?} in {stages:?}");
    }
    // Tickets arrive in ring order.
    assert!(reply.trace.windows(2).all(|w| w[0].0 < w[1].0));

    // The server-side handle renders the same story. Counters that the
    // TELEMETRY exchange itself advances (frames, bytes, flushes) may only
    // grow; the request-mix counters must match exactly.
    let local = server.telemetry().snapshot();
    for name in ["dispatched_jobs", "evictions"] {
        assert_eq!(local.counter(name), remote.counter(name), "{name}");
    }
    for name in [
        "encode_ns",
        "combine_ns",
        "tier_hit_segments",
        "tier_miss_segments",
    ] {
        assert_eq!(
            local.hist(name).map(|h| h.count),
            remote.hist(name).map(|h| h.count),
            "{name}"
        );
    }
    assert!(local.counter("frames_read") >= remote.counter("frames_read"));
    let local_text = local.render_text();
    let remote_text = remote.render_text();
    for line in [
        "recoil_dispatched_jobs 2",
        "# TYPE recoil_inline_serve_ns histogram",
    ] {
        assert!(local_text.contains(line), "local exposition missing {line}");
        assert!(
            remote_text.contains(line),
            "remote exposition missing {line}"
        );
    }

    // The drain consumed the ring: a second exchange reports only the
    // events generated since (the first reply's flush, this request).
    let again = client.remote_telemetry().unwrap();
    assert!(again.trace.len() < reply.trace.len());

    // Client-side instruments captured the streaming breakdown.
    let mine = client.telemetry().snapshot();
    let first = mine.hist("stream_first_segment_ns").unwrap();
    let total = mine.hist("stream_total_ns").unwrap();
    assert_eq!(first.count, 1);
    assert_eq!(total.count, 1);
    assert!(first.max <= total.max);

    server.shutdown();
}

/// Regression test: `queue_depth` and `open_slots` are published at one
/// consistent point in the event loop, so a STATS and a TELEMETRY request
/// pipelined in one write see the same values. (They used to be written
/// from dispatch workers and slab events independently, so the two views
/// could disagree.)
#[test]
fn stats_and_telemetry_report_the_same_gauges() {
    let server = start_server(TelemetryLevel::Counters);
    let (mut conn, caps) = raw_hello_with_caps(server.addr(), CAP_CHUNKED | CAP_TELEMETRY);
    assert_eq!(caps & CAP_TELEMETRY, CAP_TELEMETRY);

    // Both requests in one write: the server parses them back to back off
    // one read burst.
    let mut burst = Vec::new();
    write_frame(&mut burst, FrameType::Stats, &[]).unwrap();
    write_frame(&mut burst, FrameType::Telemetry, &[]).unwrap();
    conn.write_all(&burst).unwrap();

    let (ty, payload) = await_reply(&mut conn);
    assert_eq!(ty, FrameType::StatsReply);
    let stats = StatsReply::decode(&payload).unwrap();
    let (ty, payload) = await_reply(&mut conn);
    assert_eq!(ty, FrameType::TelemetryReply);
    let reply = TelemetryReply::decode(&payload).unwrap();

    assert_eq!(
        Some(stats.stats.queue_depth),
        reply.snapshot.gauge("queue_depth")
    );
    assert_eq!(
        Some(stats.stats.open_slots),
        reply.snapshot.gauge("open_slots")
    );
    // One connection (ours) is holding a slot, and nothing is queued.
    assert_eq!(stats.stats.queue_depth, 0);
    assert_eq!(
        stats.stats.open_slots,
        NetConfig::default().max_connections as u64 - 1
    );

    server.shutdown();
}

/// Capability gating: a peer that did not negotiate CAP_TELEMETRY gets a
/// typed error (and loses the connection), old clients keep their STATS
/// path, and an `Off`-level server still answers the frame — with an `off`
/// snapshot — because the capability is about protocol support, not level.
#[test]
fn telemetry_capability_is_negotiated_not_assumed() {
    let server = start_server(TelemetryLevel::Counters);
    let (mut conn, caps) = raw_hello_with_caps(server.addr(), CAP_CHUNKED);
    assert_eq!(
        caps & CAP_TELEMETRY,
        0,
        "server must not grant what we lack"
    );

    // The legacy surface still works on this connection.
    write_frame(&mut conn, FrameType::Stats, &[]).unwrap();
    let (ty, _) = await_reply(&mut conn);
    assert_eq!(ty, FrameType::StatsReply);

    // TELEMETRY without the capability: typed error, then close.
    write_frame(&mut conn, FrameType::Telemetry, &[]).unwrap();
    let (ty, _) = await_reply(&mut conn);
    assert_eq!(ty, FrameType::Error);

    // A client that skipped the capability fails locally, before the wire.
    let plain = NetClient::connect(server.addr()).unwrap();
    assert!(plain.remote_telemetry().is_ok());

    // An Off-level server still speaks the frame.
    let quiet = start_server(TelemetryLevel::Off);
    let client = NetClient::connect_with(
        quiet.addr(),
        NetClientConfig {
            telemetry: TelemetryLevel::Off,
            ..NetClientConfig::default()
        },
    )
    .unwrap();
    let reply = client.remote_telemetry().unwrap();
    assert_eq!(reply.snapshot.level, TelemetryLevel::Off);
    assert!(reply.trace.is_empty());

    quiet.shutdown();
    server.shutdown();
}

/// Connects, sends the first bytes of a HELLO frame and stops: the server
/// must evict the connection once its read deadline passes (slow loris).
fn start_slow_loris(addr: std::net::SocketAddr) -> TcpStream {
    let mut frame = Vec::new();
    let hello = Hello {
        version: PROTOCOL_VERSION,
        capabilities: CAP_CHUNKED,
    };
    write_frame(&mut frame, FrameType::Hello, &hello.encode()).unwrap();
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(&frame[..3]).unwrap();
    conn
}

fn raw_stats(conn: &mut TcpStream) -> recoil_server::ServerStats {
    write_frame(conn, FrameType::Stats, &[]).unwrap();
    let (ty, payload) = await_reply(conn);
    assert_eq!(ty, FrameType::StatsReply);
    StatsReply::decode(&payload).unwrap().stats
}

/// One registry: on an `Off` server, STATS and TELEMETRY report the same
/// serving counters, under their names, after tier hits, misses, a failed
/// request and a slow-loris eviction.
#[test]
fn stats_and_telemetry_are_one_registry_at_off() {
    let server = start_server(TelemetryLevel::Off);
    let data = sample(120_000, 11);
    let client = NetClient::connect_with(
        server.addr(),
        NetClientConfig {
            telemetry: TelemetryLevel::Off,
            ..NetClientConfig::default()
        },
    )
    .unwrap();
    client
        .publish("item", &data, &EncoderConfig::default())
        .unwrap();
    // Two tiers, each a miss and then a hit.
    for segments in [4, 8, 4, 8] {
        assert_eq!(client.fetch_and_decode("item", segments).unwrap(), data);
    }
    assert!(client.fetch_and_decode("missing", 4).is_err());

    let mut loris = start_slow_loris(server.addr());
    loris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The eviction ERROR, then the server's half-close.
    let mut evicted = Vec::new();
    std::io::Read::read_to_end(&mut loris, &mut evicted).unwrap();
    assert!(!evicted.is_empty(), "the evicted peer is told why");
    drop(loris);

    let stats = client.stats().unwrap().stats;
    let reply = client.remote_telemetry().unwrap();
    let tel = &reply.snapshot;
    assert_eq!(tel.level, TelemetryLevel::Off);
    assert_eq!(stats.requests, 5);
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 2));
    assert_eq!(stats.evicted_connections, 1);
    assert!(stats.bytes_served > 0);
    for (name, value) in [
        ("requests", stats.requests),
        ("cache_hits", stats.cache_hits),
        ("cache_misses", stats.cache_misses),
        ("bytes_served", stats.bytes_served),
        ("evictions", stats.evicted_connections),
    ] {
        assert_eq!(tel.counter(name), Some(value), "{name}");
    }
    server.shutdown();
}

/// Regression: a deadline close publishes the gauges at once. The loop used
/// to refresh `open_slots` only at its next iteration, after serving that
/// iteration's requests, so a STATS served right after a drain timeout saw
/// the freed slot in `active_connections` but not in `open_slots`.
#[test]
fn gauges_sum_to_the_cap_across_a_deadline_close() {
    let server = start_server(TelemetryLevel::Off);
    let cap = NetConfig::default().max_connections as u64;
    let (mut watcher, _) = raw_hello_with_caps(server.addr(), CAP_CHUNKED);
    // Held open and never read: the server evicts it at the read deadline,
    // then closes it when its drain times out — both deadline closes.
    let loris = start_slow_loris(server.addr());
    let give_up = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let s = raw_stats(&mut watcher);
        assert_eq!(s.active_connections + s.open_slots, cap, "{s:?}");
        if s.evicted_connections == 1 && s.active_connections == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < give_up,
            "loris never closed: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // A few more replies after the close, for good measure.
    for _ in 0..3 {
        let s = raw_stats(&mut watcher);
        assert_eq!(s.active_connections + s.open_slots, cap, "{s:?}");
    }
    drop(loris);
    server.shutdown();
}
