//! Distributed-engine differential tests: the TCP fabric must produce
//! observables bit-identical to the loopback sharded engine and the
//! sequential oracle, and peer failures must surface as structured
//! errors instead of hangs.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use circuit::generators::kogge_stone_adder;
use circuit::{DelayModel, Stimulus};
use des::engine::seq::SeqWorksetEngine;
use des::engine::sharded::ShardedEngine;
use des::engine::{Engine, EngineConfig};
use des::{config_digest, run_node, DistConfig, PartitionStrategy, SimError};
use net::{encode_frame, read_frame, Frame};

#[test]
fn tcp_matches_loopback_and_seq_on_ks64() {
    let circuit = kogge_stone_adder(64);
    let stimulus = Stimulus::random_vectors(&circuit, 6, 10, 0xD15C);
    let delays = DelayModel::standard();
    let seq = SeqWorksetEngine::new().run(&circuit, &stimulus, &delays);
    for k in [2usize, 4] {
        let cfg = EngineConfig::default()
            .with_shards(k)
            .with_strategy(PartitionStrategy::GreedyCut);
        let loopback = ShardedEngine::from_config(&cfg).run(&circuit, &stimulus, &delays);
        let tcp = des::TcpShardedEngine::from_config(&cfg.clone().with_processes(2))
            .run(&circuit, &stimulus, &delays);
        for out in [&loopback, &tcp] {
            assert_eq!(out.node_values, seq.node_values, "k={k}");
            assert_eq!(
                out.stats.events_delivered, seq.stats.events_delivered,
                "k={k}"
            );
            for (a, b) in out.waveforms.iter().zip(&seq.waveforms) {
                assert_eq!(a.settled(), b.settled(), "k={k}");
            }
        }
        // Same partition, same cut: the payload traffic crossing shard
        // boundaries is deterministic and transport-independent.
        assert_eq!(
            tcp.stats.cut_events_sent, loopback.stats.cut_events_sent,
            "k={k}: cut traffic must not depend on the transport"
        );
        // And the TCP run really went through the wire.
        assert!(tcp.stats.net_frames_sent > 0, "k={k}");
        assert!(tcp.stats.net_bytes_sent > 0, "k={k}");
        assert_eq!(loopback.stats.net_frames_sent, 0, "loopback sends no frames");
    }
}

#[test]
fn batching_counters_are_consistent() {
    let circuit = kogge_stone_adder(64);
    let stimulus = Stimulus::random_vectors(&circuit, 4, 10, 0xBA7C);
    let delays = DelayModel::standard();
    let cfg = EngineConfig::default().with_shards(2).with_processes(2);
    let unbatched = des::TcpShardedEngine::from_config(&cfg.clone().with_batch_msgs(1))
        .run(&circuit, &stimulus, &delays);
    let batched = des::TcpShardedEngine::from_config(&cfg.clone().with_batch_msgs(64))
        .run(&circuit, &stimulus, &delays);
    // batch=1 flushes on every message: one message per frame, and no
    // flush is ever "forced early".
    assert_eq!(
        unbatched.stats.net_frames_sent,
        unbatched.stats.net_msgs_batched
    );
    assert_eq!(unbatched.stats.net_forced_flushes, 0);
    // batch=64 coalesces: strictly fewer frames than messages, and NULL
    // urgency forces some flushes below the threshold.
    assert!(batched.stats.net_frames_sent < batched.stats.net_msgs_batched);
    assert!(batched.stats.net_forced_flushes > 0);
    // Payload observables agree regardless of batching.
    assert_eq!(unbatched.node_values, batched.node_values);
    assert_eq!(
        unbatched.stats.events_delivered,
        batched.stats.events_delivered
    );
}

/// A fake worker that completes the handshake and then drops dead must
/// produce a structured transport error on the coordinator — promptly,
/// not after (or instead of) a watchdog timeout.
#[test]
fn peer_disconnect_is_structured_error_not_hang() {
    let circuit = kogge_stone_adder(64);
    let stimulus = Stimulus::random_vectors(&circuit, 4, 10, 0xDEAD);
    let delays = DelayModel::standard();
    let num_shards = 2;
    let strategy = PartitionStrategy::GreedyCut;
    let digest = config_digest(&circuit, &stimulus, num_shards, strategy);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr0 = listener.local_addr().unwrap();
    // Rank 1's address is never dialed by rank 0 (higher ranks dial
    // lower), so a placeholder works.
    let addr1 = "127.0.0.1:1".parse().unwrap();

    let fake_peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr0).unwrap();
        stream
            .write_all(&encode_frame(&Frame::Hello {
                process: 1,
                num_shards: num_shards as u64,
                digest,
                session_epoch: 0,
                features: 0,
            }))
            .unwrap();
        let hello = read_frame(&mut stream).unwrap();
        assert!(matches!(hello, Some(Frame::Hello { process: 0, .. })));
        // Die without a word: rank 0 is now owed shard 1's traffic that
        // will never come.
        drop(stream);
    });

    let cfg = DistConfig {
        process: 0,
        addrs: vec![addr0, addr1],
        connect_deadline: Duration::from_secs(10),
        telemetry: false,
        telemetry_period: Duration::from_millis(100),
        fleet: None,
        engine: EngineConfig::new()
            .with_shards(num_shards)
            .with_strategy(strategy)
            .with_mailbox_capacity(256)
            .with_batch_msgs(64)
            .with_watchdog(Some(Duration::from_secs(30))),
    };
    let started = Instant::now();
    let result = run_node(&circuit, &stimulus, &delays, listener, &cfg);
    fake_peer.join().unwrap();
    match result {
        Err(SimError::Transport { peer, .. }) => assert_eq!(peer, Some(1)),
        other => panic!("expected a transport error, got {other:?}"),
    }
    // The reader thread reports the EOF the moment it happens; the
    // coordinator must fail well inside the 30s watchdog window.
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "took {:?}",
        started.elapsed()
    );
}
