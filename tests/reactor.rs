//! Reactor-path integration tests: resumable framing under arbitrary
//! byte fragmentation (proptest), FSM timers firing under message
//! flood, and poll/epoll backend equivalence.

use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;

use keep_communities_clean::analysis::{CountsSink, PipelineBuilder};
use keep_communities_clean::collector::{SessionKey, UpdateArchive};
use keep_communities_clean::peer::reactor::framing::{FlushOutcome, FrameBuffer, WriteQueue};
use keep_communities_clean::peer::{
    offline_reference, ActiveSpeaker, Collector, CollectorConfig, FloodOptions, FloodPlan,
    FloodRig, FsmConfig, ManualClock, PeerError, PollerKind, StampMode,
};
use keep_communities_clean::tracegen::{generate_mar20, Mar20Config};
use keep_communities_clean::types::{AsPath, Asn, PathAttributes, Prefix};
use keep_communities_clean::wire::{
    encode_message, Message, Notification, NotificationCode, SessionConfig, UpdatePacket,
};

// ---------------------------------------------------------------------
// Proptests: resumable framing.
// ---------------------------------------------------------------------

fn arb_message() -> impl Strategy<Value = Message> {
    let arb_update =
        (any::<u32>(), 8u8..=24, vec(1u32..65_000, 1..4)).prop_map(|(addr, len, path)| {
            let prefix = Prefix::v4(Ipv4Addr::from(addr), len).expect("valid v4 length");
            let attrs = PathAttributes {
                as_path: AsPath::from_asns(path.into_iter().map(Asn)),
                next_hop: "192.0.2.1".parse().unwrap(),
                ..Default::default()
            };
            Message::Update(UpdatePacket::announce(prefix, attrs))
        });
    let arb_withdraw = (any::<u32>(), 8u8..=24).prop_map(|(addr, len)| {
        let prefix = Prefix::v4(Ipv4Addr::from(addr), len).expect("valid v4 length");
        Message::Update(UpdatePacket::withdraw(prefix))
    });
    prop_oneof![
        Just(Message::Keepalive),
        arb_update,
        arb_withdraw,
        Just(Message::Notification(Notification::cease_admin_shutdown())),
    ]
}

proptest! {
    /// However a TCP stream fragments — down to single bytes, across
    /// arbitrary chunk boundaries — the frame buffer reassembles the
    /// exact message sequence.
    #[test]
    fn fragmented_stream_reassembles_byte_identical_messages(
        messages in vec(arb_message(), 1..20),
        cuts in vec(1usize..64, 1..40),
    ) {
        let cfg = SessionConfig::default();
        let mut wire = bytes::BytesMut::new();
        for m in &messages {
            encode_message(m, &cfg, &mut wire);
        }
        let wire = wire.to_vec();

        let mut fb = FrameBuffer::new(cfg, true);
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut cut_iter = cuts.iter().cycle();
        while offset < wire.len() {
            let take = (*cut_iter.next().unwrap()).min(wire.len() - offset);
            fb.extend(&wire[offset..offset + take]);
            offset += take;
            while let Some(m) = fb.next_message().expect("valid stream decodes") {
                decoded.push(m);
            }
        }
        prop_assert_eq!(decoded, messages);
        // No residual bytes after the last frame.
        prop_assert_eq!(fb.buffered(), 0);
    }

    /// A write queue flushed through a socket that accepts arbitrary
    /// partial writes (and interleaves WouldBlock) emits a byte stream
    /// identical to a single blocking write.
    #[test]
    fn write_queue_partial_writes_emit_byte_identical_stream(
        messages in vec(arb_message(), 1..16),
        accepts in vec(1usize..40, 1..30),
        block_mask in any::<u64>(),
    ) {
        struct FickleWriter {
            out: Vec<u8>,
            accepts: Vec<usize>,
            mask: u64,
            calls: u32,
        }
        impl std::io::Write for FickleWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                let call = self.calls as usize;
                self.calls += 1;
                if self.mask >> (call % 64) & 1 == 1 {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = self.accepts[call % self.accepts.len()].min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let cfg = SessionConfig::default();
        let mut expected = bytes::BytesMut::new();
        let mut q = WriteQueue::new(1 << 20);
        for m in &messages {
            encode_message(m, &cfg, &mut expected);
            q.push_message(m, &cfg).expect("under cap");
        }
        let mut w = FickleWriter { out: Vec::new(), accepts, mask: block_mask, calls: 0 };
        let mut rounds = 0;
        while q.flush(&mut w).expect("no real I/O errors") == FlushOutcome::Pending {
            rounds += 1;
            prop_assert!(rounds < 100_000, "flush never completed");
        }
        prop_assert_eq!(w.out, expected.to_vec());
        prop_assert!(q.is_empty());
    }
}

// ---------------------------------------------------------------------
// FSM timers under flood.
// ---------------------------------------------------------------------

/// While one peer floods the shard with UPDATEs (its readiness never
/// goes quiet), a silent peer's hold timer must still fire: the reactor
/// advances its timer wheel every loop iteration, not just on idle.
#[test]
fn hold_timer_fires_for_silent_peer_while_another_floods() {
    let clock = Arc::new(ManualClock::new());
    let cfg = CollectorConfig::new("flood", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000))
        .with_workers(1); // both sessions on one shard
    let mut collector =
        Collector::bind_with_clock("127.0.0.1:0", cfg, Arc::clone(&clock) as _).expect("bind");
    let addr = collector.local_addr();
    let source = collector.take_source();

    // Both clients run on their own frozen clocks: only the *daemon*
    // observes the time jump, so any teardown is the reactor's doing.
    // The silent peer negotiates a 30 s hold (min of the proposals); the
    // flooder keeps the 90 s default — so the 45 s jump below sits
    // strictly between the two deadlines and the outcome does not
    // depend on scheduling.
    let silent = ActiveSpeaker::connect(
        addr,
        FsmConfig::new(Asn(65_001), "10.9.0.1".parse().unwrap()).with_hold_time(30),
        Arc::new(ManualClock::new()),
        Duration::from_secs(10),
    )
    .expect("silent peer handshake");

    // The flooding peer: streams updates continuously.
    let mut flooder = ActiveSpeaker::connect(
        addr,
        FsmConfig::new(Asn(65_002), "10.9.0.2".parse().unwrap()),
        Arc::new(ManualClock::new()),
        Duration::from_secs(10),
    )
    .expect("flooder handshake");
    let attrs = PathAttributes {
        as_path: "65002 3356".parse().unwrap(),
        next_hop: "192.0.2.1".parse().unwrap(),
        ..Default::default()
    };
    let packet = UpdatePacket::announce("10.0.0.0/8".parse().unwrap(), attrs);
    let flood = std::thread::spawn(move || {
        let mut sent = 0u64;
        for _ in 0..200_000 {
            if flooder.send_update(&packet).is_err() {
                break;
            }
            sent += 1;
        }
        (flooder, sent)
    });

    // Mid-flood, jump past the silent peer's 30 s hold time but not the
    // flooder's 90 s one. The flooder's deadline is also continuously
    // refreshed by its decoded updates; the silent peer's cannot be.
    std::thread::sleep(Duration::from_millis(100));
    clock.advance(45_000);

    // The daemon must Cease the silent peer with Hold Timer Expired.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut silent = silent;
    let notification = loop {
        match silent.tick() {
            Err(PeerError::PeerClosed(n)) => break n,
            Err(e) => panic!("silent peer failed some other way: {e}"),
            Ok(()) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "silent peer never torn down under flood"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let notification = notification.expect("teardown carries a NOTIFICATION");
    assert_eq!(notification.code, NotificationCode::HoldTimerExpired);

    let (flooder, sent) = flood.join().expect("flood thread");
    assert!(sent > 0, "flood actually ran");
    assert!(flooder.is_established(), "flooding peer survived the clock jump");
    flooder.close().expect("flooder clean close");

    collector.shutdown();
    let stats = collector.join();
    drop(source);
    assert_eq!(stats.established, 2);
    assert_eq!(stats.updates, sent, "every flooded update ingested");
}

// ---------------------------------------------------------------------
// Backend equivalence.
// ---------------------------------------------------------------------

/// The same workload through the epoll backend and the portable
/// `poll(2)` fallback produces identical ingest results — and both
/// match the offline reference.
#[test]
fn poll_and_epoll_backends_ingest_identically() {
    let day = generate_mar20(&Mar20Config { target_announcements: 3_000, ..Default::default() });
    let mut workload = UpdateArchive::new(0);
    let mut dealt = 0u64;
    for (i, (_, update)) in day.archive.all_updates().iter().enumerate() {
        let p = i % 16;
        let key = SessionKey::new(
            "bench",
            Asn(64_512 + p as u32),
            IpAddr::V4(Ipv4Addr::new(10, 99, 0, p as u8)),
        );
        workload.record(&key, update.clone());
        dealt += 1;
        if dealt >= 2_500 {
            break;
        }
    }

    let run = |poller: PollerKind| {
        let cfg = CollectorConfig::new("bench", Asn(3333), "198.51.100.1".parse().unwrap())
            .with_stamp(StampMode::logical(1_000))
            .with_poller(poller);
        let mut collector = Collector::bind("127.0.0.1:0", cfg.clone()).expect("bind");
        let addr = collector.local_addr();
        let source = collector.take_source();
        let stop = source.shutdown_flag();
        let plan = FloodPlan::from_archive(&workload, 90);
        let rig = FloodRig::connect(addr, plan, FloodOptions { poller }).expect("establish");
        let coordinator = std::thread::spawn(move || {
            rig.stream().expect("stream");
            collector.shutdown();
            collector.join()
        });
        let out = PipelineBuilder::new(source)
            .sink(CountsSink::default())
            .shutdown(&stop)
            .run()
            .expect("live run");
        let stats = coordinator.join().expect("coordinator");
        (out.sink.finish(), stats.updates)
    };

    let (epoll_counts, epoll_updates) = run(PollerKind::Epoll);
    let (poll_counts, poll_updates) = run(PollerKind::Poll);
    assert_eq!(epoll_updates, dealt);
    assert_eq!(poll_updates, dealt);
    assert_eq!(epoll_counts, poll_counts, "backends diverged");

    let cfg = CollectorConfig::new("bench", Asn(3333), "198.51.100.1".parse().unwrap())
        .with_stamp(StampMode::logical(1_000));
    let reference = offline_reference(&workload, &cfg);
    let offline = keep_communities_clean::analysis::classify_archive(&reference).counts;
    assert_eq!(epoll_counts, offline, "live != offline reference");
}
