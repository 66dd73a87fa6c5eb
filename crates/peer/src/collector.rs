//! The multi-peer live collector daemon.
//!
//! A [`Collector`] is the in-process form of `kccd`: it listens on a TCP
//! socket, runs one RFC 4271 session per inbound connection on the
//! event-driven [`crate::reactor`] (thousands of sessions over a bounded
//! worker pool — no thread per session), stamps arriving UPDATEs,
//! optionally tees them into rotating MRT dumps ([`crate::rotate`]), and
//! feeds everything to a [`LiveSource`] so `kcc_core`'s pipeline — and
//! with it every existing analysis sink — runs over live traffic
//! unchanged.
//!
//! The daemon is hot-reloadable: [`Collector::config_store`] exposes the
//! running/candidate [`ConfigStore`] (peers, listeners, stamping,
//! rotation, trace levels), and a commit propagates to the reactor
//! shards and the ingest loop within one poll interval — no restart, no
//! disturbance to sessions the change does not name.
//!
//! ## Session identity
//!
//! Offline, a session is `(collector, peer ASN, peer IP)`. Live, the
//! transport source address is a poor identity: on a loopback deployment
//! every peer connects from `127.0.0.1` with an ephemeral port. The
//! daemon therefore keys sessions by the peer's **BGP identifier** — the
//! stable, configured identity exchanged in the OPEN — in the peer-IP
//! slot of the [`SessionKey`].
//!
//! ## Arrival stamping
//!
//! BGP messages carry no timestamps; the collector assigns them
//! ([`StampMode`]). `Arrival` uses the daemon's clock, like a real
//! collector. `Logical` gives the *n*-th update of each session the
//! deterministic time `n × spacing` — per-session TCP ordering makes this
//! reproducible run over run, which is what lets the end-to-end loopback
//! tests demand byte-identical results from the live and offline paths
//! ([`offline_reference`] computes what the daemon will record).

use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use kcc_bgp_types::Asn;
use kcc_collector::{LiveSource, PeerMeta, SessionKey, ShutdownFlag, SourceItem, UpdateArchive};

use crate::clock::{Clock, WallClock};
use crate::config::{ConfigStore, DaemonConfig};
use crate::fsm::FsmConfig;
use crate::reactor::{self, LiveGauges, ReactorConfig, SessionEvent};
use crate::rotate::MrtRotator;
use crate::sys::PollerKind;
use crate::trace::TraceLevel;

/// How arriving updates are timestamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampMode {
    /// The daemon's clock at arrival (microseconds = `now_ms × 1000`),
    /// like a real collector.
    Arrival,
    /// The *n*-th update of each session gets `n × spacing_us` — fully
    /// deterministic under per-session TCP ordering; the mode the
    /// loopback round-trip tests use.
    Logical {
        /// Microseconds between consecutive per-session stamps.
        spacing_us: u64,
    },
}

impl StampMode {
    /// Logical stamping with the given per-session spacing.
    pub fn logical(spacing_us: u64) -> Self {
        StampMode::Logical { spacing_us }
    }
}

/// The BGP identifier a session's peer IP maps to — what a speaker
/// replaying an archive session announces, and so what the daemon keys
/// the session by: v4 addresses map directly (reproducing the offline
/// session key), v6 addresses hash into a deterministic v4 identifier.
pub fn bgp_id_for(peer_ip: IpAddr) -> Ipv4Addr {
    match peer_ip {
        IpAddr::V4(v4) => v4,
        IpAddr::V6(v6) => {
            let o = v6.octets();
            let h = o.iter().fold(5381u32, |acc, b| acc.wrapping_mul(33).wrapping_add(*b as u32));
            Ipv4Addr::from(h.to_be_bytes())
        }
    }
}

/// Daemon configuration. The hot-reloadable subset (stamp, route
/// servers, MRT rotation) seeds the daemon's [`ConfigStore`]; the rest —
/// local identity, epoch, reactor shape — is fixed at bind time.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Collector name used in session keys and MRT re-analysis.
    pub collector: String,
    /// Our AS number.
    pub local_asn: Asn,
    /// Our BGP identifier.
    pub bgp_id: Ipv4Addr,
    /// Proposed hold time (seconds).
    pub hold_time: u16,
    /// Epoch anchoring `time_us` (and MRT record seconds).
    pub epoch_seconds: u32,
    /// Timestamping of arriving updates.
    pub stamp: StampMode,
    /// Peers that are IXP route servers (metadata the wire cannot carry;
    /// mirrors `MrtSource::with_route_servers`).
    pub route_servers: Vec<(Asn, IpAddr)>,
    /// Rotating MRT dumps, if wanted.
    pub mrt: Option<crate::rotate::RotateConfig>,
    /// Event-loop shape: worker count and poller backend.
    pub reactor: ReactorConfig,
}

impl CollectorConfig {
    /// A conventional configuration.
    pub fn new(collector: &str, local_asn: Asn, bgp_id: Ipv4Addr) -> Self {
        CollectorConfig {
            collector: collector.to_owned(),
            local_asn,
            bgp_id,
            hold_time: 90,
            epoch_seconds: 0,
            stamp: StampMode::Arrival,
            route_servers: Vec::new(),
            mrt: None,
            reactor: ReactorConfig::default(),
        }
    }

    /// Sets the stamp mode.
    pub fn with_stamp(mut self, stamp: StampMode) -> Self {
        self.stamp = stamp;
        self
    }

    /// Declares route-server peers.
    pub fn with_route_servers<I: IntoIterator<Item = (Asn, IpAddr)>>(mut self, peers: I) -> Self {
        self.route_servers = peers.into_iter().collect();
        self
    }

    /// Enables rotating MRT dumps.
    pub fn with_mrt(mut self, rotate: crate::rotate::RotateConfig) -> Self {
        self.mrt = Some(rotate);
        self
    }

    /// Sets the reactor worker count (shard threads; workers ≪ sessions).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.reactor.workers = workers;
        self
    }

    /// Selects the readiness backend.
    pub fn with_poller(mut self, poller: PollerKind) -> Self {
        self.reactor.poller = poller;
        self
    }

    /// The hot-reloadable subset, as the initial running config.
    fn daemon_config(&self) -> DaemonConfig {
        DaemonConfig {
            stamp: self.stamp,
            route_servers: self.route_servers.clone(),
            mrt: self.mrt.clone(),
            ..DaemonConfig::default()
        }
    }
}

/// What a collector run processed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Sessions that completed the handshake.
    pub established: u64,
    /// High-water mark of *concurrently* Established sessions.
    pub peak_established: u64,
    /// Distinct session keys seen.
    pub sessions: u64,
    /// Per-prefix updates ingested (UPDATE packets are exploded).
    pub updates: u64,
    /// Sessions that ended.
    pub closed: u64,
    /// MRT records written across all dump files.
    pub mrt_records: u64,
    /// Completed MRT dump files.
    pub mrt_files: Vec<std::path::PathBuf>,
}

/// A running collector daemon. Obtain the [`LiveSource`] with
/// [`Collector::take_source`], run the pipeline over it, and stop with
/// [`Collector::shutdown`] + [`Collector::join`].
pub struct Collector {
    local_addr: SocketAddr,
    shutdown: ShutdownFlag,
    source: Option<LiveSource>,
    reactor: Option<reactor::Reactor>,
    ingest_handle: Option<JoinHandle<CollectorStats>>,
    store: Arc<ConfigStore>,
    gauges: Arc<LiveGauges>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").field("local_addr", &self.local_addr).finish()
    }
}

impl Collector {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting peers,
    /// with the real wall clock.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: CollectorConfig) -> io::Result<Self> {
        Self::bind_with_clock(addr, cfg, Arc::new(WallClock::new()))
    }

    /// [`Collector::bind`] with an injected clock (tests).
    pub fn bind_with_clock<A: ToSocketAddrs>(
        addr: A,
        cfg: CollectorConfig,
        clock: Arc<dyn Clock>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        // Fail at bind time if the configured MRT directory is unusable,
        // not after the daemon is already accepting peers.
        let rotator = match &cfg.mrt {
            Some(rc) => match MrtRotator::new(rc.clone(), cfg.epoch_seconds) {
                Ok(r) => Some(r),
                Err(e) => return Err(io::Error::other(format!("MRT rotator: {e}"))),
            },
            None => None,
        };

        let store = Arc::new(ConfigStore::new(cfg.daemon_config()));
        let shutdown = ShutdownFlag::new();
        let (event_tx, event_rx) = mpsc::channel::<SessionEvent>();
        let (live_tx, live_source) = LiveSource::channel();

        let fsm_cfg = FsmConfig::new(cfg.local_asn, cfg.bgp_id).with_hold_time(cfg.hold_time);
        let reactor = reactor::spawn(
            listener,
            fsm_cfg,
            Arc::clone(&clock),
            event_tx,
            shutdown.clone(),
            Arc::clone(&store),
            cfg.reactor.clone(),
        )?;
        let gauges = reactor.gauges();

        let ingest_handle = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || ingest_loop(cfg, clock, event_rx, live_tx, rotator, store))
        };

        Ok(Collector {
            local_addr,
            shutdown,
            source: Some(live_source),
            reactor: Some(reactor),
            ingest_handle: Some(ingest_handle),
            store,
            gauges,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Every address currently accepting connections — the primary bind
    /// plus any committed extra listeners.
    pub fn listen_addrs(&self) -> Vec<SocketAddr> {
        match &self.reactor {
            Some(r) => r.listen_addrs(),
            None => Vec::new(),
        }
    }

    /// The live update source. Panics if taken twice.
    pub fn take_source(&mut self) -> LiveSource {
        self.source.take().expect("LiveSource already taken")
    }

    /// The running/candidate configuration store — edit, commit, and the
    /// daemon picks the change up within one poll interval.
    pub fn config_store(&self) -> Arc<ConfigStore> {
        Arc::clone(&self.store)
    }

    /// Live counters (current/peak Established, accepted) readable while
    /// the daemon runs.
    pub fn gauges(&self) -> Arc<LiveGauges> {
        Arc::clone(&self.gauges)
    }

    /// The daemon's metrics registry (shared with the reactor shards and
    /// the ingest thread); render with [`kcc_obs::Registry::render`].
    pub fn metrics(&self) -> Arc<kcc_obs::Registry> {
        Arc::clone(self.store.metrics())
    }

    /// Requests shutdown: stop accepting, Cease every session, close the
    /// feed once in-flight updates are drained.
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// A clonable handle other threads (a duration timer, a signal
    /// handler) can use to request the same shutdown. Distinct from the
    /// [`LiveSource`]'s own flag: this one drains sessions gracefully
    /// and closes the feed, so a pipeline blocked on the source finishes
    /// with everything ingested.
    pub fn shutdown_handle(&self) -> ShutdownFlag {
        self.shutdown.clone()
    }

    /// Waits for every thread to finish and returns the run's stats.
    /// Call [`Collector::shutdown`] first (or have every peer disconnect
    /// — the accept loop still needs the flag to stop).
    pub fn join(mut self) -> CollectorStats {
        if let Some(r) = self.reactor.take() {
            r.join();
        }
        let mut stats = CollectorStats::default();
        if let Some(h) = self.ingest_handle.take() {
            if let Ok(s) = h.join() {
                stats = s;
            }
        }
        stats.accepted = self.gauges.accepted.load(Ordering::Relaxed);
        stats.peak_established = self.gauges.peak_established.load(Ordering::Relaxed);
        stats
    }
}

struct LiveSession {
    meta: Arc<PeerMeta>,
    next_index: u64,
}

/// How often the ingest loop re-checks the config generation while no
/// events arrive.
const INGEST_POLL: Duration = Duration::from_millis(100);

/// Converts session events into stamped `SourceItem`s (and MRT records)
/// until every reactor shard is gone, re-reading the running config
/// (stamp mode, route servers, MRT rotation) whenever its generation
/// moves.
fn ingest_loop(
    cfg: CollectorConfig,
    clock: Arc<dyn Clock>,
    events: mpsc::Receiver<SessionEvent>,
    live: Sender<SourceItem>,
    mut rotator: Option<MrtRotator>,
    store: Arc<ConfigStore>,
) -> CollectorStats {
    let mut stats = CollectorStats::default();
    let updates_ingested = store.metrics().counter("kcc_ingest_updates_total");
    // Keyed by the Copy pair (ASN, IP) — the collector name is constant
    // for this daemon, and the full SessionKey would cost a String
    // allocation per UPDATE on this single-threaded hot path.
    let mut sessions: HashMap<(Asn, IpAddr), LiveSession> = HashMap::new();
    let mut running = store.running();
    let mut last_gen = store.generation();
    // MRT files closed out by hot-swaps, folded into the final stats.
    let mut swapped_records = 0u64;
    let mut swapped_files: Vec<std::path::PathBuf> = Vec::new();

    loop {
        let event = match events.recv_timeout(INGEST_POLL) {
            Ok(event) => Some(event),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };

        let gen = store.generation();
        if gen != last_gen {
            last_gen = gen;
            let new = store.running();
            if new.mrt != running.mrt {
                // Hot-swap rotation: finish the old dump files cleanly
                // so a concurrent reader only ever sees complete files.
                if let Some(rot) = rotator.take() {
                    swapped_records += rot.total_records();
                    if let Ok(files) = rot.finish() {
                        swapped_files.extend(files);
                    }
                }
                rotator = new.mrt.as_ref().and_then(|rc| {
                    match MrtRotator::new(rc.clone(), cfg.epoch_seconds) {
                        Ok(r) => Some(r),
                        Err(e) => {
                            store.trace().log("ingest", TraceLevel::Error, || {
                                format!("MRT rotator swap failed: {e}")
                            });
                            None
                        }
                    }
                });
            }
            store.trace().log("ingest", TraceLevel::Debug, || {
                format!("ingest applying config generation {gen}")
            });
            running = new;
        }

        let Some(event) = event else { continue };
        match event {
            SessionEvent::Established { info } => {
                stats.established += 1;
                let peer_ip = IpAddr::V4(info.peer_bgp_id);
                if let std::collections::hash_map::Entry::Vacant(e) =
                    sessions.entry((info.peer_asn, peer_ip))
                {
                    let route_server = running
                        .route_servers
                        .iter()
                        .any(|&(asn, ip)| asn == info.peer_asn && ip == peer_ip);
                    let meta = Arc::new(PeerMeta {
                        key: SessionKey::new(&cfg.collector, info.peer_asn, peer_ip),
                        route_server,
                        second_granularity: false,
                    });
                    stats.sessions += 1;
                    let _ = live.send(SourceItem::Session(Arc::clone(&meta)));
                    e.insert(LiveSession { meta, next_index: 0 });
                }
            }
            SessionEvent::Update { info, packet } => {
                let peer_ip = IpAddr::V4(info.peer_bgp_id);
                let Some(session) = sessions.get_mut(&(info.peer_asn, peer_ip)) else {
                    continue; // update before establish cannot happen
                };
                // A packet may explode into several per-prefix updates;
                // each gets its own stamp so `Logical` mode matches
                // `offline_reference` exactly (the n-th per-session
                // update is n × spacing, packet boundaries irrelevant).
                for mut update in packet.explode(0) {
                    update.time_us = match running.stamp {
                        StampMode::Arrival => clock.now_ms() * 1_000,
                        StampMode::Logical { spacing_us } => session.next_index * spacing_us,
                    };
                    if let Some(rot) = rotator.as_mut() {
                        let _ = rot.write(&session.meta, &update);
                    }
                    stats.updates += 1;
                    updates_ingested.inc();
                    session.next_index += 1;
                    let _ = live.send(SourceItem::Update(Arc::clone(&session.meta), update));
                }
            }
            SessionEvent::Closed { reason, .. } => {
                stats.closed += 1;
                let _ = reason; // reasons are per-session diagnostics
            }
        }
    }

    stats.mrt_records = swapped_records;
    stats.mrt_files = swapped_files;
    if let Some(rot) = rotator {
        stats.mrt_records += rot.total_records();
        if let Ok(files) = rot.finish() {
            stats.mrt_files.extend(files);
        }
    }
    stats
}

/// What the daemon will record for `input` under `cfg` — the offline
/// reference the end-to-end loopback tests compare against, computed by
/// applying the daemon's metadata and stamping rules to the same update
/// set. Only [`StampMode::Logical`] yields a meaningful reference
/// (`Arrival` depends on the wall clock). Peer IPs map through
/// [`bgp_id_for`], as the daemon keys a session replayed from `input`
/// (e.g. by a [`crate::FloodPlan`]).
pub fn offline_reference(input: &UpdateArchive, cfg: &CollectorConfig) -> UpdateArchive {
    let mut out = UpdateArchive::new(cfg.epoch_seconds);
    let mut renamed = 0usize;
    for (key, rec) in input.sessions() {
        renamed += 1;
        let peer_ip = IpAddr::V4(bgp_id_for(key.peer_ip));
        let key = SessionKey::new(&cfg.collector, key.peer_asn, peer_ip);
        let route_server =
            cfg.route_servers.iter().any(|&(asn, ip)| asn == key.peer_asn && ip == peer_ip);
        out.add_session(PeerMeta { key: key.clone(), route_server, second_granularity: false });
        for (i, u) in rec.updates.iter().enumerate() {
            let mut u = u.clone();
            u.time_us = match cfg.stamp {
                StampMode::Logical { spacing_us } => i as u64 * spacing_us,
                StampMode::Arrival => u.time_us,
            };
            out.record(&key, u);
        }
    }
    assert_eq!(
        out.session_count(),
        renamed,
        "distinct input sessions collided under one collector name — \
         (peer ASN, peer IP) must be unique across the input"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActiveSpeaker;
    use kcc_bgp_types::{PathAttributes, RouteUpdate};
    use kcc_bgp_wire::UpdatePacket;
    use kcc_collector::UpdateSource;

    /// A multi-prefix UPDATE packet explodes into per-prefix updates
    /// that each advance the logical stamp — the invariant that keeps
    /// live results byte-identical to `offline_reference`, which sees
    /// one update per record and never a packet boundary.
    #[test]
    fn logical_stamping_advances_per_exploded_prefix() {
        let cfg = CollectorConfig::new("rrc00", Asn(3333), "198.51.100.1".parse().unwrap())
            .with_stamp(StampMode::logical(1_000));
        let mut collector = Collector::bind("127.0.0.1:0", cfg).unwrap();
        let addr = collector.local_addr();
        let mut source = collector.take_source();

        // A hand-driven peer: handshake, then one UPDATE carrying two
        // prefixes, then one with a single withdrawal.
        let mut peer = ActiveSpeaker::connect(
            addr,
            FsmConfig::new(Asn(65_001), "192.0.2.77".parse().unwrap()),
            Arc::new(WallClock::new()),
            Duration::from_secs(5),
        )
        .unwrap();
        let attrs = PathAttributes {
            as_path: "65001 3356".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        let mut two = UpdatePacket::announce("10.0.0.0/8".parse().unwrap(), attrs);
        two.nlri.push("10.64.0.0/10".parse().unwrap());
        peer.send_update(&two).unwrap();
        peer.send_update(&UpdatePacket::withdraw("10.0.0.0/8".parse().unwrap())).unwrap();
        peer.close().unwrap();

        collector.shutdown();
        let stats = collector.join();
        assert_eq!(stats.updates, 3, "2 exploded announcements + 1 withdrawal");

        let mut stamps = Vec::new();
        while let Some(item) = source.next_item().unwrap() {
            if let SourceItem::Update(_, u) = item {
                stamps.push(u.time_us);
            }
        }
        assert_eq!(stamps, vec![0, 1_000, 2_000], "every exploded prefix advances the stamp");
    }

    #[test]
    fn offline_reference_applies_stamping_and_metadata() {
        let mut input = UpdateArchive::new(7);
        let key = SessionKey::new("whatever", Asn(20_205), "192.0.2.9".parse().unwrap());
        let attrs = PathAttributes {
            as_path: "20205 3356".parse().unwrap(),
            next_hop: "192.0.2.1".parse().unwrap(),
            ..Default::default()
        };
        input.record(&key, RouteUpdate::announce(123, "10.0.0.0/8".parse().unwrap(), attrs));
        input.record(&key, RouteUpdate::withdraw(456, "10.0.0.0/8".parse().unwrap()));

        let cfg = CollectorConfig::new("rrc99", Asn(3333), "198.51.100.1".parse().unwrap())
            .with_stamp(StampMode::logical(1_000))
            .with_route_servers([(Asn(20_205), "192.0.2.9".parse().unwrap())]);
        let reference = offline_reference(&input, &cfg);

        assert_eq!(reference.epoch_seconds, 0);
        let new_key = SessionKey::new("rrc99", Asn(20_205), "192.0.2.9".parse().unwrap());
        let rec = reference.session(&new_key).expect("renamed session");
        assert!(rec.meta.route_server, "route-server list applied");
        assert!(!rec.meta.second_granularity);
        let times: Vec<u64> = rec.updates.iter().map(|u| u.time_us).collect();
        assert_eq!(times, vec![0, 1_000], "logical stamping replaces input times");
    }
}
