//! The event-driven session engine: thousands of BGP sessions on a
//! bounded worker pool.
//!
//! The thread-per-session runner (PR 4) topped out around hundreds of
//! peers — two OS threads per session is the deployment shape of the
//! original RouteViews quaggas, not of a collector holding the whole
//! table. This module replaces it with readiness multiplexing: **N shard
//! threads** (N ≪ sessions, default 2) each own a [`Poller`]
//! (epoll on Linux, `poll(2)` fallback — [`crate::sys`]), a slab of
//! nonblocking session state objects, and a [`TimerWheel`]. Shard 0 also
//! owns the listening sockets and deals accepted connections round-robin
//! to every shard through an injector queue + waker.
//!
//! Each session is the pure FSM ([`crate::fsm`]) plus resumable framing
//! ([`FrameBuffer`]/[`WriteQueue`]): readable events feed bytes through
//! the frame buffer into `Fsm::handle`, FSM `Send` actions queue into a
//! capped write backlog flushed as the socket accepts, and the FSM's
//! `next_deadline()` arms the shard's timer wheel — hold, keepalive and
//! open-hold timers fire with no thread parked per session. A per-wake
//! read budget keeps one flooding peer from starving the rest of the
//! shard, and the wheel is advanced on *every* loop iteration, so due
//! timers fire even while inbound readiness never pauses.
//!
//! Sessions never migrate between shards, so per-session event order —
//! the property the collector's deterministic logical stamping rests on —
//! is exactly what it was with a dedicated thread.
//!
//! Shards subscribe to the [`ConfigStore`] generation: a committed peer-
//! policy change Ceases disallowed sessions (and refuses new ones at
//! OPEN time) without touching any other session; committed listener
//! changes bind/close extra accept sockets on shard 0.

pub mod framing;
pub mod timer;

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use kcc_bgp_wire::{Message, Notification, SessionConfig, UpdatePacket};
use kcc_collector::ShutdownFlag;

use crate::clock::Clock;
use crate::config::ConfigStore;
use crate::fsm::{Action, DownReason, EstablishedInfo, Fsm, FsmConfig, FsmEvent};
use crate::sys::{new_poller, PollEvent, Poller, PollerKind, Waker, WAKE_TOKEN};
use crate::trace::TraceLevel;
use framing::{FlushOutcome, FrameBuffer, WriteQueue};
use timer::{DueTimer, TimerWheel};

/// What a session reports to the daemon, in order.
#[derive(Debug)]
pub enum SessionEvent {
    /// The handshake completed.
    Established {
        /// Negotiated parameters.
        info: EstablishedInfo,
    },
    /// An UPDATE arrived (only ever after `Established`).
    Update {
        /// Negotiated parameters of the session it arrived on.
        info: EstablishedInfo,
        /// The decoded packet (possibly many prefixes; boxed to keep the
        /// event small on the channel).
        packet: Box<UpdatePacket>,
    },
    /// The session ended.
    Closed {
        /// Negotiated parameters, if the handshake ever completed.
        info: Option<EstablishedInfo>,
        /// Why.
        reason: DownReason,
    },
}

/// Shape of the reactor's worker pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Shard threads. The whole point: workers ≪ sessions.
    pub workers: usize,
    /// Readiness backend.
    pub poller: PollerKind,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { workers: 2, poller: PollerKind::Auto }
    }
}

/// Live counters shared between the shards and the daemon's observers —
/// readable while the reactor runs, which is what lets a soak prove ≥N
/// *concurrent* sessions rather than N sessions ever.
#[derive(Debug, Default)]
pub struct LiveGauges {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Sessions currently Established.
    pub established: AtomicU64,
    /// High-water mark of `established`.
    pub peak_established: AtomicU64,
}

impl LiveGauges {
    fn session_up(&self) {
        let now = self.established.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_established.fetch_max(now, Ordering::Relaxed);
    }

    fn session_down(&self) {
        self.established.fetch_sub(1, Ordering::Relaxed);
    }

    /// Polls until the daemon itself reports `n` concurrently
    /// Established sessions, or `timeout` elapses (returns whether the
    /// count was reached). A dialing client's FSM goes Up half a
    /// round-trip before the daemon processes the closing KEEPALIVE, so
    /// concurrency assertions must wait on this gauge, not on the
    /// client's own count.
    pub fn wait_for_established(&self, n: u64, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.established.load(Ordering::Relaxed) >= n {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}

/// While stopping, cease a session after this long without decoding a
/// message — measured from the last progress, so a backlogged peer
/// finishes its drain instead of dropping received updates.
const STOP_GRACE_MS: u64 = 2_000;
/// Absolute cap on the stopping drain, so a peer that floods forever
/// cannot hold the daemon open.
const STOP_HARD_CAP_MS: u64 = 30_000;
/// Per-session outbound backlog cap (bytes); overflow tears the session
/// down.
const WRITE_QUEUE_CAP: usize = 4 * 1024 * 1024;
/// Per-session bytes read per readiness wake, so one flooding peer cannot
/// starve its shard (level-triggered readiness re-reports the remainder
/// on the next wait).
const READ_BUDGET: usize = 256 * 1024;
/// Poll timeout: how often a shard re-checks the shutdown flag and the
/// config generation when no readiness arrives.
const POLL_MS: i32 = 100;
/// Poll timeout while draining (mirrors the old runner's stop cadence).
const STOP_POLL_MS: i32 = 50;

/// Sessions are addressed as `epoch << SLOT_BITS | slot`; the epoch
/// makes a recycled slot's stale timers detectable.
const SLOT_BITS: u32 = 20;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Listener tokens live above every session token, below [`WAKE_TOKEN`].
const LISTEN_BASE: u64 = u64::MAX - (1 << 16);

const TRACE_TARGET: &str = "reactor";

/// Pre-registered handles into the daemon's metrics registry — built
/// once per shard at spawn, so recording on the hot path is a relaxed
/// atomic and never touches the registry lock.
struct ShardMetrics {
    sessions_established: Arc<kcc_obs::Counter>,
    sessions_ceased: Arc<kcc_obs::Counter>,
    frames_decoded: Arc<kcc_obs::Counter>,
    write_queue_overflows: Arc<kcc_obs::Counter>,
    hold_timer_expiries: Arc<kcc_obs::Counter>,
    poll_wakeups: Arc<kcc_obs::Counter>,
    write_queue_peak: Arc<kcc_obs::Gauge>,
}

impl ShardMetrics {
    fn new(registry: &kcc_obs::Registry, shard: usize) -> Self {
        ShardMetrics {
            sessions_established: registry.counter("kcc_reactor_sessions_established_total"),
            sessions_ceased: registry.counter("kcc_reactor_sessions_ceased_total"),
            frames_decoded: registry.counter("kcc_reactor_frames_decoded_total"),
            write_queue_overflows: registry.counter("kcc_reactor_write_queue_overflows_total"),
            hold_timer_expiries: registry.counter("kcc_reactor_hold_timer_expiries_total"),
            poll_wakeups: registry
                .counter_with("kcc_reactor_poll_wakeups_total", &[("shard", &shard.to_string())]),
            write_queue_peak: registry.gauge("kcc_reactor_write_queue_peak_bytes"),
        }
    }
}

/// A stream handed from the accepting shard to its owning shard.
struct Injector {
    queue: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

/// A running reactor: shard threads plus the shared observability
/// handles. Obtained from [`spawn`]; stopped via the [`ShutdownFlag`]
/// given to it, then [`Reactor::join`]ed.
pub struct Reactor {
    shards: Vec<JoinHandle<()>>,
    gauges: Arc<LiveGauges>,
    listen_addrs: Arc<Mutex<Vec<SocketAddr>>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").field("workers", &self.shards.len()).finish()
    }
}

impl Reactor {
    /// The live counters.
    pub fn gauges(&self) -> Arc<LiveGauges> {
        Arc::clone(&self.gauges)
    }

    /// Every address currently accepting connections (primary bind plus
    /// committed extras).
    pub fn listen_addrs(&self) -> Vec<SocketAddr> {
        self.listen_addrs.lock().unwrap().clone()
    }

    /// Waits for every shard to drain and exit. Trigger the shutdown
    /// flag first (or have every peer disconnect — the listener still
    /// needs the flag to close).
    pub fn join(self) {
        for h in self.shards {
            let _ = h.join();
        }
    }
}

/// Starts the reactor over an already-bound listener. Every accepted
/// connection becomes a passive FSM session; [`SessionEvent`]s flow to
/// `events` in per-session order.
pub fn spawn(
    listener: TcpListener,
    fsm_cfg: FsmConfig,
    clock: Arc<dyn Clock>,
    events: Sender<SessionEvent>,
    shutdown: ShutdownFlag,
    store: Arc<ConfigStore>,
    options: ReactorConfig,
) -> std::io::Result<Reactor> {
    let fsm_cfg = fsm_cfg.passive();
    let primary_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    // Best-effort: a multi-thousand-session connect burst overflows the
    // default backlog of 128 long before shard 0 gets scheduled.
    let _ = crate::sys::raise_listen_backlog(&listener, 8192);

    let workers = options.workers.max(1);
    let mut pollers = Vec::with_capacity(workers);
    for _ in 0..workers {
        pollers.push(new_poller(options.poller)?);
    }
    let injectors: Arc<Vec<Injector>> = Arc::new(
        pollers
            .iter()
            .map(|p| Injector { queue: Mutex::new(Vec::new()), waker: p.waker() })
            .collect(),
    );
    let gauges = Arc::new(LiveGauges::default());
    let listen_addrs = Arc::new(Mutex::new(vec![primary_addr]));

    let mut shards = Vec::with_capacity(workers);
    for (id, poller) in pollers.into_iter().enumerate() {
        let mut shard = Shard {
            id,
            poller,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_epoch: 0,
            wheel: TimerWheel::new(clock.now_ms()),
            listeners: Vec::new(),
            next_listener_token: LISTEN_BASE,
            injectors: Arc::clone(&injectors),
            events: events.clone(),
            shutdown: shutdown.clone(),
            clock: Arc::clone(&clock),
            fsm_cfg: fsm_cfg.clone(),
            store: Arc::clone(&store),
            last_gen: store.generation(),
            gauges: Arc::clone(&gauges),
            metrics: ShardMetrics::new(store.metrics(), id),
            listen_addrs: Arc::clone(&listen_addrs),
            rr_next: 0,
            stopping: false,
            due: Vec::new(),
            ready: Vec::new(),
        };
        if id == 0 {
            shard.add_listener(primary_addr, listener.try_clone()?)?;
            // Committed extra listeners from the initial config.
            shard.apply_listeners();
        }
        shards.push(
            std::thread::Builder::new()
                .name(format!("kcc-reactor-{id}"))
                .spawn(move || shard.run())?,
        );
    }
    drop(listener);
    Ok(Reactor { shards, gauges, listen_addrs })
}

/// One nonblocking session: socket + FSM + resumable framing + armed
/// deadline.
struct Session {
    token: u64,
    stream: TcpStream,
    remote: SocketAddr,
    fsm: Fsm,
    frames: FrameBuffer,
    writes: WriteQueue,
    write_cfg: SessionConfig,
    info: Option<EstablishedInfo>,
    /// The deadline the FSM currently wants (min over its timers).
    armed_deadline: Option<u64>,
    /// The earliest entry physically in the wheel for this session —
    /// re-arming later than this rides the existing entry (lazy
    /// cancellation) instead of inserting per message under flood.
    wheel_deadline: Option<u64>,
    /// Write interest currently registered with the poller.
    want_write: bool,
    /// Set when shutdown began; drives the drain grace window.
    stopping_since: Option<u64>,
    last_progress: u64,
}

struct Shard {
    id: usize,
    poller: Box<dyn Poller>,
    slots: Vec<Option<Session>>,
    free: Vec<usize>,
    live: usize,
    next_epoch: u64,
    wheel: TimerWheel,
    /// Accept sockets (shard 0 only): requested address, token, socket.
    listeners: Vec<(SocketAddr, u64, TcpListener)>,
    next_listener_token: u64,
    injectors: Arc<Vec<Injector>>,
    events: Sender<SessionEvent>,
    shutdown: ShutdownFlag,
    clock: Arc<dyn Clock>,
    fsm_cfg: FsmConfig,
    store: Arc<ConfigStore>,
    last_gen: u64,
    gauges: Arc<LiveGauges>,
    metrics: ShardMetrics,
    listen_addrs: Arc<Mutex<Vec<SocketAddr>>>,
    /// Round-robin cursor for dealing accepted streams (shard 0 only).
    rr_next: usize,
    stopping: bool,
    /// Scratch for due timers / readiness events, reused across loops.
    due: Vec<DueTimer>,
    ready: Vec<PollEvent>,
}

impl Shard {
    fn run(&mut self) {
        loop {
            let timeout = if self.stopping { STOP_POLL_MS } else { POLL_MS };
            self.metrics.poll_wakeups.inc();
            let mut ready = std::mem::take(&mut self.ready);
            if self.poller.wait(&mut ready, timeout).is_err() {
                // A failed wait would spin; treat it as fatal for the
                // shard and drain what we have.
                self.stopping = true;
            }
            let now = self.clock.now_ms();
            for ev in &ready {
                if ev.token == WAKE_TOKEN {
                    self.drain_injector();
                } else if ev.token >= LISTEN_BASE {
                    self.accept_burst(ev.token);
                } else {
                    self.session_io(ev.token, ev.readable, ev.writable, now);
                }
            }
            self.ready = ready;
            self.ready.clear();

            // Timers fire on every iteration — a flood that keeps the
            // poller permanently ready must not starve the keepalive
            // cadence or the hold timer.
            let now = self.clock.now_ms();
            let mut due = std::mem::take(&mut self.due);
            self.wheel.advance(now, &mut due);
            for d in due.drain(..) {
                self.timer_fired(d, now);
            }
            self.due = due;

            let gen = self.store.generation();
            if gen != self.last_gen {
                self.last_gen = gen;
                self.apply_config(now);
            }

            if self.shutdown.is_triggered() && !self.stopping {
                self.begin_stop(now);
            }
            if self.stopping {
                self.sweep_drain(now);
                if self.live == 0 {
                    break;
                }
            }
        }
        // Dropping the events sender (with every other shard's) closes
        // the ingest channel once the last shard drains.
    }

    // ---------------- accept / adopt ----------------

    fn add_listener(
        &mut self,
        requested: SocketAddr,
        listener: TcpListener,
    ) -> std::io::Result<()> {
        let token = self.next_listener_token;
        self.next_listener_token += 1;
        self.poller.register(listener.as_raw_fd(), token, true, false)?;
        self.listeners.push((requested, token, listener));
        self.publish_listen_addrs();
        Ok(())
    }

    fn publish_listen_addrs(&self) {
        let addrs: Vec<SocketAddr> =
            self.listeners.iter().filter_map(|(_, _, l)| l.local_addr().ok()).collect();
        *self.listen_addrs.lock().unwrap() = addrs;
    }

    fn accept_burst(&mut self, token: u64) {
        let Some(idx) = self.listeners.iter().position(|&(_, t, _)| t == token) else {
            return;
        };
        loop {
            match self.listeners[idx].2.accept() {
                Ok((stream, _)) => {
                    self.gauges.accepted.fetch_add(1, Ordering::Relaxed);
                    let target = self.rr_next % self.injectors.len();
                    self.rr_next = self.rr_next.wrapping_add(1);
                    if target == self.id {
                        self.adopt(stream);
                    } else {
                        let injector = &self.injectors[target];
                        injector.queue.lock().unwrap().push(stream);
                        injector.waker.wake();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transient accept failures (peer reset before
                    // accept, fd pressure) must not kill the daemon;
                    // level-triggered readiness retries on the next
                    // wait.
                    break;
                }
            }
        }
    }

    fn drain_injector(&mut self) {
        let streams: Vec<TcpStream> =
            self.injectors[self.id].queue.lock().unwrap().drain(..).collect();
        for stream in streams {
            self.adopt(stream);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if self.stopping {
            return; // accepted during shutdown: close immediately
        }
        let _ = stream.set_nodelay(true);
        let remote = match stream.peer_addr() {
            Ok(a) => a,
            Err(_) => {
                let _ = self
                    .events
                    .send(SessionEvent::Closed { info: None, reason: DownReason::TcpFailed });
                return;
            }
        };
        if stream.set_nonblocking(true).is_err() {
            let _ = self
                .events
                .send(SessionEvent::Closed { info: None, reason: DownReason::TcpFailed });
            return;
        }

        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        assert!(slot as u64 <= SLOT_MASK, "slot space exhausted");
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let token = (epoch << SLOT_BITS) | slot as u64;

        let now = self.clock.now_ms();
        let mut fsm = Fsm::new(self.fsm_cfg.clone());
        let mut actions = fsm.handle(FsmEvent::Start, now);
        actions.extend(fsm.handle(FsmEvent::TcpConnected, now));

        if self.poller.register(stream.as_raw_fd(), token, true, false).is_err() {
            self.free.push(slot);
            let _ = self
                .events
                .send(SessionEvent::Closed { info: None, reason: DownReason::TcpFailed });
            return;
        }
        self.slots[slot] = Some(Session {
            token,
            stream,
            remote,
            fsm,
            frames: FrameBuffer::new(SessionConfig::default(), true),
            writes: WriteQueue::new(WRITE_QUEUE_CAP),
            write_cfg: SessionConfig::default(),
            info: None,
            armed_deadline: None,
            wheel_deadline: None,
            want_write: false,
            stopping_since: None,
            last_progress: now,
        });
        self.live += 1;
        self.store.trace().log(TRACE_TARGET, TraceLevel::Debug, || {
            format!("shard {} adopted {} as token {:#x}", self.id, remote, token)
        });
        if !self.process_actions(slot, actions, now) {
            self.finish_io(slot, now);
        }
    }

    // ---------------- per-session I/O ----------------

    /// Resolves a token to its live slot (stale tokens — the slot was
    /// recycled — resolve to `None`).
    fn resolve(&self, token: u64) -> Option<usize> {
        let slot = (token & SLOT_MASK) as usize;
        match self.slots.get(slot) {
            Some(Some(s)) if s.token == token => Some(slot),
            _ => None,
        }
    }

    fn session_io(&mut self, token: u64, readable: bool, writable: bool, now: u64) {
        let Some(slot) = self.resolve(token) else { return };
        if writable && self.flush_writes(slot) {
            return;
        }
        if readable && self.read_burst(slot, now) {
            return;
        }
        self.finish_io(slot, now);
    }

    /// Reads up to the budget, feeding decoded messages to the FSM.
    /// Returns true when the session was torn down.
    fn read_burst(&mut self, slot: usize, now: u64) -> bool {
        let mut budget = READ_BUDGET;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let take = budget.min(chunk.len());
            if take == 0 {
                return false; // budget spent; level-triggered readiness re-reports
            }
            enum ReadEnd {
                WouldBlock,
                Eof,
                Failed,
                DecodeError(kcc_bgp_wire::WireError),
            }
            let (messages, end) = {
                let sess = self.slots[slot].as_mut().expect("resolved slot");
                match sess.stream.read(&mut chunk[..take]) {
                    Ok(0) => (Vec::new(), Some(ReadEnd::Eof)),
                    Ok(n) => {
                        budget -= n;
                        sess.frames.extend(&chunk[..n]);
                        let mut messages = Vec::new();
                        let mut end = None;
                        loop {
                            match sess.frames.next_message() {
                                Ok(Some(m)) => messages.push(m),
                                Ok(None) => break,
                                Err(w) => {
                                    end = Some(ReadEnd::DecodeError(w));
                                    break;
                                }
                            }
                        }
                        (messages, end)
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        (Vec::new(), Some(ReadEnd::WouldBlock))
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => (Vec::new(), None),
                    Err(_) => (Vec::new(), Some(ReadEnd::Failed)),
                }
            };
            self.metrics.frames_decoded.add(messages.len() as u64);
            for m in messages {
                let actions = {
                    let sess = self.slots[slot].as_mut().expect("resolved slot");
                    sess.last_progress = now;
                    sess.fsm.handle(FsmEvent::Message(m), now)
                };
                if self.process_actions(slot, actions, now) {
                    return true;
                }
            }
            match end {
                None => {}
                Some(ReadEnd::WouldBlock) => return false,
                Some(ReadEnd::Eof) | Some(ReadEnd::Failed) => {
                    let actions = {
                        let sess = self.slots[slot].as_mut().expect("resolved slot");
                        sess.fsm.handle(FsmEvent::TcpFailed, now)
                    };
                    if !self.process_actions(slot, actions, now) {
                        // The FSM chose to survive transport loss (it
                        // does not, for passive sessions — belt and
                        // braces).
                        self.teardown(slot, DownReason::TcpFailed, false);
                    }
                    return true;
                }
                Some(ReadEnd::DecodeError(w)) => {
                    let actions = {
                        let sess = self.slots[slot].as_mut().expect("resolved slot");
                        sess.fsm.handle(FsmEvent::DecodeError(w), now)
                    };
                    if !self.process_actions(slot, actions, now) {
                        self.teardown(slot, DownReason::TcpFailed, true);
                    }
                    return true;
                }
            }
        }
    }

    /// Executes FSM actions for a session. Returns true when the session
    /// was torn down (the slot is then recycled — do not touch it).
    fn process_actions(&mut self, slot: usize, actions: Vec<Action>, now: u64) -> bool {
        for action in actions {
            match action {
                Action::Send(m) => {
                    let (overflow, queued) = {
                        let sess = self.slots[slot].as_mut().expect("resolved slot");
                        let cfg = sess.write_cfg;
                        let overflow = sess.writes.push_message(&m, &cfg).is_err();
                        (overflow, sess.writes.queued())
                    };
                    self.metrics.write_queue_peak.set_max(queued as i64);
                    if overflow {
                        self.metrics.write_queue_overflows.inc();
                        self.store.trace().log(TRACE_TARGET, TraceLevel::Error, || {
                            format!("shard {}: write backlog overflow, ceasing session", self.id)
                        });
                        self.teardown(
                            slot,
                            DownReason::ProtocolError("write backlog overflow"),
                            true,
                        );
                        return true;
                    }
                }
                Action::Up(info) => {
                    if !self.store.running().peers.allows(info.peer_asn) {
                        // Policy refusal at the last pre-announcement
                        // moment: the daemon never reports Established
                        // for a disallowed peer.
                        let sess = self.slots[slot].as_mut().expect("resolved slot");
                        let cfg = sess.write_cfg;
                        let _ = sess.writes.push_message(
                            &Message::Notification(Notification::bad_peer_as()),
                            &cfg,
                        );
                        self.store.trace().log(TRACE_TARGET, TraceLevel::Info, || {
                            format!("refused disallowed peer AS{}", info.peer_asn.0)
                        });
                        self.teardown(slot, DownReason::ProtocolError("peer not allowed"), true);
                        return true;
                    }
                    let remote = {
                        let sess = self.slots[slot].as_mut().expect("resolved slot");
                        sess.write_cfg = info.config;
                        sess.info = Some(info.clone());
                        sess.remote
                    };
                    self.gauges.session_up();
                    self.metrics.sessions_established.inc();
                    self.store.trace().log(TRACE_TARGET, TraceLevel::Info, || {
                        format!("session up: AS{} via {}", info.peer_asn.0, remote)
                    });
                    let _ = self.events.send(SessionEvent::Established { info });
                }
                Action::Deliver(packet) => {
                    let info = {
                        let sess = self.slots[slot].as_ref().expect("resolved slot");
                        sess.info.clone().expect("Deliver only after Up")
                    };
                    let _ =
                        self.events.send(SessionEvent::Update { info, packet: Box::new(packet) });
                }
                Action::Down(reason) => {
                    self.teardown(slot, reason, true);
                    return true;
                }
                Action::StartConnect => unreachable!("passive sessions never dial"),
            }
        }
        let _ = now;
        false
    }

    /// Post-interaction bookkeeping for a still-live session: flush
    /// queued writes and re-arm the timer wheel.
    fn finish_io(&mut self, slot: usize, now: u64) {
        if self.flush_writes(slot) {
            return;
        }
        self.rearm_timer(slot, now);
    }

    /// Flushes the write backlog and keeps poller write interest in sync
    /// with whether anything remains. Returns true when the session was
    /// torn down.
    fn flush_writes(&mut self, slot: usize) -> bool {
        let Some(sess) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return true;
        };
        let outcome = {
            let (writes, stream) = (&mut sess.writes, &mut sess.stream);
            writes.flush(stream)
        };
        match outcome {
            Ok(FlushOutcome::Flushed) => {
                if sess.want_write {
                    sess.want_write = false;
                    let (fd, token) = (sess.stream.as_raw_fd(), sess.token);
                    let _ = self.poller.modify(fd, token, true, false);
                }
                false
            }
            Ok(FlushOutcome::Pending) => {
                if !sess.want_write {
                    sess.want_write = true;
                    let (fd, token) = (sess.stream.as_raw_fd(), sess.token);
                    let _ = self.poller.modify(fd, token, true, true);
                }
                false
            }
            Err(_) => {
                self.teardown(slot, DownReason::TcpFailed, false);
                true
            }
        }
    }

    // ---------------- timers ----------------

    /// Re-arms the wheel with the FSM's current deadline, lazily: an
    /// existing earlier wheel entry is reused, so a flood re-extending
    /// the hold timer on every message does not grow the wheel.
    fn rearm_timer(&mut self, slot: usize, _now: u64) {
        let Some(sess) = self.slots.get_mut(slot).and_then(Option::as_mut) else { return };
        let armed = sess.fsm.next_deadline();
        sess.armed_deadline = armed;
        if let Some(d) = armed {
            if sess.wheel_deadline.is_none_or(|w| d < w) {
                self.wheel.insert(d, sess.token);
                sess.wheel_deadline = Some(d);
            }
        }
    }

    fn timer_fired(&mut self, entry: DueTimer, now: u64) {
        let Some(slot) = self.resolve(entry.token) else { return };
        let fire = {
            let sess = self.slots[slot].as_mut().expect("resolved slot");
            if sess.wheel_deadline == Some(entry.deadline_ms) {
                sess.wheel_deadline = None;
            }
            sess.armed_deadline.is_some_and(|d| now >= d)
        };
        if fire {
            let actions = {
                let sess = self.slots[slot].as_mut().expect("resolved slot");
                sess.fsm.handle(FsmEvent::Timer, now)
            };
            if self.process_actions(slot, actions, now) {
                return;
            }
        }
        self.finish_io(slot, now);
    }

    // ---------------- config / shutdown ----------------

    /// Applies a newly committed running config: Cease sessions whose
    /// peer the policy no longer allows (no other session is touched),
    /// and reconcile extra listeners on shard 0.
    fn apply_config(&mut self, now: u64) {
        let cfg = self.store.running();
        self.store.trace().log(TRACE_TARGET, TraceLevel::Debug, || {
            format!("shard {} applying config generation {}", self.id, self.last_gen)
        });
        for slot in 0..self.slots.len() {
            let disallowed = match &self.slots[slot] {
                Some(s) => s.info.as_ref().is_some_and(|i| !cfg.peers.allows(i.peer_asn)),
                None => false,
            };
            if disallowed {
                self.stop_session(slot, now);
            }
        }
        if self.id == 0 && !self.stopping {
            self.apply_listeners();
        }
    }

    /// Reconciles the extra-listener set with the running config
    /// (shard 0; the primary bind at index 0 is never removed).
    fn apply_listeners(&mut self) {
        let want = self.store.running().listen.clone();
        // Close extras (index ≥ 1) no longer configured.
        let mut i = 1;
        while i < self.listeners.len() {
            if want.contains(&self.listeners[i].0) {
                i += 1;
            } else {
                let (_, _, listener) = self.listeners.remove(i);
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
        }
        // Bind newly configured extras.
        for addr in want {
            if self.listeners.iter().any(|&(req, _, _)| req == addr) {
                continue;
            }
            match TcpListener::bind(addr) {
                Ok(listener) => {
                    if listener.set_nonblocking(true).is_ok() {
                        let _ = crate::sys::raise_listen_backlog(&listener, 8192);
                        let _ = self.add_listener(addr, listener);
                    }
                }
                Err(e) => {
                    self.store.trace().log(TRACE_TARGET, TraceLevel::Error, || {
                        format!("cannot bind extra listener {addr}: {e}")
                    });
                }
            }
        }
        self.publish_listen_addrs();
    }

    /// Administratively stops one session (config removal, drain cap).
    fn stop_session(&mut self, slot: usize, now: u64) {
        let actions = {
            let Some(sess) = self.slots.get_mut(slot).and_then(Option::as_mut) else { return };
            sess.fsm.handle(FsmEvent::Stop, now)
        };
        if actions.is_empty() {
            self.teardown(slot, DownReason::AdminStop, true);
        } else {
            self.process_actions(slot, actions, now);
        }
    }

    fn begin_stop(&mut self, now: u64) {
        self.stopping = true;
        for (_, _, listener) in self.listeners.drain(..) {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        if self.id == 0 {
            self.listen_addrs.lock().unwrap().clear();
        }
        for sess in self.slots.iter_mut().flatten() {
            sess.stopping_since = Some(now);
            sess.last_progress = now;
        }
        self.store.trace().log(TRACE_TARGET, TraceLevel::Info, || {
            format!("shard {} draining {} sessions", self.id, self.live)
        });
    }

    /// While stopping, Cease each session once its quiet window (or the
    /// hard cap) elapses — received updates keep draining until then.
    fn sweep_drain(&mut self, now: u64) {
        for slot in 0..self.slots.len() {
            let expired = match &self.slots[slot] {
                Some(s) => match s.stopping_since {
                    Some(since) => {
                        now.saturating_sub(s.last_progress) >= STOP_GRACE_MS
                            || now.saturating_sub(since) >= STOP_HARD_CAP_MS
                    }
                    None => {
                        // Adopted before the flag flipped but after
                        // begin_stop's sweep: start its window now.
                        if let Some(s) = self.slots[slot].as_mut() {
                            s.stopping_since = Some(now);
                            s.last_progress = now;
                        }
                        false
                    }
                },
                None => false,
            };
            if expired {
                self.stop_session(slot, now);
            }
        }
    }

    fn teardown(&mut self, slot: usize, reason: DownReason, try_flush: bool) {
        let Some(mut sess) = self.slots.get_mut(slot).and_then(Option::take) else { return };
        self.free.push(slot);
        self.live -= 1;
        if try_flush {
            // Best effort: get the queued NOTIFICATION out if the socket
            // will take it.
            let (writes, stream) = (&mut sess.writes, &mut sess.stream);
            let _ = writes.flush(stream);
        }
        let _ = self.poller.deregister(sess.stream.as_raw_fd());
        if sess.info.is_some() {
            self.gauges.session_down();
            self.metrics.sessions_ceased.inc();
        }
        if matches!(reason, DownReason::HoldTimerExpired) {
            self.metrics.hold_timer_expiries.inc();
        }
        self.store.trace().log(TRACE_TARGET, TraceLevel::Debug, || {
            format!("shard {}: session {} down: {:?}", self.id, sess.remote, reason)
        });
        let _ = self.events.send(SessionEvent::Closed { info: sess.info, reason });
        // sess.stream drops here, closing the socket.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;
    use crate::config::DaemonConfig;
    use crate::ActiveSpeaker;
    use kcc_bgp_types::Asn;
    use std::sync::mpsc;
    use std::time::Duration;

    fn collector_cfg() -> FsmConfig {
        FsmConfig::new(Asn(3333), "198.51.100.1".parse().unwrap()).with_hold_time(30)
    }

    fn start_reactor(
        options: ReactorConfig,
    ) -> (Reactor, SocketAddr, mpsc::Receiver<SessionEvent>, ShutdownFlag) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        let shutdown = ShutdownFlag::new();
        let store = Arc::new(ConfigStore::new(DaemonConfig::default()));
        let reactor = spawn(
            listener,
            collector_cfg(),
            Arc::new(WallClock::new()),
            tx,
            shutdown.clone(),
            store,
            options,
        )
        .unwrap();
        (reactor, addr, rx, shutdown)
    }

    /// Dials `addr` as a 90 s-hold peer and completes the handshake.
    fn dial(addr: SocketAddr, asn: Asn, bgp_id: std::net::Ipv4Addr) -> ActiveSpeaker {
        let cfg = FsmConfig::new(asn, bgp_id);
        ActiveSpeaker::connect(addr, cfg, Arc::new(WallClock::new()), Duration::from_secs(5))
            .unwrap()
    }

    /// Full handshake + one UPDATE + Cease against the live reactor,
    /// with the test playing the peer over a real loopback socket —
    /// the coverage the thread-per-session runner's loopback test used
    /// to provide.
    #[test]
    fn inbound_session_end_to_end_over_loopback() {
        let (reactor, addr, rx, shutdown) = start_reactor(ReactorConfig::default());

        let mut peer = dial(addr, Asn(20_205), "192.0.2.9".parse().unwrap());
        let ev = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let SessionEvent::Established { info } = ev else {
            panic!("expected Established, got {ev:?}");
        };
        assert_eq!(info.peer_asn, Asn(20_205));
        assert_eq!(info.hold_time, 30, "min(collector 30, peer 90)");
        assert_eq!(reactor.gauges().established.load(Ordering::Relaxed), 1);

        let packet = UpdatePacket::withdraw("10.0.0.0/8".parse().unwrap());
        peer.send_update(&packet).unwrap();
        let ev = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let SessionEvent::Update { packet: got, .. } = ev else {
            panic!("expected Update, got {ev:?}");
        };
        assert_eq!(*got, packet);

        peer.close().unwrap();
        let ev = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let SessionEvent::Closed { reason, info } = ev else {
            panic!("expected Closed, got {ev:?}");
        };
        assert!(matches!(reason, DownReason::PeerNotification(_)));
        assert!(info.is_some());

        shutdown.trigger();
        reactor.join();
    }

    /// A peer that connects and vanishes produces a Closed event, not a
    /// leaked session.
    #[test]
    fn abrupt_disconnect_reports_closed() {
        let (reactor, addr, rx, shutdown) = start_reactor(ReactorConfig::default());
        let peer = TcpStream::connect(addr).unwrap();
        drop(peer);
        let ev = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(ev, SessionEvent::Closed { info: None, .. }));
        shutdown.trigger();
        reactor.join();
    }

    /// Many sessions multiplex over one worker — the defining reactor
    /// property (workers ≪ sessions) at a unit-test scale, on the
    /// portable poll backend so the fallback earns its keep.
    #[test]
    fn sixteen_sessions_one_worker_poll_backend() {
        let options = ReactorConfig { workers: 1, poller: PollerKind::Poll };
        let (reactor, addr, rx, shutdown) = start_reactor(options);
        let peers: Vec<ActiveSpeaker> = (0..16u32)
            .map(|i| dial(addr, Asn(65_000 + i), std::net::Ipv4Addr::new(192, 0, 2, i as u8 + 1)))
            .collect();
        let mut established = 0;
        while established < 16 {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                SessionEvent::Established { .. } => established += 1,
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(reactor.gauges().peak_established.load(Ordering::Relaxed), 16);
        for peer in peers {
            peer.close().unwrap();
        }
        let mut closed = 0;
        while closed < 16 {
            if let SessionEvent::Closed { .. } = rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                closed += 1;
            }
        }
        let gauges = reactor.gauges();
        shutdown.trigger();
        reactor.join();
        assert_eq!(gauges.established.load(Ordering::Relaxed), 0);
    }
}
