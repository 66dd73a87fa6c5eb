//! The outbound BGP speaker: dial, handshake, stream UPDATEs.
//!
//! [`ActiveSpeaker`] is a single hand-driven client session — the
//! daemon-config and reactor tests use it to poke one session of a live
//! collector at a time (archive replay goes through
//! [`crate::FloodRig`]). The handshake is driven
//! through the same [`Fsm`] as the collector side — OPEN out, OPEN in,
//! KEEPALIVE exchange — synchronously on the calling thread (a handshake
//! is strictly sequential, so threads would buy nothing). Once
//! Established, a background reader drains the peer's keepalives (and
//! watches for a NOTIFICATION) while the caller streams UPDATEs;
//! [`ActiveSpeaker::tick`] keeps our own keepalive cadence against the
//! injected clock.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

use kcc_bgp_wire::{Message, Notification, SessionConfig, UpdatePacket};

use crate::clock::Clock;
use crate::fsm::{Action, DownReason, EstablishedInfo, Fsm, FsmConfig, FsmEvent, State};
use crate::transport::{write_message, MessageReader, TransportError};

/// Failures on the active side.
#[derive(Debug)]
pub enum PeerError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Transport/decode failure.
    Transport(TransportError),
    /// The handshake ended without reaching Established.
    Handshake(DownReason),
    /// The peer tore the session down.
    PeerClosed(Option<Notification>),
    /// Our own FSM tore the session down (e.g. hold-timer expiry after
    /// the collector went silent); the NOTIFICATION was already sent.
    SessionDown(DownReason),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Io(e) => write!(f, "socket: {e}"),
            PeerError::Transport(e) => write!(f, "transport: {e}"),
            PeerError::Handshake(r) => write!(f, "handshake failed: {r:?}"),
            PeerError::PeerClosed(n) => write!(f, "peer closed the session: {n:?}"),
            PeerError::SessionDown(r) => write!(f, "session torn down locally: {r:?}"),
        }
    }
}

impl std::error::Error for PeerError {}

impl From<std::io::Error> for PeerError {
    fn from(e: std::io::Error) -> Self {
        PeerError::Io(e)
    }
}

impl From<TransportError> for PeerError {
    fn from(e: TransportError) -> Self {
        PeerError::Transport(e)
    }
}

/// An established outbound session streaming UPDATEs to a collector.
pub struct ActiveSpeaker {
    stream: TcpStream,
    info: EstablishedInfo,
    fsm: Fsm,
    clock: Arc<dyn Clock>,
    /// NOTIFICATIONs seen by the background reader.
    incoming: Receiver<Option<Notification>>,
    peer_down: Arc<AtomicBool>,
    /// Clock time of the last inbound message, maintained by the reader.
    last_heard_ms: Arc<std::sync::atomic::AtomicU64>,
    reader: Option<std::thread::JoinHandle<()>>,
    updates_sent: u64,
}

impl std::fmt::Debug for ActiveSpeaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSpeaker")
            .field("info", &self.info)
            .field("updates_sent", &self.updates_sent)
            .finish()
    }
}

impl ActiveSpeaker {
    /// Dials `addr` and completes the BGP handshake. Blocks until
    /// Established or failure; `timeout` bounds both the dial and each
    /// handshake read.
    pub fn connect(
        addr: SocketAddr,
        cfg: FsmConfig,
        clock: Arc<dyn Clock>,
        timeout: Duration,
    ) -> Result<Self, PeerError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;

        let mut fsm = Fsm::new(cfg);
        let mut reader = MessageReader::new(stream.try_clone()?, SessionConfig::default(), true);
        let mut write_cfg = SessionConfig::default();
        let now = clock.now_ms();
        let mut pending = fsm.handle(FsmEvent::Start, now);
        pending.extend(fsm.handle(FsmEvent::TcpConnected, now));

        let mut info: Option<EstablishedInfo> = None;
        while info.is_none() {
            for action in pending.drain(..) {
                match action {
                    Action::Send(m) => {
                        write_message(&stream, &m, &write_cfg).map_err(PeerError::Io)?
                    }
                    Action::Up(i) => {
                        write_cfg = i.config;
                        info = Some(i);
                    }
                    Action::Down(reason) => return Err(PeerError::Handshake(reason)),
                    Action::StartConnect => {} // already connected
                    Action::Deliver(_) => {}   // no UPDATEs during handshake
                }
            }
            if info.is_some() {
                break;
            }
            let message =
                reader.read_message()?.ok_or(PeerError::Handshake(DownReason::TcpFailed))?;
            pending = fsm.handle(FsmEvent::Message(message), clock.now_ms());
        }
        let info = info.expect("loop exits only with info");

        // Established: hand the read side to a drain thread. It consumes
        // keepalives and flags a NOTIFICATION or EOF.
        stream.set_read_timeout(None)?;
        let (tx, rx) = mpsc::channel();
        let peer_down = Arc::new(AtomicBool::new(false));
        let down_flag = Arc::clone(&peer_down);
        let last_heard_ms = Arc::new(std::sync::atomic::AtomicU64::new(clock.now_ms()));
        let heard = Arc::clone(&last_heard_ms);
        let reader_clock = Arc::clone(&clock);
        let reader_handle = std::thread::spawn(move || {
            loop {
                match reader.read_message() {
                    Ok(Some(Message::Notification(n))) => {
                        // Send before raising the flag so check_peer
                        // always finds the NOTIFICATION it reports.
                        let _ = tx.send(Some(n));
                        down_flag.store(true, Ordering::SeqCst);
                        return;
                    }
                    Ok(Some(_)) => {
                        // Keepalives (a collector sends nothing else):
                        // record liveness for the hold timer.
                        heard.store(reader_clock.now_ms(), Ordering::SeqCst);
                    }
                    Ok(None) | Err(_) => {
                        let _ = tx.send(None);
                        down_flag.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }
        });

        Ok(ActiveSpeaker {
            stream,
            info,
            fsm,
            clock,
            incoming: rx,
            peer_down,
            last_heard_ms,
            reader: Some(reader_handle),
            updates_sent: 0,
        })
    }

    /// Negotiated session parameters.
    pub fn info(&self) -> &EstablishedInfo {
        &self.info
    }

    /// UPDATEs sent so far.
    pub fn updates_sent(&self) -> u64 {
        self.updates_sent
    }

    fn check_peer(&self) -> Result<(), PeerError> {
        if self.peer_down.load(Ordering::SeqCst) {
            let n = self.incoming.try_recv().ok().flatten();
            return Err(PeerError::PeerClosed(n));
        }
        Ok(())
    }

    /// Sends one UPDATE with the negotiated encoding.
    pub fn send_update(&mut self, packet: &UpdatePacket) -> Result<(), PeerError> {
        self.check_peer()?;
        crate::transport::write_update(&self.stream, packet, &self.info.config)?;
        // Any message we send proves our liveness to the peer.
        self.fsm.note_message_sent(self.clock.now_ms());
        self.updates_sent += 1;
        Ok(())
    }

    /// Sends a KEEPALIVE if our cadence timer is due. Call periodically
    /// during idle stretches.
    pub fn tick(&mut self) -> Result<(), PeerError> {
        self.check_peer()?;
        // Liveness the drain thread observed resets the hold timer
        // before the deadline check.
        let heard = self.last_heard_ms.load(Ordering::SeqCst);
        self.fsm.note_message_received(heard);
        for action in self.fsm.handle(FsmEvent::Timer, self.clock.now_ms()) {
            match action {
                Action::Send(m) => write_message(&self.stream, &m, &self.info.config)?,
                Action::Down(reason) => {
                    // Any NOTIFICATION was written by the Send above;
                    // close and refuse further traffic.
                    self.peer_down.store(true, Ordering::SeqCst);
                    let _ = self.stream.shutdown(std::net::Shutdown::Both);
                    return Err(PeerError::SessionDown(reason));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Graceful teardown: Cease NOTIFICATION, then close.
    pub fn close(mut self) -> Result<(), PeerError> {
        let cease = Message::Notification(Notification::cease_admin_shutdown());
        let result = write_message(&self.stream, &cease, &self.info.config);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
        result.map_err(PeerError::Io)
    }

    /// True while the FSM believes the session is up (informational).
    pub fn is_established(&self) -> bool {
        self.fsm.state() == State::Established && !self.peer_down.load(Ordering::SeqCst)
    }
}

impl Drop for ActiveSpeaker {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}
