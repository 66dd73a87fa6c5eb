//! Spans recorded from outside the program, and the self-time arithmetic
//! over them.
//!
//! The benchmark wraps each public call it makes into a layer — a source's
//! `next_item`, a stage's `process`, each sink member, `Pipeline::feed`,
//! `Network::step` — in a span: a layer name, a track (one thread of
//! control), a start and an end. Spans stay in memory until the workload
//! ends; [`Ledger::from_spans`] then nests them per track by interval
//! containment (the innermost enclosing span is the parent) and charges
//! each layer its *self* time: its spans' durations minus the time their
//! child spans cover.
//!
//! Pipelines are sampled per item: a [`TracedSource`] picks about one item
//! in `every` (pseudo-randomly, so the pick cannot lock onto the stride of
//! multi-prefix MRT records), and only that item's calls record spans. A
//! sampled item also gets an [`ITEM`] root span covering its whole cycle,
//! from its `next_item` call to the next one.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use kcc_bgp_types::RouteUpdate;
use kcc_collector::{PeerMeta, SessionKey, SourceError, SourceItem, UpdateSource};
use kcc_core::{AnalysisSink, ClassifiedEvent, Merge, Stage};

/// A layer name, e.g. `"core.clean"`.
pub type Layer = &'static str;

/// Root span of one sampled item's cycle on its thread: from its
/// `next_item` call to the next `next_item` call.
pub const ITEM: Layer = "item";

/// Root span of one whole traced pass on a track (used where every call
/// is traced, as in the simulator's step loop).
pub const PASS: Layer = "pass";

/// Items per sampled item in the traced pipeline passes.
pub const SAMPLE_EVERY: u64 = 16;

thread_local! {
    static SAMPLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether the item this thread is processing is sampled. A
/// [`TracedSource`] sets it for every item it hands out; threads without
/// one record everything.
pub fn sampled() -> bool {
    SAMPLED.with(Cell::get)
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which layer was called.
    pub layer: Layer,
    /// The thread of control the call ran on; spans nest only within a
    /// track.
    pub track: u32,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The shared clock and the store every [`SpanBuf`] flushes into.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    collected: Arc<Mutex<Vec<Span>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), collected: Arc::new(Mutex::new(Vec::new())) }
    }
}

impl Tracer {
    /// A recording buffer for one track.
    pub fn buf(&self, track: u32) -> SpanBuf {
        SpanBuf { epoch: self.epoch, track, spans: Vec::new(), out: Arc::clone(&self.collected) }
    }

    /// Removes and returns every span flushed so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.collected.lock().expect("span store poisoned"))
    }
}

/// A per-wrapper span buffer: pushes take no lock, and the buffer moves
/// into the tracer's store when it is dropped (so buffers moved into
/// worker threads hand their spans back when the library drops them).
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    track: u32,
    spans: Vec<Span>,
    out: Arc<Mutex<Vec<Span>>>,
}

impl SpanBuf {
    /// Nanoseconds since the tracer's epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span of `layer` from `start_ns` until now.
    #[inline]
    pub fn close(&mut self, layer: Layer, start_ns: u64) {
        let end_ns = self.now();
        self.push(layer, start_ns, end_ns);
    }

    /// Records a span of `layer` over `[start_ns, end_ns]`.
    #[inline]
    pub fn push(&mut self, layer: Layer, start_ns: u64, end_ns: u64) {
        self.spans.push(Span { layer, track: self.track, start_ns, end_ns });
    }

    /// Runs `f`, as one span of `layer` when the current item is
    /// [`sampled`].
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !sampled() {
            return f();
        }
        let start = self.now();
        let r = f();
        self.close(layer, start);
        r
    }
}

/// A clone records into the same store and track but starts empty, so
/// spans are never counted twice.
impl Clone for SpanBuf {
    fn clone(&self) -> Self {
        SpanBuf {
            epoch: self.epoch,
            track: self.track,
            spans: Vec::new(),
            out: Arc::clone(&self.out),
        }
    }
}

impl Drop for SpanBuf {
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        // A poisoned store only means another wrapper panicked; the
        // spans are plain data, so keep them.
        let mut out = match self.out.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        out.append(&mut self.spans);
    }
}

/// An [`UpdateSource`] that samples items (see the module docs): a
/// sampled item's `next_item` call is a span of `layer`, and its cycle an
/// [`ITEM`] span.
#[derive(Debug)]
pub struct TracedSource<S> {
    inner: S,
    layer: Layer,
    buf: SpanBuf,
    every: u64,
    rng: u64,
    open_item: Option<u64>,
}

impl<S> TracedSource<S> {
    /// Wraps `inner`, sampling about one item in `every` (1 samples all).
    pub fn new(inner: S, layer: Layer, buf: SpanBuf, every: u64) -> Self {
        TracedSource {
            inner,
            layer,
            buf,
            every: every.max(1),
            rng: 0x9E37_79B9_7F4A_7C15,
            open_item: None,
        }
    }

    /// xorshift64: a fixed, cheap pseudo-random pick.
    fn pick(&mut self) -> bool {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng.is_multiple_of(self.every)
    }
}

impl<S: UpdateSource> UpdateSource for TracedSource<S> {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        let sampled = self.pick();
        SAMPLED.with(|s| s.set(sampled));
        let start = (sampled || self.open_item.is_some()).then(|| self.buf.now());
        if let (Some(item_start), Some(now)) = (self.open_item.take(), start) {
            self.buf.push(ITEM, item_start, now);
        }
        let item = self.inner.next_item();
        if let (true, Some(start)) = (sampled, start) {
            self.buf.close(self.layer, start);
            if matches!(item, Ok(Some(_))) {
                self.open_item = Some(start);
            }
        }
        item
    }
}

/// A [`Stage`] whose sampled calls are spans of `layer`.
#[derive(Debug)]
pub struct TracedStage<S> {
    inner: S,
    layer: Layer,
    buf: SpanBuf,
}

impl<S> TracedStage<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, layer: Layer, buf: SpanBuf) -> Self {
        TracedStage { inner, layer, buf }
    }

    /// The wrapped stage.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Stage> Stage for TracedStage<S> {
    fn on_session(&mut self, meta: &PeerMeta) {
        let inner = &mut self.inner;
        self.buf.time(self.layer, || inner.on_session(meta));
    }

    fn process(&mut self, meta: &PeerMeta, update: RouteUpdate) -> Option<RouteUpdate> {
        let inner = &mut self.inner;
        self.buf.time(self.layer, || inner.process(meta, update))
    }
}

/// An [`AnalysisSink`] whose sampled calls are spans of `layer`. Inside a
/// sink tuple each member is wrapped on its own, so each is timed on its
/// own.
#[derive(Debug, Clone)]
pub struct TracedSink<S> {
    inner: S,
    layer: Layer,
    buf: SpanBuf,
}

impl<S> TracedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, layer: Layer, buf: SpanBuf) -> Self {
        TracedSink { inner, layer, buf }
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: AnalysisSink> AnalysisSink for TracedSink<S> {
    fn on_session(&mut self, meta: &PeerMeta) {
        let inner = &mut self.inner;
        self.buf.time(self.layer, || inner.on_session(meta));
    }

    fn on_update(&mut self, session: &SessionKey, update: &RouteUpdate) {
        let inner = &mut self.inner;
        self.buf.time(self.layer, || inner.on_update(session, update));
    }

    fn on_event(&mut self, session: &SessionKey, event: &ClassifiedEvent) {
        let inner = &mut self.inner;
        self.buf.time(self.layer, || inner.on_event(session, event));
    }

    fn wants_events(&self) -> bool {
        self.inner.wants_events()
    }
}

/// Merging merges the analysis state; the spans stay with their buffers.
impl<S: Merge> Merge for TracedSink<S> {
    fn merge(&mut self, other: Self) {
        self.inner.merge(other.inner);
    }
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: durations minus the time child spans cover.
    pub self_ns: u64,
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Totals by layer name.
    pub layers: BTreeMap<Layer, LayerTotals>,
}

fn is_root(layer: &str) -> bool {
    layer == ITEM || layer == PASS
}

impl Ledger {
    /// Nests `spans` per track by interval containment and sums each
    /// layer's self time.
    pub fn from_spans(mut spans: Vec<Span>) -> Ledger {
        // Parents sort before their children: earlier start first, and
        // on equal starts the longer span first.
        spans.sort_by_key(|s| (s.track, s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            while let Some(&top) = stack.last() {
                let t = &spans[top];
                if t.track == s.track && t.start_ns <= s.start_ns && s.end_ns <= t.end_ns {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                self_ns[parent] = self_ns[parent].saturating_sub(s.duration_ns());
            }
            stack.push(i);
        }
        let mut ledger = Ledger::default();
        for (s, own) in spans.iter().zip(self_ns) {
            let t = ledger.layers.entry(s.layer).or_default();
            t.calls += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += own;
        }
        ledger
    }

    /// A layer's totals (zero when it recorded nothing).
    pub fn get(&self, layer: &str) -> LayerTotals {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    /// A layer's self time per sampled item ([`ITEM`] span).
    pub fn per_item_ns(&self, layer: &str) -> f64 {
        let items = self.get(ITEM).calls;
        if items == 0 {
            return 0.0;
        }
        self.get(layer).self_ns as f64 / items as f64
    }

    /// Σ self time of the non-root layers ÷ the root ([`ITEM`], [`PASS`])
    /// spans' total duration: the share of the traced time the wrapped
    /// calls account for. Zero without root spans.
    pub fn coverage(&self) -> f64 {
        let roots: u64 =
            self.layers.iter().filter(|(l, _)| is_root(l)).map(|(_, t)| t.total_ns).sum();
        if roots == 0 {
            return 0.0;
        }
        let covered: u64 =
            self.layers.iter().filter(|(l, _)| !is_root(l)).map(|(_, t)| t.self_ns).sum();
        covered as f64 / roots as f64
    }
}
