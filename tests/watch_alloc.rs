//! The watch path's steady-state allocation budget: zero.
//!
//! Once every session, stream, window and community has been seen, an
//! update must not touch the heap — neither in `WatchSink` alone nor in
//! the Overview+Counts+Watch pipeline. A counting global allocator
//! tallies allocations per thread, so tests running in parallel do not
//! see each other's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use keep_communities_clean::analysis::{
    AnalysisSink, CountsSink, OverviewSink, Pipeline, SourceItem, WatchConfig, WatchSink,
};
use keep_communities_clean::collector::{PeerMeta, SessionKey};
use keep_communities_clean::types::{
    Asn, Community, CommunitySet, PathAttributes, Prefix, RouteUpdate,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn tally() {
    // `try_with`: the thread-local may already be gone while a thread
    // tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const SESSIONS: u32 = 8;
const PREFIXES: u32 = 16;
const REPEATS: u64 = 10;
/// Updates in one round: announce → withdraw → announce per stream.
const ROUND: u64 = (SESSIONS * PREFIXES * 3) as u64;

/// The day's sessions (split over two collectors) and, per session, one
/// shared attribute set per prefix.
type Day = Vec<(Arc<PeerMeta>, Vec<(Prefix, Arc<PathAttributes>)>)>;

fn sessions() -> Day {
    (0..SESSIONS)
        .map(|s| {
            let collector = if s % 2 == 0 { "rrc00" } else { "rrc01" };
            let peer = Asn(64_500 + s);
            let key =
                SessionKey::new(collector, peer, format!("10.0.0.{}", s + 1).parse().unwrap());
            let streams = (0..PREFIXES)
                .map(|p| {
                    let prefix: Prefix = format!("10.{s}.{p}.0/24").parse().unwrap();
                    let attrs = PathAttributes {
                        as_path: format!("{} 3356 {}", peer.value(), 65_000 + p).parse().unwrap(),
                        communities: CommunitySet::from_classic([
                            Community::from_parts(3356, 2),
                            Community::from_parts(64_500, p as u16),
                        ]),
                        ..Default::default()
                    };
                    (prefix, Arc::new(attrs))
                })
                .collect();
            (Arc::new(PeerMeta::normal(key)), streams)
        })
        .collect()
}

/// Round `r`'s items, all inside the first (15-minute) detection window.
fn round(day: &Day, r: u64) -> Vec<SourceItem> {
    let mut t = 1_000 + r * ROUND;
    let mut items = Vec::with_capacity(ROUND as usize);
    for (meta, streams) in day {
        for (prefix, attrs) in streams {
            for u in [
                RouteUpdate::announce(t, *prefix, Arc::clone(attrs)),
                RouteUpdate::withdraw(t + 1, *prefix),
                RouteUpdate::announce(t + 2, *prefix, Arc::clone(attrs)),
            ] {
                items.push(SourceItem::Update(Arc::clone(meta), u));
            }
            t += 3;
        }
    }
    items
}

/// Allocations over `REPEATS` rounds after one warm-up round, with every
/// item built up front so only `feed` is counted.
fn steady_state_allocations(mut feed: impl FnMut(SourceItem)) -> u64 {
    let day = sessions();
    for (meta, _) in &day {
        feed(SourceItem::Session(Arc::clone(meta)));
    }
    round(&day, 0).into_iter().for_each(&mut feed);
    let rounds: Vec<Vec<SourceItem>> = (1..=REPEATS).map(|r| round(&day, r)).collect();
    allocations_during(|| rounds.into_iter().flatten().for_each(feed))
}

#[test]
fn watch_sink_steady_state_allocates_nothing() {
    let mut sink = WatchSink::new(WatchConfig::default());
    let n = steady_state_allocations(|item| match item {
        SourceItem::Session(meta) => sink.on_session(&meta),
        SourceItem::Update(meta, u) => sink.on_update(&meta.key, &u),
    });
    assert_eq!(n, 0, "{n} allocations over {} updates", REPEATS * ROUND);
    assert_eq!(sink.finish().updates, (REPEATS + 1) * ROUND);
}

#[test]
fn overview_counts_watch_pipeline_steady_state_allocates_nothing() {
    let sinks =
        (OverviewSink::default(), CountsSink::default(), WatchSink::new(WatchConfig::default()));
    let mut pipeline = Pipeline::new((), sinks);
    let n = steady_state_allocations(|item| pipeline.feed(item));
    assert_eq!(n, 0, "{n} allocations over {} updates", REPEATS * ROUND);
}
