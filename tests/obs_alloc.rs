//! Counting-allocator proof of the "disabled obs is free" claim: with
//! the no-op recorder installed, every obs call an engine hot path can
//! make — tracer records, probe spans, counter/gauge/histogram updates —
//! performs zero heap allocations.
//!
//! This lives in its own integration-test binary because the global
//! allocator hook is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Only the measuring test thread counts. The harness spawns the
    /// other test's thread (name, stack, capture buffer: all heap) while
    /// this one may already be inside its measurement window, and those
    /// allocations are not the code under test's. Const-initialised and
    /// without a destructor, so reading it from the allocator is safe.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The allocation counter is process-global, so the two tests must not
/// overlap: one test's allocations would land inside the other's
/// measurement window when the harness runs them on parallel threads.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

use des::{ObsConfig, Recorder, SpanKind};

/// Every obs operation reachable from an event hot path must be
/// allocation-free on disabled handles.
#[test]
fn disabled_obs_hot_path_allocates_nothing() {
    let _serial = SERIAL.lock().unwrap();
    COUNTED.set(true);
    let recorder = Recorder::off();
    let tracer = recorder.tracer("hot");
    let counter = recorder.counter("c", &[("engine", "x")]);
    let gauge = recorder.gauge("g", &[("engine", "x")]);
    let histogram = recorder.histogram("h", &[("engine", "x")]);
    assert!(!recorder.is_enabled());

    let before = allocations();
    for i in 0..50_000u64 {
        tracer.instant(SpanKind::EventDeliver, i, i);
        tracer.begin(SpanKind::NodeRun, i);
        tracer.end(SpanKind::NodeRun, i, 1);
        counter.inc();
        counter.add(3);
        gauge.set(i);
        gauge.set_max(i);
        histogram.record(i);
    }
    // Reading empty traces off a disabled recorder is also free
    // (`Vec::new` does not allocate).
    assert!(recorder.recent_traces(16).is_empty());
    assert_eq!(
        allocations() - before,
        0,
        "disabled obs handles allocated on the hot path"
    );
}

/// Sanity check on the harness itself: the same loop against an enabled
/// recorder must be observed by the counter (ring setup + registry).
#[test]
fn enabled_obs_is_visible_to_the_allocation_counter() {
    let _serial = SERIAL.lock().unwrap();
    COUNTED.set(true);
    let before = allocations();
    let recorder = Recorder::new(&ObsConfig::enabled());
    let tracer = recorder.tracer("hot");
    for i in 0..100u64 {
        tracer.instant(SpanKind::EventDeliver, i, i);
    }
    assert!(
        allocations() > before,
        "enabled recorder setup should allocate"
    );
    assert_eq!(recorder.recent_traces(200)[0].records.len(), 100);
}

/// `seq-workset` allocates nothing per node run. With the off recorder,
/// what a run allocates is its setup: a port list per node and a deque
/// per port that carries an event (plus the arena and workset, which grow
/// logarithmically). Each node of a chain runs once, so a longer chain
/// adds as many node runs as nodes; the allocations it adds must stay
/// within that setup, one per node and one per port.
#[test]
fn seq_workset_allocations_do_not_grow_with_node_runs() {
    use circuit::generators::inverter_chain;
    use circuit::{DelayModel, Stimulus};
    use des::engine::seq::SeqWorksetEngine;
    use des::Engine;

    let _serial = SERIAL.lock().unwrap();
    let d = DelayModel::standard();
    let engine = SeqWorksetEngine::new();
    let measure = |len: usize| {
        let c = inverter_chain(len);
        let s = Stimulus::random_vectors(&c, 1, 10, 5);
        COUNTED.set(true);
        let before = allocations();
        let out = engine.run(&c, &s, &d);
        let allocated = allocations() - before;
        COUNTED.set(false);
        let ports: usize = c.nodes().iter().map(|n| n.kind.num_inputs()).sum();
        (out.stats.node_runs, c.num_nodes() + ports, allocated)
    };
    let (small_runs, small_setup, small_allocs) = measure(1_000);
    let (big_runs, big_setup, big_allocs) = measure(4_000);
    let extra_runs = big_runs - small_runs;
    let extra_setup = big_setup - small_setup;
    let extra_allocs = big_allocs.saturating_sub(small_allocs);
    assert!(extra_runs >= 3_000, "the longer chain adds node runs ({extra_runs})");
    assert!(
        extra_allocs <= extra_setup + 16,
        "{extra_allocs} more allocations for {extra_runs} more node runs \
         (setup accounts for {extra_setup})"
    );
}
