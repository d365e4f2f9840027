//! Event dispatch must not allocate on the heap.
//!
//! The paper's results come from hundreds of thousands of dispatched
//! events per run, so a heap allocation per event is the cost that
//! matters. This binary installs a counting global allocator and, for
//! every experiment, measures allocations per dispatched event over a
//! steady-state window: from 30 simulated minutes to 2 h. Measuring
//! between two points leaves out setup and amortized capacity growth.
//!
//! The file is its own test binary with a single `#[test]`, so no
//! concurrently running test adds to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dles_core::experiment::Experiment;
use dles_core::pipeline::build_engine;
use dles_sim::SimTime;

/// Forwards to [`System`], counting every `alloc` and `realloc`.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ceiling on heap allocations per dispatched event in the window.
const MAX_ALLOCS_PER_EVENT: f64 = 0.01;

#[test]
fn steady_state_dispatch_does_not_allocate() {
    let mut failures = Vec::new();
    for exp in Experiment::ALL {
        let mut engine = build_engine(exp.config());
        engine.run_until(SimTime::from_secs(30 * 60));
        let events_before = engine.processed();
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        engine.run_until(SimTime::from_secs(2 * 3600));
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
        let events = engine.processed() - events_before;
        assert!(events > 0, "{exp:?} dispatched no events in the window");
        let ratio = allocs as f64 / events as f64;
        if ratio > MAX_ALLOCS_PER_EVENT {
            failures.push(format!(
                "{exp:?}: {allocs} allocations over {events} events = {ratio:.4} per event"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "event dispatch allocates more than {MAX_ALLOCS_PER_EVENT} times per event:\n{}",
        failures.join("\n")
    );
}
