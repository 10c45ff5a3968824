//! Recording into an existing metric allocates nothing: the registry
//! allocates a metric's name once, when the metric is first recorded. A
//! counting global allocator (per thread, so concurrently running tests
//! cannot bump the count) makes the claim falsifiable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uoi_telemetry::MetricsRegistry;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwards the caller's layout contract unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwards the caller's contract unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn repeat_recording_on_an_existing_metric_allocates_nothing() {
    let m = MetricsRegistry::new();
    m.incr("admm.polish.attempts", 1);
    m.gauge("uoi.progress.completion", 0.25);

    let before = allocations();
    for k in 0..64 {
        m.incr("admm.polish.attempts", 1);
        m.gauge("uoi.progress.completion", k as f64 / 64.0);
    }
    let allocs = allocations() - before;
    assert_eq!(allocs, 0, "64 repeat recordings allocated {allocs} times");
    assert_eq!(m.counter("admm.polish.attempts"), 65);

    // A new name allocates: the check above is not vacuous.
    let before = allocations();
    m.incr("admm.polish.accepted", 1);
    assert!(
        allocations() > before,
        "a first insertion must allocate its key"
    );
}
