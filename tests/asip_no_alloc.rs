//! A warm `AsipEngine::execute_into` does no heap work. A global
//! allocator that delegates to the system allocator counts the
//! allocations made on the test's own thread.

use afft::asip::engine::AsipEngine;
use afft::core::engine::FftEngine;
use afft::core::Direction;
use afft::num::{Complex, C64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_asip_transforms_allocate_nothing() {
    for n in [64usize, 1024] {
        let mut engine = AsipEngine::new(n).expect("plan");
        let x: Vec<C64> = (0..n)
            .map(|k| Complex::new((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos()))
            .collect();
        let mut out = vec![C64::zero(); n];
        // The first run of each direction generates that program.
        engine.execute_into(&x, &mut out, Direction::Forward).expect("warm-up");
        engine.execute_into(&x, &mut out, Direction::Inverse).expect("warm-up");

        let before = allocations();
        for k in 0..10 {
            let dir = if k % 3 == 1 { Direction::Inverse } else { Direction::Forward };
            engine.execute_into(&x, &mut out, dir).expect("warm run");
        }
        assert_eq!(allocations() - before, 0, "n = {n}: heap allocations in 10 warm runs");
        assert!(engine.last_cycles().expect("ran") > 0);
    }
}
