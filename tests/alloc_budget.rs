//! Heap-allocation budget of the formula route's per-trial kernels.
//!
//! Every formula-route Monte-Carlo and importance-sampling trial prints
//! the analysed column ([`apply_draw`]) and extracts its bit line
//! ([`extract_track`]). Printed geometry borrows its labels from the
//! drawn stack, so a print costs exactly one allocation (its track
//! `Vec`) and an extraction none. A counting global allocator pins
//! both numbers on every patterning option's [`NominalWindow`] stack.
//!
//! The counter is per thread, so tests running in parallel (and the
//! harness's own threads) do not disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpvar::core::experiments::ExperimentContext;
use mpvar::core::NominalWindow;
use mpvar::extract::extract_track;
use mpvar::litho::{apply_draw, sample_draw, Draw};
use mpvar::stats::RngStream;
use mpvar::tech::PatterningOption;

/// Forwards to [`System`], counting allocation calls on the calling
/// thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread tears its TLS down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counter is a const-initialised `Cell` without a
// destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls `f` makes on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// Draws per option that the budget is measured over.
const TRIALS: u64 = 256;

/// Sampled draws of `option` whose print succeeds (failed prints build
/// an error that names the shorted nets; only the success path is
/// budgeted).
fn printable_draws(ctx: &ExperimentContext, window: &NominalWindow<'_>) -> Vec<Draw> {
    let option = window.option();
    let budget = ctx.budget(option).expect("budget");
    let base = RngStream::from_seed(2015);
    (0..TRIALS)
        .map(|k| sample_draw(option, &budget, &mut base.substream(k)).expect("draw"))
        .filter(|d| apply_draw(window.stack(), d).is_ok())
        .collect()
}

#[test]
fn print_and_extract_allocation_budget_per_trial() {
    let ctx = ExperimentContext::quick().expect("context");
    for option in PatterningOption::ALL_WITH_EXTENSIONS {
        let window = NominalWindow::build(&ctx.tech, &ctx.cell, option).expect("window");
        let draws = printable_draws(&ctx, &window);
        assert!(
            draws.len() > TRIALS as usize / 2,
            "{option}: too few prints"
        );
        // Warm-up outside the count, so nothing a first call sets up is
        // charged to the per-trial budget.
        let warm = apply_draw(window.stack(), &draws[0]).expect("prints");
        extract_track(&warm, window.bl_index(), window.metal()).expect("extracts");
        drop(warm);

        for draw in &draws {
            let (print_allocs, printed) =
                allocations_in(|| apply_draw(window.stack(), draw).expect("prints"));
            assert_eq!(
                print_allocs,
                1,
                "{option}: a print of {} tracks allocates its track Vec only",
                printed.len()
            );
            let (extract_allocs, parasitics) = allocations_in(|| {
                extract_track(&printed, window.bl_index(), window.metal()).expect("extracts")
            });
            assert_eq!(extract_allocs, 0, "{option}: extraction allocates nothing");
            assert_eq!(parasitics.net(), "BL");
        }
    }
}

#[test]
fn counter_sees_allocations() {
    // Guards the budget test against a counter that never fires.
    let (n, v) = allocations_in(|| vec![String::from("BL"); 3]);
    assert_eq!(v.len(), 3);
    assert_eq!(n, 4, "one Vec plus three Strings");
}
