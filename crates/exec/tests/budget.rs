//! The process-wide core budget: concurrent and nested maps never run
//! more bodies at once than the cores the budget hands out plus their
//! callers, and a panicking map neither leaks a slot nor loses its
//! payload.
//!
//! The budget is process-global, so the tests in this file take turns.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mpvar_exec::{available_parallelism, try_par_map_range};

static SERIAL: Mutex<()> = Mutex::new(());

fn spin(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Runs one map of `available_parallelism()` chunks whose bodies each
/// wait until every chunk has started, and returns how many bodies saw
/// all of them running at once — every one of them, exactly when the
/// map got a helper for each chunk but its caller's.
fn bodies_seeing_full_concurrency() -> usize {
    let width = available_parallelism();
    let started = AtomicUsize::new(0);
    let full = try_par_map_range(width, width, |_| {
        started.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while started.load(Ordering::SeqCst) < width && Instant::now() < deadline {
            std::thread::yield_now();
        }
        Ok::<_, ()>(started.load(Ordering::SeqCst) == width)
    })
    .expect("infallible body");
    full.into_iter().filter(|&f| f).count()
}

#[test]
fn concurrent_nested_maps_never_oversubscribe() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Three OS threads stand in for concurrent service waves; each runs
    // an 8-wide map whose bodies run 8-wide maps of their own.
    const CALLERS: usize = 3;
    let active = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let leaves = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            scope.spawn(|| {
                try_par_map_range(8, 8, |_| {
                    try_par_map_range(16, 8, |_| {
                        let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        // Sleeping, not spinning: a body that holds no
                        // core still counts, so the peak measures how
                        // many threads the maps started, not how the OS
                        // happened to time-slice them.
                        std::thread::sleep(Duration::from_millis(2));
                        active.fetch_sub(1, Ordering::SeqCst);
                        leaves.fetch_add(1, Ordering::SeqCst);
                        Ok::<_, ()>(())
                    })
                })
                .expect("infallible bodies");
            });
        }
    });
    assert_eq!(leaves.load(Ordering::SeqCst), CALLERS * 8 * 16);
    let bound = available_parallelism() - 1 + CALLERS;
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        peak <= bound,
        "{peak} bodies ran at once; the budget allows {bound} \
         ({} helper slots + {CALLERS} callers)",
        available_parallelism() - 1
    );
    // Every slot came back: a fresh map gets a helper per chunk.
    assert_eq!(bodies_seeing_full_concurrency(), available_parallelism());
}

#[test]
fn panicking_chunks_return_their_slots_and_reraise_the_payload() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Mix which chunk panics and how long the others run, so the panic
    // lands on the caller and on helpers, with the caller both busy and
    // already lending its slot.
    for round in 0..24usize {
        let n = 64;
        let bad = [n - 1, 0, n / 2][round % 3];
        let caught = panic::catch_unwind(|| {
            try_par_map_range(n, 8, |i| {
                if i == bad {
                    spin(Duration::from_micros(50 * (round % 4) as u64));
                    panic::panic_any("chunk body failed");
                }
                Ok::<_, ()>(i)
            })
        })
        .expect_err("the panic reaches the caller");
        assert_eq!(
            caught.downcast_ref::<&str>(),
            Some(&"chunk body failed"),
            "the original payload is re-raised (round {round})"
        );
    }
    // A later map still gets all its helpers, and still computes.
    assert_eq!(bodies_seeing_full_concurrency(), available_parallelism());
    let got = try_par_map_range(100, 8, |i| Ok::<_, ()>(i * 3)).expect("infallible body");
    assert_eq!(got, (0..100).map(|i| i * 3).collect::<Vec<_>>());
}
