//! The pool's job path allocates nothing per job: a `join` fork queues a
//! pointer to a job on its own stack frame, and a small detached closure
//! is stored inline in the queued job.  Only the injector's 63-slot blocks
//! come from the heap.
//!
//! A counting global allocator, in this test binary only, counts every
//! allocation of the process.  The tests therefore run one at a time
//! (`SERIAL`), and a count is the fewest over a few repeats: the test
//! harness reporting another test's result can only add to one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use ccs_runtime::{join, spawn, CancelToken, Policy, ThreadPool};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged; the
// count is a relaxed atomic add with no other effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocations made, process-wide, while `op` runs: the fewest of `reps`
/// runs.
fn allocs(reps: usize, mut op: impl FnMut()) -> usize {
    (0..reps)
        .map(|_| {
            let before = ALLOCS.load(Ordering::SeqCst);
            op();
            ALLOCS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("at least one rep")
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let end = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        thread::yield_now();
    }
}

fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = join(|| fib(n - 1), || fib(n - 2));
    a + b
}

/// `fib` whose second closure captures a 256-byte array by value.
fn fib_heavy(n: u64, pad: [u8; 256]) -> u64 {
    if n < 2 {
        return n + u64::from(black_box(pad)[0]);
    }
    let (a, b) = join(|| fib_heavy(n - 1, pad), move || fib_heavy(n - 2, pad));
    a + b
}

#[test]
fn fork_join_allocations_do_not_grow_with_the_tree() {
    let _serial = serial();
    let pool = ThreadPool::new(2, Policy::WorkStealing);
    // Warm up: thread-locals and the deque rings reach their size.
    for _ in 0..3 {
        pool.install(|| fib(20));
        pool.install(|| fib_heavy(20, [0; 256]));
    }
    let small = allocs(5, || assert_eq!(pool.install(|| fib(12)), 144));
    let large = allocs(5, || assert_eq!(pool.install(|| fib(20)), 6765));
    assert!(
        large.abs_diff(small) <= 1,
        "fib(12) made {small} allocations, fib(20) {large}"
    );
    let small = allocs(5, || {
        assert_eq!(pool.install(|| fib_heavy(12, [0; 256])), 144)
    });
    let large = allocs(5, || {
        assert_eq!(pool.install(|| fib_heavy(20, [0; 256])), 6765)
    });
    assert!(
        large.abs_diff(small) <= 1,
        "with a 256-byte capture: fib(12) made {small} allocations, fib(20) {large}"
    );
}

#[test]
fn a_detached_fan_out_allocates_less_than_once_per_32_jobs() {
    const SPAWNS: u64 = 20_000;
    let _serial = serial();
    let pool = ThreadPool::new(2, Policy::WorkStealing);
    let made = allocs(3, || {
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..SPAWNS {
            // An 8-byte capture: stored inline in the job.
            let c = Arc::clone(&counter);
            pool.spawn_detached(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        wait_until("the fan-out to run", || {
            counter.load(Ordering::Relaxed) == SPAWNS
        });
    });
    assert!(
        made < (SPAWNS / 32) as usize,
        "{made} allocations for {SPAWNS} detached jobs"
    );
}

#[repr(align(64))]
struct Aligned(u64);

#[test]
fn large_and_over_aligned_closures_run_through_every_spawn() {
    let _serial = serial();
    let pool = ThreadPool::new(2, Policy::WorkStealing);
    let token = CancelToken::new();
    let (tx, rx) = mpsc::channel::<u64>();
    // Each closure reports what it captured; the large ones must come
    // back whole and the aligned one at its alignment.
    let big = |tx: mpsc::Sender<u64>| {
        let words: [u64; 8] = std::array::from_fn(|i| i as u64 + 1);
        move || tx.send(words.iter().sum()).unwrap()
    };
    let aligned = |tx: mpsc::Sender<u64>| {
        let value = Aligned(7);
        move || {
            let value = &value;
            assert_eq!(value as *const Aligned as usize % 64, 0, "misaligned");
            tx.send(value.0).unwrap();
        }
    };
    pool.spawn_detached(big(tx.clone()));
    pool.spawn_detached(aligned(tx.clone()));
    pool.spawn_cancellable(&token, big(tx.clone()));
    pool.spawn_cancellable(&token, aligned(tx.clone()));
    {
        let (big_job, aligned_job) = (big(tx.clone()), aligned(tx.clone()));
        pool.install(move || {
            spawn(big_job);
            spawn(aligned_job);
        });
    }
    drop(tx);
    let mut got: Vec<u64> = rx.iter().collect();
    got.sort_unstable();
    assert_eq!(got, [7, 7, 7, 36, 36, 36]);
}

/// A job that skips its body once `token` is cancelled and releases
/// `capture` either way: inline (three words) for `Pad = ()`, boxed for a
/// large or over-aligned `Pad`.
fn queued_job<Pad: Send + 'static>(
    token: &CancelToken,
    capture: &Arc<()>,
    ran: &Arc<AtomicU64>,
    pad: Pad,
) -> impl FnOnce() + Send + 'static {
    let (token, capture, ran) = (token.clone(), Arc::clone(capture), Arc::clone(ran));
    move || {
        if !token.is_cancelled() {
            ran.fetch_add(1, Ordering::Relaxed);
        }
        drop((capture, pad));
    }
}

#[test]
fn queued_captures_are_released_when_the_pool_drops() {
    const QUEUED: usize = 100;
    let _serial = serial();
    let pool = ThreadPool::new(1, Policy::WorkStealing);
    let token = CancelToken::new();
    let capture = Arc::new(());
    let ran = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(AtomicU64::new(0));
    {
        let (token, capture, ran, gate) = (
            token.clone(),
            Arc::clone(&capture),
            Arc::clone(&ran),
            Arc::clone(&gate),
        );
        // The only worker queues children on its own deque, then blocks
        // until the pool is being dropped.
        pool.spawn_detached(move || {
            for _ in 0..QUEUED {
                spawn(queued_job(&token, &capture, &ran, ()));
                spawn(queued_job(&token, &capture, &ran, [0u64; 8]));
            }
            drop(capture);
            while gate.load(Ordering::Acquire) == 0 {
                thread::yield_now();
            }
        });
    }
    // Through the injector: inline and over-aligned.
    for _ in 0..QUEUED {
        pool.spawn_detached(queued_job(&token, &capture, &ran, ()));
        pool.spawn_detached(queued_job(&token, &capture, &ran, Aligned(0)));
    }
    wait_until("the children to be queued", || {
        Arc::strong_count(&capture) == 1 + 4 * QUEUED
    });
    token.cancel();
    let opener = {
        let gate = Arc::clone(&gate);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            gate.store(1, Ordering::Release);
        })
    };
    drop(pool);
    opener.join().unwrap();
    assert_eq!(
        Arc::strong_count(&capture),
        1,
        "a queued job leaked its capture"
    );
    assert_eq!(ran.load(Ordering::Relaxed), 0, "a cancelled job ran");
}
