//! Stress tests for the native runtime's sleep/wake and stealing paths.
//!
//! These run in CI with `--test-threads` oversubscribed well past the
//! runner's core count, so every park/unpark and steal race below is
//! exercised under forced preemption.  Each test is deliberately noisy
//! (many pools, many external threads) rather than deep: the goal is to
//! shake out lost wakeups and queue corruption, not to benchmark.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ccs_runtime::{join, spawn, CancelToken, Policy, ThreadPool};

/// Spin until `cond` holds or the deadline passes; panic with `what` on
/// timeout so a lost wakeup fails loudly instead of hanging CI.
fn wait_until(what: &str, deadline: Duration, cond: impl Fn() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        thread::yield_now();
    }
}

/// Hammer the park/unpark path: external threads push bursts of jobs with
/// gaps long enough for workers to walk the full spin → yield → park
/// ladder, so wakes constantly race announce-sleepiness.  Every job must
/// run exactly once.
#[test]
fn park_unpark_hammering_from_external_threads() {
    let pool = Arc::new(ThreadPool::new(3, Policy::WorkStealing));
    let counter = Arc::new(AtomicU64::new(0));
    const PUSHERS: u64 = 4;
    const BURSTS: u64 = 40;
    const BURST_LEN: u64 = 8;

    let pushers: Vec<_> = (0..PUSHERS)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let counter = Arc::clone(&counter);
            thread::spawn(move || {
                for burst in 0..BURSTS {
                    for _ in 0..BURST_LEN {
                        let c = Arc::clone(&counter);
                        pool.spawn_detached(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    // Let the workers drain and fall asleep between
                    // bursts (every ~4th burst sleeps long enough for
                    // the whole backoff ladder to bottom out).
                    if burst % 4 == 0 {
                        thread::sleep(Duration::from_millis(2));
                    } else {
                        thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for p in pushers {
        p.join().unwrap();
    }

    let total = PUSHERS * BURSTS * BURST_LEN;
    wait_until("all hammered jobs to run", Duration::from_secs(60), || {
        counter.load(Ordering::Relaxed) == total
    });
    assert_eq!(counter.load(Ordering::Relaxed), total);
}

/// The no-sleeper publish path must never touch the slow wake machinery:
/// while every worker is verifiably busy, `slow_wakes()` must not move.
/// (The fast path is a fence and a single load; the counter is bumped by the
/// slow path only.)
#[test]
fn busy_publish_never_takes_slow_wake_path() {
    let pool = ThreadPool::new(2, Policy::WorkStealing);
    let gate = Arc::new(AtomicBool::new(false));
    let running = Arc::new(AtomicU64::new(0));
    // Occupy both workers with gated jobs.
    for _ in 0..2 {
        let (gate, running) = (Arc::clone(&gate), Arc::clone(&running));
        pool.spawn_detached(move || {
            running.fetch_add(1, Ordering::SeqCst);
            while !gate.load(Ordering::Acquire) {
                thread::yield_now();
            }
        });
    }
    wait_until("both workers busy", Duration::from_secs(30), || {
        running.load(Ordering::SeqCst) == 2
    });

    let before = pool.slow_wakes();
    let done = Arc::new(AtomicU64::new(0));
    for _ in 0..512 {
        let d = Arc::clone(&done);
        pool.spawn_detached(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(
        pool.slow_wakes(),
        before,
        "pushing to a fully-busy pool must stay on the lock-free fast path"
    );

    gate.store(true, Ordering::Release);
    wait_until("backlog to drain", Duration::from_secs(30), || {
        done.load(Ordering::Relaxed) == 512
    });
}

/// Recursive join under contention: several `install`s from external
/// threads all running a deep fork-join reduction on the same small pool,
/// so help-while-waiting constantly executes *other* tasks' stolen jobs.
#[test]
fn recursive_join_under_contention() {
    fn sum(range: std::ops::Range<u64>) -> u64 {
        let len = range.end - range.start;
        if len <= 32 {
            return range.sum();
        }
        let mid = range.start + len / 2;
        let (a, b) = join(|| sum(range.start..mid), || sum(mid..range.end));
        a + b
    }

    let pool = Arc::new(ThreadPool::new(2, Policy::WorkStealing));
    let expect: u64 = (0..40_000).sum();
    let callers: Vec<_> = (0..4)
        .map(|_| {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                for _ in 0..3 {
                    assert_eq!(pool.install(|| sum(0..40_000)), expect);
                }
            })
        })
        .collect();
    for c in callers {
        c.join().unwrap();
    }
}

/// Cancellation racing the stealing path: queue cancellable jobs while the
/// pool is saturated with fork-join work (so they get batch-stolen around),
/// then trip the token mid-flight.  Every job must either run exactly once
/// or be dropped unrun — never both, never twice.
#[test]
fn spawn_cancellable_races_stealing() {
    let pool = Arc::new(ThreadPool::new(3, Policy::WorkStealing));
    for round in 0..8 {
        let token = CancelToken::new();
        let ran = Arc::new(AtomicU64::new(0));

        // Saturate the workers so cancellable jobs sit in deques and get
        // shuffled by batch steals before they run.
        fn busy(range: std::ops::Range<u64>) -> u64 {
            let len = range.end - range.start;
            if len <= 16 {
                return range.map(|x| x ^ (x << 3)).sum();
            }
            let mid = range.start + len / 2;
            let (a, b) = join(|| busy(range.start..mid), || busy(mid..range.end));
            a.wrapping_add(b)
        }
        let saturator = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.install(|| busy(0..20_000)))
        };

        const JOBS: u64 = 200;
        for _ in 0..JOBS {
            let r = Arc::clone(&ran);
            pool.spawn_cancellable(&token, move || {
                r.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Cancel at a different phase each round: sometimes while the
        // saturator still floods the deques, sometimes after.
        if round % 2 == 0 {
            thread::yield_now();
        } else {
            thread::sleep(Duration::from_millis(round));
        }
        token.cancel();
        saturator.join().unwrap();

        // Queue must fully drain; whatever ran, ran exactly once.
        let settle = Instant::now() + Duration::from_secs(30);
        let mut last = ran.load(Ordering::Relaxed);
        loop {
            thread::sleep(Duration::from_millis(5));
            let now = ran.load(Ordering::Relaxed);
            if now == last {
                break;
            }
            last = now;
            assert!(Instant::now() < settle, "cancellable jobs never settled");
        }
        assert!(
            ran.load(Ordering::Relaxed) <= JOBS,
            "a job ran more than once"
        );
    }
}

/// A panicking detached job executed via the *steal* path (queued from
/// outside, stolen by a worker) must be isolated and counted, and the
/// worker that caught it must keep serving structured work.
#[test]
fn stolen_job_panic_is_isolated() {
    let pool = Arc::new(ThreadPool::new(2, Policy::WorkStealing));
    let before = pool.panics_caught();
    const BOOMS: usize = 16;
    for i in 0..BOOMS {
        pool.spawn_detached(move || panic!("stolen boom {i}"));
    }
    wait_until("panics to be caught", Duration::from_secs(30), || {
        pool.panics_caught() == before + BOOMS
    });

    // Workers all survived: a fork-join reduction still computes.
    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }
    assert_eq!(pool.install(|| fib(15)), 610);
    assert_eq!(pool.panics_caught(), before + BOOMS);
}

/// Many short-lived pools starting and dropping concurrently: shutdown
/// (`notify_all` + join) must reliably rouse parked workers even while
/// other pools churn the scheduler.
#[test]
fn pool_churn_shutdown_wakes_everyone() {
    let churners: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(move || {
                for _ in 0..12 {
                    let pool = ThreadPool::new(2, Policy::WorkStealing);
                    let (a, b) = pool.install(|| join(|| 40, || 2));
                    assert_eq!(a + b, 42);
                    // Let workers park before the drop so shutdown exercises
                    // the wake-from-futex path, not just the busy path.
                    thread::sleep(Duration::from_millis(1));
                    drop(pool);
                }
            })
        })
        .collect();
    for c in churners {
        c.join().unwrap();
    }
}

/// One job forks 10 000 detached children onto its own deque — far past
/// the deque ring's initial capacity, so it grows while the other workers
/// steal from it.  Every child must run exactly once.
#[test]
fn one_job_spawning_ten_thousand_grows_its_deque_under_stealing() {
    const SPAWNS: u64 = 10_000;
    for threads in [2, 4] {
        let pool = ThreadPool::new(threads, Policy::WorkStealing);
        let ran = Arc::new(AtomicU64::new(0));
        {
            let ran = Arc::clone(&ran);
            pool.install(move || {
                for _ in 0..SPAWNS {
                    let ran = Arc::clone(&ran);
                    spawn(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        wait_until(
            "every spawned child to run",
            Duration::from_secs(60),
            || ran.load(Ordering::Relaxed) == SPAWNS,
        );
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), SPAWNS, "a child ran twice");
    }
}

/// A pool dropped while jobs are still queued — on a worker's own deque
/// and on the injector — must release everything those jobs captured, run
/// or not.
#[test]
fn dropping_a_pool_releases_the_captures_of_queued_jobs() {
    const QUEUED: usize = 1_000;
    let pool = ThreadPool::new(1, Policy::WorkStealing);
    let token = CancelToken::new();
    let capture = Arc::new(());
    let ran = Arc::new(AtomicU64::new(0));
    let gate = Arc::new(AtomicBool::new(false));
    {
        let (token, capture, ran, gate) = (
            token.clone(),
            Arc::clone(&capture),
            Arc::clone(&ran),
            Arc::clone(&gate),
        );
        // The only worker queues children from inside, then blocks, so
        // none of them can start before the drop.
        pool.spawn_detached(move || {
            for _ in 0..QUEUED {
                let (token, capture, ran) = (token.clone(), Arc::clone(&capture), Arc::clone(&ran));
                spawn(move || {
                    if !token.is_cancelled() {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(capture);
                });
            }
            drop(capture);
            while !gate.load(Ordering::Acquire) {
                thread::yield_now();
            }
        });
    }
    for _ in 0..QUEUED {
        let (capture, ran) = (Arc::clone(&capture), Arc::clone(&ran));
        pool.spawn_cancellable(&token, move || {
            drop(capture);
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }
    wait_until("the children to be queued", Duration::from_secs(30), || {
        Arc::strong_count(&capture) == 1 + 2 * QUEUED
    });
    token.cancel();
    let opener = thread::spawn(move || {
        thread::sleep(Duration::from_millis(20));
        gate.store(true, Ordering::Release);
    });
    drop(pool);
    opener.join().unwrap();
    assert_eq!(
        Arc::strong_count(&capture),
        1,
        "a queued job leaked its capture"
    );
    assert_eq!(ran.load(Ordering::Relaxed), 0, "a cancelled job ran");
}

/// External bursts separated by gaps long enough for every worker to park.
/// Under the wake filter every job must still run, and a burst must not
/// cost more slow-path wakes than it has jobs: a woken worker is claimed,
/// so later pushes see it awake instead of waking it again.
#[test]
fn external_bursts_with_idle_gaps_wake_at_most_once_per_push() {
    let pool = Arc::new(ThreadPool::new(3, Policy::WorkStealing));
    let ran = Arc::new(AtomicU64::new(0));
    const PUSHERS: u64 = 2;
    const BURSTS: u64 = 25;
    const BURST_LEN: u64 = 16;
    let pushers: Vec<_> = (0..PUSHERS)
        .map(|_| {
            let (pool, ran) = (Arc::clone(&pool), Arc::clone(&ran));
            thread::spawn(move || {
                for _ in 0..BURSTS {
                    for _ in 0..BURST_LEN {
                        let ran = Arc::clone(&ran);
                        pool.spawn_detached(move || {
                            ran.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    thread::sleep(Duration::from_millis(3));
                }
            })
        })
        .collect();
    for p in pushers {
        p.join().unwrap();
    }
    let pushes = PUSHERS * BURSTS * BURST_LEN;
    wait_until("every burst job to run", Duration::from_secs(60), || {
        ran.load(Ordering::Relaxed) == pushes
    });
    assert!(
        pool.slow_wakes() <= pushes,
        "{} slow wakes for {pushes} pushes",
        pool.slow_wakes()
    );
}
