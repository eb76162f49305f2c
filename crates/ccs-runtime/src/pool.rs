//! The native fork-join thread pool.
//!
//! A [`ThreadPool`] owns a set of worker threads and a scheduling *policy*:
//!
//! * [`Policy::WorkStealing`] — per-worker `crossbeam_deque` deques plus a
//!   global injector; workers pop their own deque LIFO and steal FIFO from
//!   others, exactly the WS discipline of Section 3;
//! * [`Policy::Pdf`] — a single priority pool ordered by the online
//!   sequential-priority labels of [`crate::label`]; an idle worker always
//!   takes the ready task the sequential program would have executed
//!   earliest, the PDF discipline of Section 3.
//!
//! The pool exposes rayon-style structured parallelism: [`ThreadPool::install`]
//! to enter the pool (from outside it), [`join`] for binary fork-join (usable
//! recursively from inside), and [`spawn`] for detached `'static` jobs.
//! `join` lets closures borrow from the caller's stack; this is sound because
//! `join` does not return until both closures have finished (see the safety
//! comments).
//!
//! # Runtime internals (DESIGN.md §14)
//!
//! This is the production work-stealing runtime, built around five ideas:
//!
//! * **a fork writes no shared line** — `join` pushes onto the worker's own
//!   lock-free Chase-Lev deque (the `crossbeam_deque` shim), then consults
//!   the packed sleep-state word of [`crate::sleep`] with a fence and a
//!   single atomic load.  No pool-wide counter is bumped, the registry is
//!   reached by pointer (no refcount traffic), and the futex (or condvar)
//!   is touched only when a worker is asleep and no idle peer is awake.
//! * **a job takes no lock and no malloc** — a queued job is four words
//!   (`crate::job`): a small detached closure is stored inline, and `join`
//!   and `install` queue one pointer to a job on their own stack frame,
//!   with its result slot and latch.  Jobs from outside the pool enter
//!   through the shim's lock-free block-list injector, which allocates one
//!   block per 63 jobs.
//! * **one worker record** — a worker's pool, index, deque, victim rng and
//!   PDF label state live in one `WorkerThread` on its own stack, reached
//!   through a single thread-local pointer.  Under WS a job runs with no
//!   label bookkeeping at all: labels order only the PDF pool.
//! * **batch stealing** — an out-of-work worker steals *batches* from the
//!   injector and from victim deques (`steal_batch_and_pop`), amortising
//!   the synchronisation cost of a steal over several jobs, and scans
//!   victims in seeded-random order instead of a fixed ring, so thieves
//!   don't convoy on the same victim.
//! * **spin → yield → park backoff** — an idle worker spins briefly
//!   (winning the common race where fork-join work reappears within
//!   nanoseconds), yields a few times, and only then parks on the futex
//!   through the announce-sleepiness → recheck → park protocol that cannot
//!   lose wakeups (see [`crate::sleep`]).
//!
//! Optional **CPU pinning** ([`ThreadPool::pinned`]) binds worker `i` to
//! core `i mod N` via raw `sched_setaffinity` on Linux (a no-op elsewhere),
//! which removes migration jitter for latency-sensitive serving.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use crossbeam_deque::{Injector, Steal, Stealer, Worker as Deque};
use parking_lot::Mutex;

use crate::job::{Job, LockLatch, SpinLatch, StackJob};
use crate::label::PdfLabel;
use crate::sleep::SleepState;

/// Scheduling policy of a [`ThreadPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Per-worker deques with stealing (Cilk/rayon style).
    WorkStealing,
    /// Global priority pool ordered by sequential (1DF) priority.
    Pdf,
}

/// Rounds of the idle backoff ladder spent busy-spinning (with an
/// exponentially growing `spin_loop` burst) before moving to yields.
const SPIN_ROUNDS: u32 = 16;
/// Rounds spent calling `yield_now` after the spin phase and before the
/// worker announces sleepiness and parks.
const YIELD_ROUNDS: u32 = 8;

struct Registry {
    policy: Policy,
    /// Jobs submitted from outside the pool, or overflow from workers (WS).
    injector: Injector<Job>,
    /// Steal handles onto every worker's local deque (WS).
    stealers: Vec<Stealer<Job>>,
    /// Global priority pool (PDF): ordered by (label, submission sequence).
    pdf: Mutex<std::collections::BTreeMap<(PdfLabel, u64), Job>>,
    /// Monotonic tie-breaker for PDF jobs with equal labels.
    seq: AtomicUsize,
    shutdown: AtomicBool,
    /// Detached-job panics caught at the pool boundary (see
    /// [`WorkerThread::run_job`]).
    panics_caught: AtomicUsize,
    /// Sleep/wake machinery for idle workers: packed idle/sleepy/asleep
    /// counters, the event counter and one parking slot per worker.
    sleep: SleepState,
    /// Whether workers should bind themselves to CPUs (set by
    /// [`ThreadPool::pinned`]; applied lazily by each worker).
    pin: AtomicBool,
}

impl Registry {
    /// Queue a job.  Worker threads of a WS pool push to their own deque;
    /// everything else goes through the global injector / priority pool.
    /// The label orders the PDF pool only; WS ignores it.
    fn push_job(&self, label: PdfLabel, job: Job) {
        match self.policy {
            // Worker threads push onto their own deque — but only onto a
            // deque owned by *this* pool; a worker of pool A pushing into
            // pool B must use B's injector or the job would be queued (and
            // run) on the wrong pool.
            // SAFETY: the record is used for this push only.
            Policy::WorkStealing => match unsafe { WorkerThread::current() } {
                Some(worker) if ptr::eq(&*worker.registry, self) => worker.deque.push(job),
                _ => self.injector.push(job),
            },
            Policy::Pdf => {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed) as u64;
                self.pdf.lock().insert((label, seq), job);
            }
        }
        // The job is visible in its queue; the pre-park recheck
        // (`has_work`) scans every queue, so this fence-and-load is the
        // whole publish side of the wake protocol (see `crate::sleep`).
        self.sleep.notify_one();
    }

    /// Leave the idle state, passing on a wake that a publisher may have
    /// skipped on this worker's account (see `crate::sleep`).
    fn end_idle(&self) {
        if self.sleep.end_idle() && self.has_work() {
            self.sleep.notify_one();
        }
    }

    /// The recheck: whether any queue holds a job.  Called after
    /// [`SleepState::announce_sleepy`] or a hand-off from
    /// [`SleepState::end_idle`], whose fences order this scan against every
    /// publisher's (see `crate::sleep`).
    fn has_work(&self) -> bool {
        match self.policy {
            Policy::WorkStealing => {
                !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
            }
            Policy::Pdf => !self.pdf.lock().is_empty(),
        }
    }
}

thread_local! {
    /// The record of the worker running on this thread; null on every
    /// thread outside a pool.  Set and cleared by `worker_loop`.
    static WORKER: Cell<*const WorkerThread> = const { Cell::new(ptr::null()) };
    /// The latch `install` blocks this (outside) thread on.
    static LOCK_LATCH: LockLatch = LockLatch::new();
}

/// A worker thread's record.  It lives on `worker_loop`'s frame, and
/// [`WORKER`] points at it while that loop runs, so it outlives every job
/// the thread runs.
struct WorkerThread {
    /// The worker's pool, kept alive for as long as the record exists.
    registry: Arc<Registry>,
    index: usize,
    /// The worker's own deque (WS pools).
    deque: Deque<Job>,
    /// Xorshift64 state for the random victim order.
    rng: Cell<u64>,
    /// Label of the job currently executing on this worker (PDF only).
    label: Cell<PdfLabel>,
    /// Number of children the current job has spawned so far (PDF only).
    children: Cell<u32>,
}

/// Clears [`WORKER`] when `worker_loop` exits, unwinding included, so the
/// pointer never outlives the record.
struct ClearWorker;

impl Drop for ClearWorker {
    fn drop(&mut self) {
        WORKER.with(|w| w.set(ptr::null()));
    }
}

impl WorkerThread {
    fn new(registry: Arc<Registry>, index: usize, deque: Deque<Job>) -> Self {
        // A splitmix64 scramble of the index seeds the victim order, so
        // neighbouring workers draw uncorrelated sequences.
        let mut z = (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        WorkerThread {
            registry,
            index,
            deque,
            rng: Cell::new(z | 1),
            label: Cell::new(PdfLabel::root()),
            children: Cell::new(0),
        }
    }

    /// The calling thread's worker record, or `None` outside every pool.
    ///
    /// # Safety
    /// The caller must not use the reference after the job it runs in has
    /// returned: the record lives on `worker_loop`'s frame, which outlasts
    /// every job run on this thread, but no longer.
    unsafe fn current<'a>() -> Option<&'a WorkerThread> {
        // SAFETY: non-null only while `worker_loop` holds the record (see
        // `ClearWorker`), and only this thread reads it.
        unsafe { WORKER.with(Cell::get).as_ref() }
    }

    /// Register the fork of a child task: the child's priority label.
    ///
    /// Child labels exist to order the PDF priority pool; under the WS
    /// policy they are never consulted, so the (allocating) label
    /// derivation and the child count are skipped and the root label
    /// stands in.
    fn next_child(&self) -> PdfLabel {
        match self.registry.policy {
            Policy::Pdf => {
                let index = self.children.replace(self.children.get() + 1);
                let label = self.label.take();
                let child = label.child(index);
                self.label.set(label);
                child
            }
            Policy::WorkStealing => PdfLabel::root(),
        }
    }

    /// Find a job: local LIFO pop, then a batch steal from the injector,
    /// then batch steals from the other workers in seeded-random order.
    /// Under WS every job runs with the root label.
    fn pop_job(&self) -> Option<(PdfLabel, Job)> {
        match self.registry.policy {
            Policy::WorkStealing => self
                .deque
                .pop()
                .or_else(|| self.steal())
                .map(|job| (PdfLabel::root(), job)),
            Policy::Pdf => self
                .registry
                .pdf
                .lock()
                .pop_first()
                .map(|((label, _), job)| (label, job)),
        }
    }

    /// The WS steal path: batch-steal from the injector, then from victims
    /// in seeded-random order.  Surplus jobs land in the own deque, and one
    /// is returned; if the batch left more behind, one sleeping peer is
    /// notified so surplus doesn't strand on a single busy worker.
    fn steal(&self) -> Option<Job> {
        let stolen = self.try_steal_batches();
        if stolen.is_some() && !self.deque.is_empty() {
            self.registry.sleep.notify_one();
        }
        stolen
    }

    fn try_steal_batches(&self) -> Option<Job> {
        let registry = &self.registry;
        loop {
            match registry.injector.steal_batch_and_pop(&self.deque) {
                Steal::Success(job) => return Some(job),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        let n = registry.stealers.len();
        if n <= 1 {
            return None;
        }
        // Seeded-random victim order: thieves start their scan at
        // uncorrelated positions instead of convoying around a fixed ring.
        let start = (self.next_random() % n as u64) as usize;
        let mut retry = true;
        while std::mem::take(&mut retry) {
            for i in 0..n {
                let victim = (start + i) % n;
                if victim == self.index {
                    continue;
                }
                match registry.stealers[victim].steal_batch_and_pop(&self.deque) {
                    Steal::Success(job) => return Some(job),
                    Steal::Empty => {}
                    Steal::Retry => retry = true,
                }
            }
        }
        None
    }

    /// Advance the xorshift64 state and return the next draw.
    fn next_random(&self) -> u64 {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x
    }

    /// Execute a job with the pool-boundary panic guard.
    ///
    /// Under PDF the job's label becomes the current label for nested
    /// spawns, and the caller's label and child count come back afterwards,
    /// so a `join` help loop can run foreign jobs without corrupting its
    /// own task's labelling.  Under WS labels are never read, so there is
    /// nothing to save.
    ///
    /// A panicking *detached* job is caught and counted instead of killing
    /// the worker (or unwinding into an innocent `join` caller helping while
    /// it waits).  `install` and `join` closures catch internally and
    /// re-raise at their call site, so their panic semantics are unchanged.
    fn run_job(&self, label: PdfLabel, job: Job) {
        let result = match self.registry.policy {
            Policy::WorkStealing => panic::catch_unwind(AssertUnwindSafe(|| job.run())),
            Policy::Pdf => {
                let saved = (self.label.replace(label), self.children.replace(0));
                let result = panic::catch_unwind(AssertUnwindSafe(|| job.run()));
                self.label.set(saved.0);
                self.children.set(saved.1);
                result
            }
        };
        if result.is_err() {
            self.registry.panics_caught.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A fork-join thread pool with a pluggable scheduling policy.
pub struct ThreadPool {
    registry: Arc<Registry>,
    workers: Vec<thread::JoinHandle<()>>,
    num_threads: usize,
}

impl ThreadPool {
    /// Create a pool with `num_threads` worker threads (at least one) and the
    /// given policy.
    pub fn new(num_threads: usize, policy: Policy) -> Self {
        let num_threads = num_threads.max(1);
        let deques: Vec<Deque<Job>> = (0..num_threads).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(Deque::stealer).collect();
        let registry = Arc::new(Registry {
            policy,
            injector: Injector::new(),
            stealers,
            pdf: Mutex::new(std::collections::BTreeMap::new()),
            seq: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panics_caught: AtomicUsize::new(0),
            sleep: SleepState::new(num_threads),
            pin: AtomicBool::new(false),
        });
        let workers = deques
            .into_iter()
            .enumerate()
            .map(|(index, deque)| {
                let registry = Arc::clone(&registry);
                thread::Builder::new()
                    .name(format!("ccs-worker-{index}"))
                    .spawn(move || worker_loop(registry, index, deque))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool {
            registry,
            workers,
            num_threads,
        }
    }

    /// Request CPU pinning: each worker binds itself to core
    /// `index mod available_parallelism` via `sched_setaffinity` (Linux
    /// x86_64/aarch64; silently a no-op elsewhere).  Builder-style:
    ///
    /// ```
    /// use ccs_runtime::{Policy, ThreadPool};
    /// let pool = ThreadPool::new(2, Policy::WorkStealing).pinned(true);
    /// assert!(pool.is_pinned());
    /// ```
    ///
    /// Default off.  Pinning is applied lazily by each worker the next time
    /// it looks for work (parked workers are woken to apply it); passing
    /// `false` later clears the flag but does not unbind already-pinned
    /// workers.
    pub fn pinned(self, pin: bool) -> Self {
        self.registry.pin.store(pin, Ordering::SeqCst);
        if pin {
            // Wake everyone so sleeping workers apply the binding promptly.
            self.registry.sleep.notify_all();
        }
        self
    }

    /// Whether CPU pinning has been requested for this pool.
    pub fn is_pinned(&self) -> bool {
        self.registry.pin.load(Ordering::SeqCst)
    }

    /// The number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The scheduling policy.
    pub fn policy(&self) -> Policy {
        self.registry.policy
    }

    /// Number of detached-job panics caught at the pool boundary so far.
    ///
    /// `install`/`join` closures re-raise panics to their caller, so this
    /// counts only detached jobs ([`ThreadPool::spawn_detached`] and
    /// friends) whose panic would otherwise have killed a worker thread.
    pub fn panics_caught(&self) -> usize {
        self.registry.panics_caught.load(Ordering::Relaxed)
    }

    /// Number of job publications that had to take the slow wake path (an
    /// event bump, plus a futex/condvar wake if a worker was asleep)
    /// because a worker was sleepy or asleep and no idle worker was awake.
    /// Publications while every worker is busy cost a fence and a single
    /// load and do not move this counter — the pool stress suite asserts
    /// exactly that.
    pub fn slow_wakes(&self) -> u64 {
        self.registry.sleep.slow_wakes()
    }

    /// Run `f` on a worker thread of this pool and return its result.  Inside
    /// `f`, [`join`] and [`spawn`] use this pool.
    ///
    /// Must be called from *outside* the pool (e.g. the main thread); calling
    /// it from within one of the pool's own jobs can deadlock.
    pub fn install<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        LOCK_LATCH.with(|latch| {
            let job = StackJob::new(latch, f);
            // SAFETY: `job` stays on this frame until `wait_and_reset`
            // returns, which is after the job has set the latch, its last
            // touch of the frame; and it is queued once.
            self.registry
                .push_job(PdfLabel::root(), unsafe { job.as_job() });
            latch.wait_and_reset();
            job.into_result()
                .unwrap_or_else(|payload| panic::resume_unwind(payload))
        })
    }

    /// Spawn a detached, `'static` job onto the pool with root priority.
    pub fn spawn_detached(&self, f: impl FnOnce() + Send + 'static) {
        self.registry.push_job(PdfLabel::root(), Job::new(f));
    }

    /// Spawn a detached job that is skipped if `token` is cancelled by the
    /// time a worker dequeues it.
    ///
    /// Cancellation is cooperative and coarse: a job that has already
    /// *started* runs to completion (there is no preemption), but a job
    /// still queued when the token trips is dropped unrun — including
    /// everything its closure captured, so e.g. a captured channel sender
    /// disconnects without sending.  This is exactly the "in-flight points
    /// finish, queued points are dropped" semantics the `ccs-serve` daemon
    /// exposes for request cancellation.
    pub fn spawn_cancellable(&self, token: &crate::CancelToken, f: impl FnOnce() + Send + 'static) {
        let token = token.clone();
        self.spawn_detached(move || {
            if !token.is_cancelled() {
                f();
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.shutdown.store(true, Ordering::SeqCst);
        self.registry.sleep.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(registry: Arc<Registry>, index: usize, deque: Deque<Job>) {
    let worker = WorkerThread::new(registry, index, deque);
    WORKER.with(|w| w.set(&worker));
    let _clear = ClearWorker;
    let registry = &worker.registry;
    let mut pinned = false;

    'main: loop {
        maybe_pin(registry, index, &mut pinned);
        if let Some((label, job)) = worker.pop_job() {
            worker.run_job(label, job);
            continue;
        }
        if registry.shutdown.load(Ordering::SeqCst) {
            break;
        }

        // Out of work: walk the spin → yield → park ladder.  Each rung
        // retries the full find-work path; parking goes through the
        // sleepy/recheck protocol so a concurrent push can never be lost.
        registry.sleep.start_idle();
        let mut round = 0u32;
        loop {
            maybe_pin(registry, index, &mut pinned);
            if let Some((label, job)) = worker.pop_job() {
                registry.end_idle();
                worker.run_job(label, job);
                continue 'main;
            }
            if registry.shutdown.load(Ordering::SeqCst) {
                registry.end_idle();
                break 'main;
            }
            if round < SPIN_ROUNDS {
                for _ in 0..(1u32 << round.min(6)) {
                    std::hint::spin_loop();
                }
                round += 1;
            } else if round < SPIN_ROUNDS + YIELD_ROUNDS {
                thread::yield_now();
                round += 1;
            } else {
                let ticket = registry.sleep.announce_sleepy();
                if registry.has_work() || registry.shutdown.load(Ordering::SeqCst) {
                    // The recheck saw something: retract and retry awake.
                    registry.sleep.cancel_sleepy();
                } else {
                    registry.sleep.sleep(index, ticket);
                }
                // Woken (or recheck hit): skip the spin phase, re-probe
                // with a few yields before considering sleep again.
                round = SPIN_ROUNDS;
            }
        }
    }
}

/// Apply a pending CPU-pinning request to this worker (once).
fn maybe_pin(registry: &Registry, index: usize, pinned: &mut bool) {
    if !*pinned && registry.pin.load(Ordering::Acquire) {
        pin_current_thread(index);
        *pinned = true;
    }
}

/// Bind the calling thread to core `index mod N` where `N` is the number
/// of available CPUs.  Raw `sched_setaffinity(2)` on Linux x86_64/aarch64;
/// a no-op returning `false` elsewhere.  Failures are ignored — pinning is
/// a performance hint, never load-bearing.
fn pin_current_thread(index: usize) -> bool {
    #[cfg(ccs_raw_syscalls)]
    {
        let cpus = thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let cpu = index % cpus;
        // 1024-CPU mask, the classic cpu_set_t size.
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: the mask buffer outlives the syscall; pid 0 = this thread.
        let ret =
            unsafe { raw_sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr().cast()) };
        ret == 0
    }
    #[cfg(not(ccs_raw_syscalls))]
    {
        let _ = index;
        false
    }
}

/// Raw `sched_setaffinity(2)`: the workspace vendors its dependencies, so
/// the syscall is issued directly rather than through libc.
///
/// # Safety
/// `mask` must point to `len` valid bytes.
#[cfg(ccs_raw_syscalls)]
unsafe fn raw_sched_setaffinity(pid: i32, len: usize, mask: *const u8) -> i64 {
    #[cfg(target_arch = "x86_64")]
    const SYS: u64 = 203;
    #[cfg(target_arch = "aarch64")]
    const SYS: u64 = 122;
    let ret: i64;
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS as i64 => ret,
            in("rdi") pid as u64,
            in("rsi") len,
            in("rdx") mask,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    #[cfg(target_arch = "aarch64")]
    {
        let ret64: u64;
        std::arch::asm!(
            "svc 0",
            in("x8") SYS,
            inlateout("x0") pid as u64 => ret64,
            in("x1") len as u64,
            in("x2") mask as u64,
            options(nostack)
        );
        ret = ret64 as i64;
    }
    ret
}

/// Fork-join: run `a` and `b`, potentially in parallel, and return both
/// results.  Must be called from inside [`ThreadPool::install`] (or from a job
/// spawned there); outside a pool the two closures simply run sequentially on
/// the calling thread.
///
/// Under the PDF policy `b` is labelled as the next child of the current task,
/// so the pool-wide priority order of pending jobs always matches the order a
/// sequential execution would first reach them.  Under the WS policy `b` is
/// pushed onto the current worker's deque, where other workers can steal it
/// from the bottom.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // SAFETY: `join` returns before the job it runs in.
    let Some(worker) = (unsafe { WorkerThread::current() }) else {
        return (a(), b());
    };
    let registry = &worker.registry;
    let b_label = worker.next_child();

    // `b`, its result slot and its completion flag live on *this* stack
    // frame, and the queued job is one pointer to them: a fork allocates
    // nothing, whatever `b` captures.  The flag is probed (never
    // condvar-waited), so setting it is a single release store.
    let b_job = StackJob::new(SpinLatch::new(), b);
    // SAFETY: `b` may borrow from the caller's stack, and the job borrows
    // this frame.  `join` does not return (nor unwind: `a` is caught) until
    // it sees the flag set, the job's last touch of the frame; and the job
    // is queued once.
    registry.push_job(b_label, unsafe { b_job.as_job() });

    // Run `a` inline.
    let a_result = panic::catch_unwind(AssertUnwindSafe(a));

    // Help execute other jobs until `b` is done (it may be running on another
    // worker, still queued, or popped right here by ourselves).  Helping must
    // never park on the pool's sleep state: the event that frees us is the
    // *latch*, not new work, so we spin/yield between probes instead.
    while !b_job.latch.probe() {
        if let Some((label, job)) = worker.pop_job() {
            worker.run_job(label, job);
        } else {
            std::hint::spin_loop();
            thread::yield_now();
        }
    }

    match (a_result, b_job.into_result()) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(p), _) | (_, Err(p)) => panic::resume_unwind(p),
    }
}

/// The index of the pool worker the caller runs on, or `None` outside every
/// pool.  Code that may be reached either way uses it to decide whether to
/// [`join`] onto the caller's pool or to [`ThreadPool::install`] onto one of
/// its own (installing from inside a pool can deadlock).
pub fn current_thread_index() -> Option<usize> {
    // SAFETY: the record is read once, here.
    unsafe { WorkerThread::current() }.map(|worker| worker.index)
}

/// Spawn a detached `'static` job from inside the pool, labelled as the next
/// child of the current task.  Outside a pool the job runs inline.
pub fn spawn(f: impl FnOnce() + Send + 'static) {
    // SAFETY: the record is used for this push only.
    match unsafe { WorkerThread::current() } {
        Some(worker) => worker.registry.push_job(worker.next_child(), Job::new(f)),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn pools() -> Vec<ThreadPool> {
        vec![
            ThreadPool::new(2, Policy::WorkStealing),
            ThreadPool::new(2, Policy::Pdf),
            ThreadPool::new(1, Policy::WorkStealing),
            ThreadPool::new(1, Policy::Pdf),
        ]
    }

    #[test]
    fn install_returns_value() {
        for pool in pools() {
            let v = pool.install(|| 21 * 2);
            assert_eq!(v, 42);
        }
    }

    #[test]
    fn join_computes_both_sides() {
        for pool in pools() {
            let (a, b) = pool.install(|| join(|| 1 + 1, || 2 + 2));
            assert_eq!((a, b), (2, 4));
        }
    }

    #[test]
    fn join_borrows_from_stack() {
        for pool in pools() {
            let mut left = vec![0u64; 100];
            let mut right = vec![0u64; 100];
            pool.install(|| {
                join(
                    || left.iter_mut().for_each(|x| *x += 1),
                    || right.iter_mut().for_each(|x| *x += 2),
                );
            });
            assert!(left.iter().all(|&x| x == 1));
            assert!(right.iter().all(|&x| x == 2));
        }
    }

    #[test]
    fn recursive_join_fibonacci() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = join(|| fib(n - 1), || fib(n - 2));
            a + b
        }
        for pool in pools() {
            assert_eq!(pool.install(|| fib(16)), 987);
        }
    }

    #[test]
    fn deep_recursion_sums_correctly() {
        fn sum(range: std::ops::Range<u64>) -> u64 {
            let len = range.end - range.start;
            if len <= 64 {
                return range.sum();
            }
            let mid = range.start + len / 2;
            let (a, b) = join(|| sum(range.start..mid), || sum(mid..range.end));
            a + b
        }
        let expect: u64 = (0..100_000).sum();
        for pool in pools() {
            assert_eq!(pool.install(|| sum(0..100_000)), expect);
        }
    }

    #[test]
    fn spawn_detached_runs() {
        for pool in pools() {
            let counter = Arc::new(AtomicU64::new(0));
            for _ in 0..16 {
                let c = Arc::clone(&counter);
                pool.spawn_detached(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            for _ in 0..2000 {
                if counter.load(Ordering::SeqCst) == 16 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(counter.load(Ordering::SeqCst), 16);
        }
    }

    #[test]
    fn spawn_cancellable_runs_when_live_and_skips_when_cancelled() {
        use crate::CancelToken;
        use std::sync::mpsc;

        // Live token: jobs run normally.
        let pool = ThreadPool::new(1, Policy::WorkStealing);
        let token = CancelToken::new();
        let counter = Arc::new(AtomicU64::new(0));
        {
            let c = Arc::clone(&counter);
            pool.spawn_cancellable(&token, move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        for _ in 0..2000 {
            if counter.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);

        // Cancelled-while-queued: block the single worker, queue jobs, trip
        // the token, then release the worker.  The queued closures must be
        // dropped unrun — observed through both the untouched counter and
        // the captured senders disconnecting without sending.
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            pool.spawn_detached(move || {
                while !gate.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        let (tx, rx) = mpsc::channel::<u64>();
        for i in 0..4 {
            let c = Arc::clone(&counter);
            let tx = tx.clone();
            pool.spawn_cancellable(&token, move || {
                c.fetch_add(1, Ordering::SeqCst);
                tx.send(i).unwrap();
            });
        }
        drop(tx);
        token.cancel();
        gate.store(true, Ordering::Release);
        // Receiver disconnects once every queued job has been dropped unrun.
        assert_eq!(rx.iter().count(), 0);
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn join_outside_pool_is_sequential() {
        let (a, b) = join(|| 5, || 7);
        assert_eq!((a, b), (5, 7));
    }

    #[test]
    fn current_thread_index_is_set_only_on_workers() {
        assert_eq!(current_thread_index(), None);
        for pool in pools() {
            let n = pool.num_threads();
            let index = pool.install(current_thread_index).expect("on a worker");
            assert!(index < n);
            let (a, b) = pool.install(|| join(current_thread_index, current_thread_index));
            assert!(a.is_some_and(|i| i < n) && b.is_some_and(|i| i < n));
        }
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn current_thread_index_is_cleared_when_a_worker_exits() {
        use std::sync::mpsc;

        /// Reports, from its thread's TLS teardown (after `worker_loop`
        /// has returned), the index the thread still claims.
        struct ExitProbe(mpsc::Sender<Option<usize>>);
        impl Drop for ExitProbe {
            fn drop(&mut self) {
                let _ = self.0.send(current_thread_index());
            }
        }
        thread_local! {
            static PROBE: Cell<Option<ExitProbe>> = const { Cell::new(None) };
        }

        let (tx, rx) = mpsc::channel();
        for policy in [Policy::WorkStealing, Policy::Pdf] {
            let pool = ThreadPool::new(1, policy);
            let tx = tx.clone();
            pool.install(move || PROBE.with(|p| p.set(Some(ExitProbe(tx)))));
            drop(pool);
            assert_eq!(rx.recv().unwrap(), None, "{policy:?}");
            assert_eq!(current_thread_index(), None);
        }
    }

    /// The PDF label of the job running on this worker.
    fn current_label() -> Vec<u32> {
        // SAFETY: read within the calling job.
        let worker = unsafe { WorkerThread::current() }.expect("on a worker");
        let label = worker.label.take();
        let path = label.path().to_vec();
        worker.label.set(label);
        path
    }

    #[test]
    fn pdf_runs_spawned_children_in_sequential_order() {
        use std::sync::mpsc;

        // One worker, held by a blocker while the parent is queued, so the
        // run order is the priority order alone.
        let pool = ThreadPool::new(1, Policy::Pdf);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            pool.spawn_detached(move || {
                while !gate.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        let (tx, rx) = mpsc::channel();
        let log = move |name: &'static str| {
            let tx = tx.clone();
            move || tx.send((name, current_label())).unwrap()
        };
        pool.spawn_detached(move || {
            let (a1, a2) = (log("A1"), log("A2"));
            let a = log("A");
            spawn(move || {
                a();
                spawn(a1);
                spawn(a2);
            });
            // The help loop runs A, A1 and A2 (all before `b` in 1DF
            // order) inside this job; the parent's label and child count
            // must come back afterwards, so B and C are children 2 and 3.
            join(|| (), || ());
            spawn(log("B"));
            spawn(log("C"));
        });
        gate.store(true, Ordering::Release);
        let ran: Vec<_> = rx.iter().take(5).collect();
        assert_eq!(
            ran,
            [
                ("A", vec![0]),
                ("A1", vec![0, 0]),
                ("A2", vec![0, 1]),
                ("B", vec![2]),
                ("C", vec![3]),
            ]
        );
    }

    #[test]
    fn panics_propagate_from_either_side() {
        let pool = ThreadPool::new(2, Policy::WorkStealing);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                join(|| 1, || -> i32 { panic!("boom") });
            })
        }));
        assert!(r.is_err());
        // The pool is still usable afterwards.
        assert_eq!(pool.install(|| 3), 3);
    }

    #[test]
    fn detached_panic_is_isolated_and_counted() {
        for pool in pools() {
            assert_eq!(pool.panics_caught(), 0);
            pool.spawn_detached(|| panic!("detached boom"));
            for _ in 0..2000 {
                if pool.panics_caught() == 1 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(pool.panics_caught(), 1);
            // Every worker survived: the pool still runs new work, both
            // detached and structured.
            let counter = Arc::new(AtomicU64::new(0));
            for _ in 0..8 {
                let c = Arc::clone(&counter);
                pool.spawn_detached(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            for _ in 0..2000 {
                if counter.load(Ordering::SeqCst) == 8 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(counter.load(Ordering::SeqCst), 8);
            assert_eq!(pool.install(|| 7 * 6), 42);
        }
    }

    #[test]
    fn nested_spawn_from_inside_pool() {
        for pool in pools() {
            let counter = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&counter);
            pool.install(move || {
                for _ in 0..8 {
                    let c = Arc::clone(&c2);
                    spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            for _ in 0..2000 {
                if counter.load(Ordering::SeqCst) == 8 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        }
    }

    #[test]
    fn pool_metadata() {
        let pool = ThreadPool::new(3, Policy::Pdf);
        assert_eq!(pool.num_threads(), 3);
        assert_eq!(pool.policy(), Policy::Pdf);
        let zero = ThreadPool::new(0, Policy::WorkStealing);
        assert_eq!(zero.num_threads(), 1, "clamped to one thread");
    }

    #[test]
    fn pinned_builder_is_usable_and_reports() {
        let pool = ThreadPool::new(2, Policy::WorkStealing).pinned(true);
        assert!(pool.is_pinned());
        assert_eq!(pool.install(|| join(|| 2, || 3)), (2, 3));
        let unpinned = ThreadPool::new(1, Policy::Pdf);
        assert!(!unpinned.is_pinned());
    }

    #[test]
    fn cross_pool_spawn_lands_on_the_right_pool() {
        // A worker of pool A spawning into pool B must route through B's
        // injector (not A's local deque): both pools must stay consistent
        // and drain cleanly afterwards.
        let a = ThreadPool::new(1, Policy::WorkStealing);
        let b = Arc::new(ThreadPool::new(1, Policy::WorkStealing));
        let counter = Arc::new(AtomicU64::new(0));
        let (b2, c2) = (Arc::clone(&b), Arc::clone(&counter));
        a.install(move || {
            let c3 = Arc::clone(&c2);
            b2.spawn_detached(move || {
                c3.fetch_add(1, Ordering::SeqCst);
            });
        });
        for _ in 0..2000 {
            if counter.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        // Both pools still work and drop cleanly (a job misrouted onto the
        // other pool's deque would run there, or never).
        assert_eq!(a.install(|| 1), 1);
        assert_eq!(b.install(|| 2), 2);
    }

    #[test]
    fn busy_pushes_stay_on_the_fast_path() {
        // While the single worker is busy (never sleepy), pushes must not
        // touch the slow wake path.
        let pool = ThreadPool::new(1, Policy::WorkStealing);
        let gate = Arc::new(AtomicBool::new(false));
        let running = Arc::new(AtomicBool::new(false));
        {
            let (gate, running) = (Arc::clone(&gate), Arc::clone(&running));
            pool.spawn_detached(move || {
                running.store(true, Ordering::SeqCst);
                while !gate.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            });
        }
        while !running.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let before = pool.slow_wakes();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..256 {
            let c = Arc::clone(&counter);
            pool.spawn_detached(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(
            pool.slow_wakes(),
            before,
            "no-sleeper pushes must be a fence and a single load"
        );
        gate.store(true, Ordering::Release);
        for _ in 0..5000 {
            if counter.load(Ordering::SeqCst) == 256 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 256);
    }
}
