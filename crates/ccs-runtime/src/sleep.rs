//! Sleep/wake machinery for idle pool workers: a packed atomic
//! sleep-state word plus a futex-style parking primitive.
//!
//! The design goal (DESIGN.md §14) is a **lock-free wake fast path**: a
//! thread publishing work must learn "is anybody asleep?" from one fence
//! and one load of a word it does not write, touching a syscall or mutex
//! only when a worker actually needs waking.  Under a fork-join workload
//! every `join` is a publish, so anything more — a lock, or a write to a
//! line all workers share — is paid on every fork.
//!
//! # The sleep-state word
//!
//! One `AtomicU64` (the `counts` field) packs three counters,
//! sched-local style:
//!
//! ```text
//! [ reserved:16 | asleep:16 | sleepy:16 | idle:16 ]
//! ```
//!
//! * **idle** — workers out of work, from the moment they start the
//!   spin/yield ladder until they find work again.  Sleepy and asleep
//!   workers still count as idle, so `idle - sleepy - asleep` are the idle
//!   workers that are *awake*;
//! * **sleepy** — workers that have *announced* intent to sleep and are
//!   performing their final recheck;
//! * **asleep** — workers parked (or about to park) that no waker has
//!   claimed yet.
//!
//! A separate `AtomicU32` event counter (the `events` field) is bumped on
//! every wake-worthy event, so a worker about to park can detect
//! "something happened since I decided to sleep".  Each worker parks on a
//! futex word of its own (its *slot*), which reads `BLOCKED` while it is
//! parked and unclaimed.
//!
//! # The wake protocol and why it cannot lose wakeups
//!
//! Worker going to sleep:
//!
//! 1. load `e = events` (SeqCst);
//! 2. announce sleepiness: `counts.sleepy += 1` (SeqCst RMW), then
//!    `fence(SeqCst)`;
//! 3. **recheck**: scan every work queue of the pool;
//! 4. if still empty, move from sleepy to asleep (RMW), store `BLOCKED` to
//!    its slot, and load `events`: if it moved since `e`, unblock and
//!    return; otherwise `futex_wait` on the slot while it reads `BLOCKED`.
//!
//! Publisher:
//!
//! 1. make the work visible: write the job into a queue (a release store
//!    of a worker's deque `bottom`, or the injector's SeqCst tail CAS; no
//!    shared counter is touched);
//! 2. `fence(SeqCst)`, then load `counts`;
//! 3. if `sleepy + asleep == 0`, **done** — this is the fast path;
//! 4. the **wake filter**: if `idle > sleepy + asleep`, some idle worker is
//!    still awake and will find the job (see below), so return too;
//! 5. otherwise bump `events`, which alone stops every sleepy worker from
//!    parking, then reload `counts`.  Only if `asleep > 0` does it scan
//!    the slots, *claim* a `BLOCKED` one by CAS, take it out of `asleep`,
//!    and make the `futex_wake` syscall for it.
//!
//! Why a sleeper cannot miss the job: the two fences are ordered one way
//! or the other in the single total order of SeqCst operations.  If the
//! worker's fence comes first, the publisher's `counts` load (after its
//! fence) sees the worker's sleepy announcement (before the worker's
//! fence), and it takes the slow path.  If the publisher's fence comes
//! first, the worker's recheck (after its fence) sees the job (written
//! before the publisher's fence), and it does not park.
//!
//! For the lock-free injector the job is visible through its tail index:
//! the publisher's tail CAS comes before its fence, and the sleeper's
//! recheck (`is_empty`) loads the head and the tail after its own.  A
//! consumer that claims the slot before the job is written waits for the
//! slot's `WRITE` bit, so a recheck that saw the claimed position never
//! leads to a lost job.
//!
//! Why the slow path reaches it: the worker's step 4 and the publisher's
//! step 5 are again ordered one way or the other.  Either the worker's
//! `events` load follows the bump, and it does not park; or it precedes
//! the bump, and then the publisher's reload sees the worker asleep and
//! its scan sees the slot `BLOCKED`, so some parked worker is claimed.  A
//! claimed worker wakes even if it has not reached `futex_wait` yet: the
//! kernel checks the slot word, which no longer reads `BLOCKED`.
//!
//! The claimer, not the woken worker, decrements `asleep`.  A woken thread
//! may wait milliseconds for a CPU; were it still counted asleep, every
//! publish in between would take the slow path and repeat the syscall
//! (a wake storm).  Exactly one CAS takes a slot out of `BLOCKED` per
//! park — the claimer's, or the worker's own when it unblocks in step 4 —
//! and its winner decrements, so the count stays exact.  The increment
//! precedes the `BLOCKED` store, so it never underflows.
//!
//! Why the wake filter loses nothing: an awake idle worker (including a
//! claimed one not yet running) has not yet announced sleepiness, so by
//! the argument above its own recheck, or an earlier find-work attempt,
//! sees the job.  If instead it finds *other* work, it leaves the idle
//! state through [`SleepState::end_idle`], which tells it whether it was
//! the last awake idle worker while others sleep.  If so it passes the
//! wake on: it rechecks the queues (fenced the same way, so it sees every
//! job whose publisher counted on it) and, if a job is left, notifies.
//! The filter saves the wake on the common fork-join case where a peer is
//! spinning and about to steal anyway.
//!
//! On Linux x86_64/aarch64 parking is a raw `futex(2)` syscall (no libc
//! needed); elsewhere a mutex + condvar pair per slot provides identical
//! semantics (the mutex is touched only on the slow path, so the
//! fast-path claim holds on every platform).

use std::sync::atomic::{self, AtomicU32, AtomicU64, Ordering};

/// Bit offsets of the packed counters in [`SleepState::counts`].
const IDLE_SHIFT: u32 = 0;
const SLEEPY_SHIFT: u32 = 16;
const ASLEEP_SHIFT: u32 = 32;

/// One packed-counter increment at the given field offset.
const fn one(shift: u32) -> u64 {
    1u64 << shift
}

/// One 16-bit field of a packed counts word.
const fn field(counts: u64, shift: u32) -> u64 {
    (counts >> shift) & 0xffff
}

/// Whether a publisher seeing `counts` must wake someone: a worker is
/// sleepy or asleep, and no idle worker is still awake to find the job
/// (the wake filter; see the module docs).
const fn needs_wake(counts: u64) -> bool {
    let waiting = field(counts, SLEEPY_SHIFT) + field(counts, ASLEEP_SHIFT);
    waiting > 0 && field(counts, IDLE_SHIFT) <= waiting
}

/// Slot states: a worker's slot reads `BLOCKED` from just before it parks
/// until a waker (or the worker itself) claims it back to `AWAKE`.
const AWAKE: u32 = 0;
const BLOCKED: u32 = 1;

/// A ticket returned by [`SleepState::announce_sleepy`]: the event-counter
/// value observed *before* the final queue recheck.  Parking with a stale
/// ticket returns immediately instead of sleeping.
#[derive(Clone, Copy, Debug)]
pub struct SleepTicket(u32);

/// The pool-global sleep state: packed idle/sleepy/asleep counters, the
/// event counter, and one parking slot per worker (see the module docs
/// for the protocol).
pub struct SleepState {
    /// Packed `[asleep | sleepy | idle]` counters.
    counts: AtomicU64,
    /// Bumped on every wake-worthy event; tickets are its values.
    events: AtomicU32,
    /// One futex word per worker, `AWAKE` or `BLOCKED`.
    slots: Box<[Futex]>,
    /// Diagnostic: how many wakes took the slow path (an `events` bump,
    /// plus a claimed slot and a futex/condvar wake when a worker is
    /// asleep).  The fast path never touches it — asserted by the pool
    /// stress suite.
    slow_wakes: AtomicU64,
}

impl SleepState {
    /// A fresh state for `workers` workers: everybody awake and busy.
    pub fn new(workers: usize) -> Self {
        SleepState {
            counts: AtomicU64::new(0),
            events: AtomicU32::new(0),
            slots: (0..workers).map(|_| Futex::new()).collect(),
            slow_wakes: AtomicU64::new(0),
        }
    }

    /// A worker ran out of work and enters its spin/yield phase.
    pub fn start_idle(&self) {
        self.counts.fetch_add(one(IDLE_SHIFT), Ordering::SeqCst);
    }

    /// The idle worker found work (or shut down) and leaves the idle phase.
    ///
    /// A publisher may have skipped a wake because this worker was awake
    /// and idle.  Returns `true` if the caller must pass such a wake on: it
    /// was the last idle worker still awake, and others are sleepy or
    /// asleep.  The caller then rechecks the queues (this call fenced them)
    /// and, if a job is left, calls [`SleepState::notify_one`].
    #[must_use]
    pub fn end_idle(&self) -> bool {
        let before = self.counts.fetch_sub(one(IDLE_SHIFT), Ordering::SeqCst);
        let hand_off = needs_wake(before - one(IDLE_SHIFT));
        if hand_off {
            // Pairs with the fence of any publisher that saw this worker
            // idle: the caller's recheck sees that publisher's job.
            atomic::fence(Ordering::SeqCst);
        }
        hand_off
    }

    /// Announce intent to sleep.  Must be followed by a queue recheck and
    /// then either [`SleepState::cancel_sleepy`] (work appeared) or
    /// [`SleepState::sleep`] (park on the returned ticket).
    pub fn announce_sleepy(&self) -> SleepTicket {
        let ticket = SleepTicket(self.events.load(Ordering::SeqCst));
        self.counts.fetch_add(one(SLEEPY_SHIFT), Ordering::SeqCst);
        // Pairs with the publisher's fence in `notify_one`: either the
        // caller's recheck sees the job, or the publisher sees this
        // announcement (module docs).
        atomic::fence(Ordering::SeqCst);
        ticket
    }

    /// The final recheck found work: retract the sleepiness announcement.
    pub fn cancel_sleepy(&self) {
        self.counts.fetch_sub(one(SLEEPY_SHIFT), Ordering::SeqCst);
    }

    /// Park worker `index` until a waker claims its slot, or return at once
    /// if an event has invalidated `ticket`.  Converts the announced
    /// sleepiness into sleep for the duration of the park.
    pub fn sleep(&self, index: usize, ticket: SleepTicket) {
        let slot = &self.slots[index];
        self.counts.fetch_add(
            one(ASLEEP_SHIFT).wrapping_sub(one(SLEEPY_SHIFT)),
            Ordering::SeqCst,
        );
        slot.word.store(BLOCKED, Ordering::SeqCst);
        if self.events.load(Ordering::SeqCst) != ticket.0 {
            // Something happened since the ticket: don't park.  If a waker
            // claimed the slot meanwhile, it has already uncounted us.
            if slot.claim() {
                self.counts.fetch_sub(one(ASLEEP_SHIFT), Ordering::SeqCst);
            }
            return;
        }
        while slot.word.load(Ordering::SeqCst) == BLOCKED {
            slot.wait(BLOCKED);
        }
    }

    /// The publisher-side wake, called after the job is written into a
    /// queue: a fence and one load on the fast path.  The slow path runs
    /// only when a worker is sleepy or asleep and no idle worker is awake.
    #[inline]
    pub fn notify_one(&self) {
        atomic::fence(Ordering::SeqCst);
        if needs_wake(self.counts.load(Ordering::SeqCst)) {
            self.wake(1);
        }
    }

    /// Unconditional broadcast: bump the event counter and wake every
    /// parked worker.  Used for shutdown and configuration changes
    /// (pinning), never on the push path.
    pub fn notify_all(&self) {
        self.wake(usize::MAX);
    }

    /// The slow path: stop every sleepy worker from parking, then claim and
    /// wake up to `n` parked ones.
    #[cold]
    fn wake(&self, mut n: usize) {
        self.slow_wakes.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::SeqCst);
        // The reload must follow the bump (module docs).
        if field(self.counts.load(Ordering::SeqCst), ASLEEP_SHIFT) == 0 {
            return;
        }
        for slot in self.slots.iter() {
            if n == 0 {
                break;
            }
            if slot.word.load(Ordering::SeqCst) == BLOCKED && slot.claim() {
                self.counts.fetch_sub(one(ASLEEP_SHIFT), Ordering::SeqCst);
                slot.wake();
                n -= 1;
            }
        }
    }

    /// Number of slow-path wakes so far (diagnostic; see the stress suite).
    pub fn slow_wakes(&self) -> u64 {
        self.slow_wakes.load(Ordering::Relaxed)
    }

    /// Snapshot of the packed counters as `(idle, sleepy, asleep)`.
    pub fn snapshot(&self) -> (u16, u16, u16) {
        let w = self.counts.load(Ordering::SeqCst);
        (
            field(w, IDLE_SHIFT) as u16,
            field(w, SLEEPY_SHIFT) as u16,
            field(w, ASLEEP_SHIFT) as u16,
        )
    }
}

/// A futex-style parking primitive over one `u32` word: `wait` sleeps only
/// while the word still holds the expected value; `wake` makes the waiter
/// recheck.  Raw `futex(2)` on Linux x86_64/aarch64, mutex + condvar
/// elsewhere.
struct Futex {
    word: AtomicU32,
    #[cfg(not(ccs_raw_syscalls))]
    fallback: FallbackParker,
}

// The raw-syscall path is gated on one cfg so the fallback is compiled (and
// unit-tested) everywhere else.  `--cfg ccs_raw_syscalls` is set from
// build.rs; see there for the platform condition.
impl Futex {
    fn new() -> Self {
        Futex {
            word: AtomicU32::new(AWAKE),
            #[cfg(not(ccs_raw_syscalls))]
            fallback: FallbackParker::new(),
        }
    }

    /// Take the slot out of `BLOCKED`; `true` for the one caller that does.
    fn claim(&self) -> bool {
        self.word
            .compare_exchange(BLOCKED, AWAKE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

#[cfg(ccs_raw_syscalls)]
impl Futex {
    /// Park until the word differs from `expected` (kernel-checked
    /// atomically), a wake arrives, or a spurious return.
    fn wait(&self, expected: u32) {
        unsafe {
            futex_syscall(
                &self.word,
                sys::FUTEX_WAIT | sys::FUTEX_PRIVATE_FLAG,
                expected,
            );
        }
    }

    fn wake(&self) {
        unsafe {
            futex_syscall(&self.word, sys::FUTEX_WAKE | sys::FUTEX_PRIVATE_FLAG, 1);
        }
    }
}

#[cfg(ccs_raw_syscalls)]
mod sys {
    pub const FUTEX_WAIT: u32 = 0;
    pub const FUTEX_WAKE: u32 = 1;
    pub const FUTEX_PRIVATE_FLAG: u32 = 128;

    #[cfg(target_arch = "x86_64")]
    pub const SYS_FUTEX: u64 = 202;
    #[cfg(target_arch = "aarch64")]
    pub const SYS_FUTEX: u64 = 98;
}

/// Raw `futex(2)` with a null timeout: `FUTEX_WAIT` blocks indefinitely
/// (until woken or `*uaddr != val`), `FUTEX_WAKE` wakes up to `val`
/// waiters.  The workspace vendors its dependencies, so the syscall is
/// issued directly rather than through libc.
///
/// # Safety
/// `word` must stay valid for the duration of the call (it does: the
/// `SleepState` lives in the pool registry, which outlives every worker).
#[cfg(ccs_raw_syscalls)]
unsafe fn futex_syscall(word: &AtomicU32, op: u32, val: u32) -> i64 {
    let uaddr = word as *const AtomicU32;
    let ret: i64;
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::asm!(
            "syscall",
            inlateout("rax") sys::SYS_FUTEX as i64 => ret,
            in("rdi") uaddr,
            in("rsi") op as u64,
            in("rdx") val as u64,
            in("r10") 0u64, // timeout: null = wait forever
            in("r8") 0u64,
            in("r9") 0u64,
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
            in("x8") sys::SYS_FUTEX,
            inlateout("x0") uaddr as u64 => ret64,
            in("x1") op as u64,
            in("x2") val as u64,
            in("x3") 0u64, // timeout
            in("x4") 0u64,
            in("x5") 0u64,
            options(nostack)
        );
        ret = ret64 as i64;
    }
    ret
}

/// The portable fallback parker: a mutex + condvar per slot.  Only `wait`
/// and the (already slow-path) wake touch the mutex, so the publisher fast
/// path stays a fence and a load here too.
#[cfg(not(ccs_raw_syscalls))]
struct FallbackParker {
    mutex: parking_lot::Mutex<()>,
    cond: parking_lot::Condvar,
}

#[cfg(not(ccs_raw_syscalls))]
impl FallbackParker {
    fn new() -> Self {
        FallbackParker {
            mutex: parking_lot::Mutex::new(()),
            cond: parking_lot::Condvar::new(),
        }
    }
}

#[cfg(not(ccs_raw_syscalls))]
impl Futex {
    fn wait(&self, expected: u32) {
        let mut guard = self.fallback.mutex.lock();
        // Atomic-recheck equivalent of FUTEX_WAIT: a waker changes the word
        // before it takes this mutex to notify, so a change after this
        // check finds the waiter already inside `cond.wait`.
        if self.word.load(Ordering::SeqCst) != expected {
            return;
        }
        self.fallback.cond.wait(&mut guard);
    }

    fn wake(&self) {
        let _guard = self.fallback.mutex.lock();
        self.fallback.cond.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fast_path_is_silent_when_nobody_sleeps() {
        let state = SleepState::new(1);
        for _ in 0..1000 {
            state.notify_one();
        }
        assert_eq!(state.slow_wakes(), 0);
        assert_eq!(state.snapshot(), (0, 0, 0));
    }

    #[test]
    fn counters_pack_and_unpack() {
        let state = SleepState::new(1);
        state.start_idle();
        state.start_idle();
        let ticket = state.announce_sleepy();
        assert_eq!(state.snapshot(), (2, 1, 0));
        state.cancel_sleepy();
        assert_eq!(state.snapshot(), (2, 0, 0));
        assert!(!state.end_idle());
        assert!(!state.end_idle());
        assert_eq!(state.snapshot(), (0, 0, 0));
        // A ticket from before a bump parks without sleeping.  `sleep`
        // consumes the open sleepiness announcement either way.
        state.notify_all();
        state.announce_sleepy();
        state.sleep(0, ticket); // stale: returns immediately
        assert_eq!(state.snapshot(), (0, 0, 0));
    }

    #[test]
    fn stale_ticket_never_blocks() {
        let state = SleepState::new(1);
        let ticket = state.announce_sleepy();
        state.notify_one(); // slow path: a sleepy worker is visible
        assert_eq!(state.slow_wakes(), 1);
        // The event bump invalidated the ticket, so this returns at once
        // rather than parking forever (nobody else will wake us).
        state.sleep(0, ticket);
        assert_eq!(state.snapshot(), (0, 0, 0));
    }

    #[test]
    fn awake_idle_worker_filters_the_wake_and_passes_it_on() {
        let state = SleepState::new(1);
        // Two idle workers, one of them sleepy: the other is still awake.
        state.start_idle();
        state.start_idle();
        let ticket = state.announce_sleepy();
        state.notify_one();
        assert_eq!(state.slow_wakes(), 0, "the awake idle worker finds the job");
        // The awake one finds work while its peer is sleepy: it was the last
        // awake idle worker, so it must pass the skipped wake on.
        assert!(state.end_idle(), "the last awake idle worker hands off");
        state.notify_one();
        assert_eq!(state.slow_wakes(), 1);
        state.sleep(0, ticket); // stale after the handed-on bump: returns at once
        assert!(!state.end_idle(), "nobody left to wake");
        assert_eq!(state.snapshot(), (0, 0, 0));
    }

    #[test]
    fn parked_thread_is_woken_by_notify() {
        let state = Arc::new(SleepState::new(1));
        let woke = Arc::new(AtomicBool::new(false));
        let handle = {
            let state = Arc::clone(&state);
            let woke = Arc::clone(&woke);
            std::thread::spawn(move || {
                let ticket = state.announce_sleepy();
                state.sleep(0, ticket);
                woke.store(true, Ordering::SeqCst);
            })
        };
        // Wait until the worker is really asleep, then wake it.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while state.snapshot().2 == 0 {
            assert!(std::time::Instant::now() < deadline, "never fell asleep");
            std::thread::yield_now();
        }
        state.notify_one();
        handle.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
        assert_eq!(state.snapshot(), (0, 0, 0));
        assert!(state.slow_wakes() >= 1);
    }

    #[test]
    fn notify_all_releases_every_sleeper() {
        let state = Arc::new(SleepState::new(4));
        let handles: Vec<_> = (0..4)
            .map(|index| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    let ticket = state.announce_sleepy();
                    state.sleep(index, ticket);
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while state.snapshot().2 != 4 {
            assert!(std::time::Instant::now() < deadline, "sleepers missing");
            std::thread::yield_now();
        }
        state.notify_all();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(state.snapshot(), (0, 0, 0));
    }
}
