//! The pool's unit of work: a four-word [`Job`], and the [`StackJob`]
//! that `join` and `install` keep on their own stack frame.
//!
//! A job is three words of inline closure storage plus one
//! `unsafe fn(*mut u8, run: bool)` that either runs what the storage holds
//! (`run == true`) or only releases it (`false`, a job dropped unrun).
//! Exactly one of the two happens, once.  The storage holds one of:
//!
//! * the closure itself, when it fits in three words and needs no more
//!   than word alignment — a detached `spawn` of a small capture queues
//!   without touching the allocator;
//! * a `Box` of the closure, when it is larger or over-aligned;
//! * a pointer to a [`StackJob`]: `join` and `install` keep the closure,
//!   its result slot and its completion latch on the waiting thread's
//!   stack, so a fork queues one pointer and allocates nothing, whatever
//!   the closure captures.
//!
//! A queued job is therefore 32 bytes on 64-bit targets, and moving it
//! between deques and the injector is a bitwise copy.

use std::cell::UnsafeCell;
use std::mem::{self, ManuallyDrop, MaybeUninit};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use parking_lot::{Condvar, Mutex};

/// Inline closure storage: three words, word-aligned.
type Inline = MaybeUninit<[usize; 3]>;

/// A queued unit of work (see the module docs).
pub(crate) struct Job {
    data: Inline,
    call: unsafe fn(*mut u8, bool),
}

// SAFETY: a job is built only from a `Send` closure (`Job::new`) or from a
// pointer to a `StackJob` whose closure and result are `Send`
// (`StackJob::as_job`), so whatever thread runs or drops it may own what
// the storage holds.
unsafe impl Send for Job {}

impl Job {
    /// A job running `f`: inline when `f` fits the storage, boxed if not.
    pub(crate) fn new<F: FnOnce() + Send + 'static>(f: F) -> Job {
        if mem::size_of::<F>() <= mem::size_of::<Inline>()
            && mem::align_of::<F>() <= mem::align_of::<Inline>()
        {
            let mut data = Inline::uninit();
            // SAFETY: `F` fits the storage in size and alignment (checked
            // above), and `call_inline::<F>` reads it back as an `F`.
            unsafe { data.as_mut_ptr().cast::<F>().write(f) };
            Job {
                data,
                call: call_inline::<F>,
            }
        } else {
            Job::from_ptr(Box::into_raw(Box::new(f)), call_boxed::<F>)
        }
    }

    /// A job whose storage is the single pointer `ptr`; `call` receives a
    /// pointer to the word that holds it.
    fn from_ptr<P>(ptr: *const P, call: unsafe fn(*mut u8, bool)) -> Job {
        let mut data = Inline::uninit();
        // SAFETY: a pointer is one word, which the storage holds.
        unsafe { data.as_mut_ptr().cast::<*const P>().write(ptr) };
        Job { data, call }
    }

    /// Run the job.  A panic of a `Job::new` closure unwinds out of here,
    /// after the closure's captures are released.
    pub(crate) fn run(self) {
        let mut job = ManuallyDrop::new(self);
        // SAFETY: `call` gets the storage it was built for, once: the job
        // is in a `ManuallyDrop`, so `Drop` does not call it again.
        unsafe { (job.call)(job.data.as_mut_ptr().cast(), true) }
    }
}

impl Drop for Job {
    fn drop(&mut self) {
        // SAFETY: a job that was never run reaches here, once, and gives
        // `call` the storage it was built for.
        unsafe { (self.call)(self.data.as_mut_ptr().cast(), false) }
    }
}

/// Run or release a closure stored inline.
///
/// # Safety
/// `data` holds an `F` written by [`Job::new`] and not yet read.
unsafe fn call_inline<F: FnOnce()>(data: *mut u8, run: bool) {
    let f = data.cast::<F>().read();
    if run {
        f();
    }
}

/// Run or release a boxed closure.
///
/// # Safety
/// `data` holds a pointer from `Box::<F>::into_raw`, not yet reclaimed.
unsafe fn call_boxed<F: FnOnce()>(data: *mut u8, run: bool) {
    let f = Box::from_raw(data.cast::<*mut F>().read());
    if run {
        f();
    }
}

/// What a [`StackJob`] sets when it is done.
pub(crate) trait Latch {
    /// Set the latch.
    ///
    /// # Safety
    /// `this` is valid on entry.  The waiter may return, and free the
    /// frame `this` points into, as soon as it sees the latch set, so the
    /// set is the job's last touch of that frame.
    unsafe fn set(this: *const Self);
}

/// The `join` latch: a flag the waiting worker probes between the jobs it
/// helps with.
pub(crate) struct SpinLatch(AtomicBool);

impl SpinLatch {
    pub(crate) fn new() -> Self {
        SpinLatch(AtomicBool::new(false))
    }

    /// Whether the job is done; its result is then visible.
    pub(crate) fn probe(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl Latch for SpinLatch {
    unsafe fn set(this: *const Self) {
        // Publishes the job's result slot to the `probe` that sees it.
        (*this).0.store(true, Ordering::Release);
    }
}

/// The `install` latch: a thread outside the pool blocks on it.  Each
/// thread keeps one for its whole life (a thread-local), so the setter's
/// unlock never touches freed memory, and `install` allocates nothing.
pub(crate) struct LockLatch {
    done: Mutex<bool>,
    cond: Condvar,
}

impl LockLatch {
    pub(crate) fn new() -> Self {
        LockLatch {
            done: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    /// Block until the latch is set, then reset it for the next use.
    pub(crate) fn wait_and_reset(&self) {
        let mut done = self.done.lock();
        while !*done {
            self.cond.wait(&mut done);
        }
        *done = false;
    }
}

impl Latch for &LockLatch {
    unsafe fn set(this: *const Self) {
        // Copy the reference out of the job's frame first: the waiter
        // cannot see the flag, and leave, before the lock is released.
        let latch: &LockLatch = *this;
        let mut done = latch.done.lock();
        *done = true;
        latch.cond.notify_all();
    }
}

/// A job whose closure, result slot and latch live on the stack of the
/// thread that waits for it.  The queued [`Job`] is one pointer to it.
pub(crate) struct StackJob<L, F, R> {
    pub(crate) latch: L,
    func: UnsafeCell<Option<F>>,
    /// Written once by the job, before it sets the latch; read by the
    /// waiter after it sees the latch set.
    result: UnsafeCell<Option<thread::Result<R>>>,
}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch,
    F: FnOnce() -> R + Send,
    R: Send,
{
    pub(crate) fn new(latch: L, func: F) -> Self {
        StackJob {
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
        }
    }

    /// The one-pointer job that runs this one.
    ///
    /// # Safety
    /// The caller queues the job at most once, and keeps `self` in place
    /// until it sees the latch set: the job borrows the frame, and the
    /// latch is its last touch of it.
    pub(crate) unsafe fn as_job(&self) -> Job {
        Job::from_ptr(self, Self::execute)
    }

    /// The job's `call`: run the closure, catching its panic into the
    /// result slot, then set the latch.  A job dropped unrun only sets the
    /// latch; the closure is then dropped with the `StackJob`.
    ///
    /// # Safety
    /// `data` holds the pointer `as_job` stored, whose target is in place.
    unsafe fn execute(data: *mut u8, run: bool) {
        let this = data.cast::<*const Self>().read();
        if run {
            let func = (*(*this).func.get()).take().expect("a stack job runs once");
            let result = panic::catch_unwind(AssertUnwindSafe(func));
            *(*this).result.get() = Some(result);
        }
        L::set(&(*this).latch);
    }

    /// The closure's result, or its panic.  Call only after the latch is
    /// seen set.
    pub(crate) fn into_result(self) -> thread::Result<R> {
        self.result
            .into_inner()
            .expect("a stack job finished without running")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_job_is_four_words() {
        assert_eq!(mem::size_of::<Job>(), 4 * mem::size_of::<usize>());
    }

    #[test]
    fn inline_and_boxed_jobs_run_once_or_release_their_captures() {
        let capture = Arc::new(());
        let inline = {
            let capture = Arc::clone(&capture);
            move || drop(capture)
        };
        let boxed = {
            let (capture, pad) = (Arc::clone(&capture), [1u64; 8]);
            move || assert_eq!(pad.iter().sum::<u64>(), 8, "{capture:?}")
        };
        #[repr(align(64))]
        struct Aligned(Arc<()>);
        let aligned = {
            let value = Aligned(Arc::clone(&capture));
            move || {
                let value = &value;
                assert_eq!(value as *const Aligned as usize % 64, 0);
                assert!(Arc::strong_count(&value.0) > 1);
            }
        };
        Job::new(inline.clone()).run();
        Job::new(boxed.clone()).run();
        Job::new(aligned).run();
        assert_eq!(Arc::strong_count(&capture), 3, "run jobs release");
        drop(Job::new(inline));
        drop(Job::new(boxed));
        assert_eq!(Arc::strong_count(&capture), 1, "unrun jobs release");
    }

    #[test]
    fn a_panicking_inline_job_releases_its_capture_once() {
        let capture = Arc::new(());
        let job = {
            let capture = Arc::clone(&capture);
            Job::new(move || {
                let _held = capture;
                panic!("boom");
            })
        };
        assert!(panic::catch_unwind(AssertUnwindSafe(|| job.run())).is_err());
        assert_eq!(Arc::strong_count(&capture), 1);
    }

    #[test]
    fn a_stack_job_stores_its_result_then_sets_its_latch() {
        let stack = StackJob::new(SpinLatch::new(), || 6 * 7);
        // SAFETY: `stack` stays on this frame past the latch probe below.
        let job = unsafe { stack.as_job() };
        assert!(!stack.latch.probe());
        job.run();
        assert!(stack.latch.probe());
        assert_eq!(stack.into_result().ok(), Some(42));

        let stack = StackJob::new(SpinLatch::new(), || -> u32 { panic!("boom") });
        // SAFETY: as above.
        unsafe { stack.as_job() }.run();
        assert!(stack.latch.probe());
        assert!(stack.into_result().is_err(), "the panic is caught");
    }
}
