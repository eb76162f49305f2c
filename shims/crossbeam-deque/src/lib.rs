//! Offline stand-in for the subset of `crossbeam-deque` this workspace uses.
//!
//! Provides [`Worker`], [`Stealer`], [`Injector`] and [`Steal`] with the same
//! API and semantics as the real crate: per-owner LIFO (or FIFO) pops, FIFO
//! steals from the opposite end, and a shared FIFO injector.  Nothing here
//! takes a lock on the push or steal paths.
//!
//! [`Worker`]/[`Stealer`] are a lock-free Chase-Lev deque, with the C11
//! orderings of Lê, Pop, Cohen and Zappa Nardelli ("Correct and Efficient
//! Work-Stealing for Weak Memory Models", PPoPP 2013).  The owner pushes and
//! pops at the *bottom* without a lock; a pop costs one `SeqCst` fence, and
//! only the pop of the very last item races the thieves with a CAS.  Thieves
//! claim the item at the *top* with a CAS on `top`: a thief reads the slot as
//! `MaybeUninit` first and forgets the copy when its CAS loses, so an item
//! is only ever taken out of the deque once.
//!
//! # Buffer retirement
//!
//! The ring starts at 64 slots and doubles when a push finds it full; it
//! never shrinks.  A thief may still be reading a slot of the old
//! ring when the owner replaces it, so the old ring is not freed: it is
//! *retired* into a list the deque owns, and freed when the deque itself
//! drops (the last [`Worker`]/[`Stealer`] handle).  There is no epoch-based
//! reclamation.  Because the sizes double, the retired rings hold fewer slots
//! than the live one, so a deque keeps at most twice its peak capacity.
//!
//! # The injector
//!
//! The [`Injector`] is a lock-free multi-producer multi-consumer FIFO, the
//! real crate's design: a linked list of blocks of `BLOCK_CAP` (63) slots,
//! with a head and a tail index on separate cache lines.  A producer
//! claims a slot by CAS on the tail index, writes the item and sets the
//! slot's `WRITE` bit; a consumer claims the oldest slot by CAS on the
//! head index, waits for `WRITE` (spin, then yield: the producer that
//! claimed it may be preempted), reads the item and sets `READ`.  The
//! producer that takes a block's last slot links the next block, and the
//! consumer that takes it moves the head there.
//!
//! Blocks are freed without epochs: the reader of a block's last slot
//! walks the other slots down from the top, and stops at the first one
//! still being read, marking it `DESTROY`; that slot's reader, seeing the
//! bit when it sets `READ`, carries on the walk.  Whoever reaches the
//! bottom frees the block.  Batch steals claim one slot per CAS and keep
//! the deque's batch sizes.  `len` and `is_empty` are two loads.

#![warn(missing_docs)]

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::ptr;
use std::sync::atomic::{self, AtomicIsize, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The result of a steal attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The source was empty.
    Empty,
    /// One item was stolen.
    Success(T),
    /// The operation lost a race and should be retried.
    Retry,
}

impl<T> Steal<T> {
    /// The stolen item, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }
}

fn locked<T, R>(q: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
    let mut guard = q.lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Maximum number of items a single batch steal moves (matches the real
/// crate's `MAX_BATCH`).
const MAX_BATCH: usize = 32;

/// Slots in a new [`Worker`]'s ring (a power of two).
const INITIAL_CAP: usize = 64;

/// How many items a batch steal from a source of `len` items takes: half,
/// rounded up, capped at `limit`.
fn batch_len(len: usize, limit: usize) -> usize {
    len.div_ceil(2).min(limit)
}

/// Steal up to `want` items one claim at a time, handing each to `sink` in
/// steal (FIFO) order.  Stops early when the source runs dry or a later
/// claim loses a race.  The real crate does the same for LIFO deques; its
/// injector claims a range of slots with one CAS instead.
fn steal_each<T>(
    want: usize,
    mut steal: impl FnMut() -> Steal<T>,
    mut sink: impl FnMut(T),
) -> Steal<()> {
    if want == 0 {
        return Steal::Empty;
    }
    match steal() {
        Steal::Success(item) => sink(item),
        Steal::Empty => return Steal::Empty,
        Steal::Retry => return Steal::Retry,
    }
    for _ in 1..want {
        match steal() {
            Steal::Success(item) => sink(item),
            Steal::Empty | Steal::Retry => break,
        }
    }
    Steal::Success(())
}

/// A batch steal from a source holding `len` items: up to half of them,
/// capped at `MAX_BATCH`, pushed onto `dest` in steal (FIFO) order.
/// `Steal::Empty` when the source had nothing, `Steal::Success(())` when
/// at least one item moved (the real crate's contract).
fn steal_batch_into<T>(len: usize, steal: impl FnMut() -> Steal<T>, dest: &Worker<T>) -> Steal<()> {
    steal_each(batch_len(len, MAX_BATCH), steal, |item| dest.push(item))
}

/// A batch steal that also pops one: the first stolen item is returned,
/// the rest (up to `MAX_BATCH`) are pushed onto `dest` in steal order.
fn steal_batch_and_pop_into<T>(
    len: usize,
    steal: impl FnMut() -> Steal<T>,
    dest: &Worker<T>,
) -> Steal<T> {
    let mut first = None;
    let stolen = steal_each(batch_len(len, MAX_BATCH + 1), steal, |item| match first {
        None => first = Some(item),
        Some(_) => dest.push(item),
    });
    match (stolen, first) {
        (Steal::Success(()), Some(item)) => Steal::Success(item),
        (Steal::Retry, _) => Steal::Retry,
        _ => Steal::Empty,
    }
}

/// Aligns its contents to a cache-line pair, so that the owner's index and
/// the thieves' index do not share a line.
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// A power-of-two ring of slots, indexed by the deque's unbounded positions
/// modulo its capacity.
struct Buffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Box::into_raw(Box::new(Buffer { slots }))
    }

    fn cap(&self) -> usize {
        self.slots.len()
    }

    fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        self.slots[index as usize & (self.slots.len() - 1)].get()
    }

    /// # Safety
    /// Only the owner writes, and only to a slot no thief can claim.
    unsafe fn write(&self, index: isize, item: T) {
        self.slot(index).write(MaybeUninit::new(item));
    }

    /// A bitwise copy of the slot.  The caller owns the item only once it
    /// has claimed `index` (by CAS, or as the owner popping above `top`);
    /// otherwise it must forget the copy.  A thief holding a stale `top`
    /// can copy a slot the owner is rewriting: that copy is garbage, but
    /// its CAS then fails and it is never used (as in the real crate).
    ///
    /// # Safety
    /// `self` must be a live or retired ring of this deque.
    unsafe fn read(&self, index: isize) -> MaybeUninit<T> {
        self.slot(index).read_volatile()
    }
}

/// The state a [`Worker`] shares with its [`Stealer`]s.
struct Inner<T> {
    /// Position of the oldest item.  Thieves (and a FIFO owner) advance it
    /// by CAS; it never moves backwards except when a FIFO owner undoes a
    /// pop that overshot an empty deque.
    top: CachePadded<AtomicIsize>,
    /// One past the newest item.  Written only by the owner.
    bottom: CachePadded<AtomicIsize>,
    /// The live ring.  Replaced only by the owner, when a push finds it full.
    buffer: CachePadded<AtomicPtr<Buffer<T>>>,
    /// Rings replaced by growth, freed when the deque drops (see the module
    /// docs on buffer retirement).
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: `top` and `bottom` are atomics.  `buffer` and `retired` point
// at rings owned by this `Inner` alone, freed only by its `Drop`; `retired`
// is behind a mutex.  Shared access moves `T` values between threads (an
// owner pushes, a thief takes, the last handle drops the rest) but never
// shares a `&T`, and each value is claimed by exactly one thread through
// the CAS protocol above — so `T: Send` suffices for both.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Inner<T> {
    fn new() -> Self {
        Inner {
            top: CachePadded(AtomicIsize::new(0)),
            bottom: CachePadded(AtomicIsize::new(0)),
            buffer: CachePadded(AtomicPtr::new(Buffer::alloc(INITIAL_CAP))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// A snapshot of the number of queued items.
    fn len(&self) -> usize {
        let t = self.top.load(Ordering::Acquire);
        let b = self.bottom.load(Ordering::Acquire);
        b.wrapping_sub(t).max(0) as usize
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let bottom = *self.bottom.0.get_mut();
        let buffer = *self.buffer.0.get_mut();
        let mut i = *self.top.0.get_mut();
        // SAFETY: no handle is left, so the items in [top, bottom) of the
        // live ring are owned here; retired rings hold only stale copies.
        unsafe {
            while i != bottom {
                ptr::drop_in_place((*buffer).slot(i).cast::<T>());
                i = i.wrapping_add(1);
            }
            drop(Box::from_raw(buffer));
            for old in self
                .retired
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
            {
                drop(Box::from_raw(old));
            }
        }
    }
}

/// A worker-owned deque.  The owner pushes and pops at the bottom; stealers
/// take from the top.
///
/// `Worker` is `Send` but not `Sync`: exactly one thread pushes and pops.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    lifo: bool,
    _not_sync: PhantomData<Cell<()>>,
}

impl<T> Worker<T> {
    /// A deque whose owner pops the most recently pushed item first.
    pub fn new_lifo() -> Self {
        Worker {
            inner: Arc::new(Inner::new()),
            lifo: true,
            _not_sync: PhantomData,
        }
    }

    /// A deque whose owner pops the oldest item first.
    pub fn new_fifo() -> Self {
        Worker {
            inner: Arc::new(Inner::new()),
            lifo: false,
            _not_sync: PhantomData,
        }
    }

    /// Push an item onto the owner's end.
    pub fn push(&self, item: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buffer = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: the owner is the only writer of `buffer`, so it is live.
        if b.wrapping_sub(t) >= unsafe { (*buffer).cap() } as isize {
            buffer = self.grow(t, b, buffer);
        }
        // SAFETY: slot `b` is outside [top, bottom), so no thief claims it,
        // and the ring has room: `b - t < cap` for any `top >= t`.
        unsafe { (*buffer).write(b, item) };
        // Publishes the slot write to any thief that loads the new bottom.
        inner.bottom.store(b.wrapping_add(1), Ordering::Release);
    }

    /// Replace the full ring `old` by one of twice its size holding the same
    /// items at the same positions, and retire `old`.
    #[cold]
    fn grow(&self, t: isize, b: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        // SAFETY: only the owner calls this; `old` is the live ring, and the
        // copies are bitwise: ownership stays with whoever claims a position.
        unsafe {
            let new = Buffer::alloc((*old).cap() * 2);
            let mut i = t;
            while i != b {
                ptr::copy_nonoverlapping((*old).slot(i), (*new).slot(i), 1);
                i = i.wrapping_add(1);
            }
            self.inner.buffer.store(new, Ordering::Release);
            locked(&self.inner.retired, |r| r.push(old));
            new
        }
    }

    /// Pop an item from the owner's end.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Relaxed);
        // `top` never passes `bottom` for good, so a stale `top` that already
        // meets it proves the deque empty without the fence below.
        if b.wrapping_sub(t) <= 0 {
            return None;
        }
        if !self.lifo {
            return self.pop_fifo();
        }

        // Reserve slot b-1, then look at `top` again: the fence orders the
        // reservation before the load, so a concurrent thief either sees the
        // reservation or its CAS is visible here.
        let b = b.wrapping_sub(1);
        inner.bottom.store(b, Ordering::Relaxed);
        atomic::fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        let len = b.wrapping_sub(t);
        if len < 0 {
            // Thieves emptied the deque first.
            inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            return None;
        }
        let buffer = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: the owner's view of the live ring; slot `b` is in range.
        let item = unsafe { (*buffer).read(b) };
        if len == 0 {
            // The last item: thieves may be reading it too, and the CAS on
            // `top` decides who owns it.
            let won = inner
                .top
                .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            inner.bottom.store(b.wrapping_add(1), Ordering::Relaxed);
            if !won {
                // A thief owns it; our copy is forgotten (`MaybeUninit`).
                return None;
            }
        }
        // SAFETY: position `b` is claimed by this pop.
        Some(unsafe { item.assume_init() })
    }

    /// The FIFO owner pops from the top, like a thief, but by `fetch_add`:
    /// no other owner operation runs concurrently, and only thieves race it.
    fn pop_fifo(&self) -> Option<T> {
        let inner = &*self.inner;
        let t = inner.top.fetch_add(1, Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Relaxed);
        if b.wrapping_sub(t) <= 0 {
            // Thieves emptied it; undo.  No thief can move `top` meanwhile:
            // `bottom` only grows in FIFO mode, so they all see it empty.
            inner.top.store(t, Ordering::Relaxed);
            return None;
        }
        let buffer = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: position `t` is claimed by the `fetch_add`.
        Some(unsafe { (*buffer).read(t).assume_init() })
    }

    /// Whether the deque is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Create a stealer handle onto this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// A handle that can steal from a [`Worker`]'s opposite end.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Stealer<T> {
    /// Steal the oldest item (the end opposite the owner's LIFO pops).
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        // Orders the `top` load before the `bottom` load; pairs with the
        // owner's fence in `pop`.
        atomic::fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if b.wrapping_sub(t) <= 0 {
            return Steal::Empty;
        }
        let buffer = inner.buffer.load(Ordering::Acquire);
        // SAFETY: `buffer` is live or retired, and retired rings are kept
        // until the deque drops, which this handle prevents.
        let item = unsafe { (*buffer).read(t) };
        if inner
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            // Someone else claimed position `t`; forget the copy.
            return Steal::Retry;
        }
        // SAFETY: position `t` is claimed by the CAS.
        Steal::Success(unsafe { item.assume_init() })
    }

    /// Whether the deque is currently empty.
    pub fn is_empty(&self) -> bool {
        self.inner.len() == 0
    }

    /// Steal a batch of items — up to half the source, capped at
    /// `MAX_BATCH` — and push them onto `dest` in steal (FIFO) order.
    ///
    /// Like the real crate: returns `Steal::Empty` when the source had
    /// nothing, `Steal::Success(())` when at least one item moved.  `dest`
    /// must not be the source deque (the real crate's contract).
    pub fn steal_batch(&self, dest: &Worker<T>) -> Steal<()> {
        steal_batch_into(self.inner.len(), || self.steal(), dest)
    }

    /// Steal a batch of items and additionally pop one: the first stolen
    /// item is returned, the rest (up to `MAX_BATCH`) are pushed onto
    /// `dest` in steal order.  `dest` must not be the source deque.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        steal_batch_and_pop_into(self.inner.len(), || self.steal(), dest)
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Injector slot `state` bit: the producer has written the item.
const WRITE: usize = 1;
/// Injector slot `state` bit: the consumer has read the item out.
const READ: usize = 2;
/// Injector slot `state` bit: the block is being freed, and the consumer
/// still reading this slot must finish freeing it.
const DESTROY: usize = 4;

/// Positions per block lap: `BLOCK_CAP` slots, then one phantom position
/// that stands for "the block is used up, move to the next one".
const LAP: usize = 64;
/// Item slots per block.
const BLOCK_CAP: usize = LAP - 1;
/// Indices hold a position shifted left by `SHIFT`; the freed low bit of
/// the head index is the `HAS_NEXT` flag.
const SHIFT: usize = 1;
/// Set in the head index once the head block is known to have a
/// successor, so consumers of that block skip the load of the tail.
const HAS_NEXT: usize = 1;

/// Spin bursts double up to `1 << SPIN_LIMIT` before a backoff yields.
const SPIN_LIMIT: u32 = 6;

/// Backoff while another thread makes progress: exponentially growing
/// spin bursts, then `yield_now`.
struct Backoff {
    step: u32,
}

impl Backoff {
    fn new() -> Self {
        Backoff { step: 0 }
    }

    /// After a lost CAS race: the winner is already done, so only spin.
    fn spin(&mut self) {
        for _ in 0..1u32 << self.step.min(SPIN_LIMIT) {
            std::hint::spin_loop();
        }
        self.step = (self.step + 1).min(SPIN_LIMIT + 1);
    }

    /// While waiting for a thread that is mid-operation: spin for a while,
    /// then yield, because on a host with few cores that thread is often
    /// preempted and needs this CPU to finish.
    fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            self.spin();
        } else {
            std::thread::yield_now();
        }
    }
}

/// One item slot of an [`Injector`] block.
struct Slot<T> {
    item: UnsafeCell<MaybeUninit<T>>,
    /// `WRITE | READ | DESTROY` bits.
    state: AtomicUsize,
}

impl<T> Slot<T> {
    /// Wait until the producer that claimed this slot has written it.
    fn wait_write(&self) {
        let mut backoff = Backoff::new();
        while self.state.load(Ordering::Acquire) & WRITE == 0 {
            backoff.snooze();
        }
    }
}

/// A block of the injector's linked list.
struct Block<T> {
    /// The next block, installed by the producer that takes this block's
    /// last slot.
    next: AtomicPtr<Block<T>>,
    slots: [Slot<T>; BLOCK_CAP],
}

#[cfg(test)]
thread_local! {
    /// Blocks allocated minus blocks freed on this thread (test-only).
    static LIVE_BLOCKS: Cell<isize> = const { Cell::new(0) };
}

impl<T> Block<T> {
    fn new() -> Box<Block<T>> {
        #[cfg(test)]
        LIVE_BLOCKS.with(|n| n.set(n.get() + 1));
        Box::new(Block {
            next: AtomicPtr::new(ptr::null_mut()),
            slots: std::array::from_fn(|_| Slot {
                item: UnsafeCell::new(MaybeUninit::uninit()),
                state: AtomicUsize::new(0),
            }),
        })
    }

    /// Wait until the producer that took this block's last slot has
    /// linked the next block.
    fn wait_next(&self) -> *mut Block<T> {
        let mut backoff = Backoff::new();
        loop {
            let next = self.next.load(Ordering::Acquire);
            if !next.is_null() {
                return next;
            }
            backoff.snooze();
        }
    }

    /// Free the block once every slot below `start` has been read.  The
    /// caller has read slot `start` and every slot above it is read; a
    /// slot below still being read gets the `DESTROY` bit, and its reader
    /// continues from there.
    ///
    /// # Safety
    /// `this` is a block no producer writes to any more (its last slot is
    /// taken), and the caller is the reader of slot `start` that the
    /// protocol hands the destruction to.
    unsafe fn destroy(this: *mut Block<T>, start: usize) {
        for i in (0..start).rev() {
            let slot = &(*this).slots[i];
            if slot.state.load(Ordering::Acquire) & READ == 0
                && slot.state.fetch_or(DESTROY, Ordering::AcqRel) & READ == 0
            {
                return;
            }
        }
        drop(Box::from_raw(this));
    }
}

#[cfg(test)]
impl<T> Drop for Block<T> {
    fn drop(&mut self) {
        LIVE_BLOCKS.with(|n| n.set(n.get() - 1));
    }
}

/// One end of the injector: an index and the block it falls in.
struct Position<T> {
    index: AtomicUsize,
    block: AtomicPtr<Block<T>>,
}

/// Number of item slots before position `pos` (one phantom per lap).
fn slots_before(pos: usize) -> usize {
    pos - pos / LAP
}

/// A shared FIFO queue for jobs injected from outside the pool: a
/// lock-free multi-producer multi-consumer queue over a linked list of
/// `BLOCK_CAP`-slot blocks (see the module docs).
pub struct Injector<T> {
    head: CachePadded<Position<T>>,
    tail: CachePadded<Position<T>>,
    _owns: PhantomData<T>,
}

// SAFETY: the indices and block pointers are atomics, and every item is
// written by the one producer that claimed its slot by CAS on the tail
// index and read by the one consumer that claimed it by CAS on the head
// index.  Items move between threads but are never shared, so `T: Send`
// suffices for both.
unsafe impl<T: Send> Send for Injector<T> {}
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Injector<T> {
    /// Create an empty injector.
    pub fn new() -> Self {
        let block = Box::into_raw(Block::new());
        Injector {
            head: CachePadded(Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(block),
            }),
            tail: CachePadded(Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(block),
            }),
            _owns: PhantomData,
        }
    }

    /// Push an item onto the back of the queue.
    pub fn push(&self, item: T) {
        let mut backoff = Backoff::new();
        let mut tail = self.tail.index.load(Ordering::Acquire);
        let mut block = self.tail.block.load(Ordering::Acquire);
        let mut next_block = None;
        loop {
            let offset = (tail >> SHIFT) % LAP;
            if offset == BLOCK_CAP {
                // Another producer took the last slot and is linking the
                // next block.
                backoff.snooze();
                tail = self.tail.index.load(Ordering::Acquire);
                block = self.tail.block.load(Ordering::Acquire);
                continue;
            }
            // Allocate before taking the last slot, so that the link below
            // cannot fail half-way.
            if offset + 1 == BLOCK_CAP && next_block.is_none() {
                next_block = Some(Block::new());
            }
            let new_tail = tail.wrapping_add(1 << SHIFT);
            match self.tail.index.compare_exchange(
                tail,
                new_tail,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                // SAFETY: the CAS claimed slot `offset` of `block` for this
                // push alone.  A block is freed only once each of its slots
                // is read, and this slot cannot be read before it is
                // written below, so `block` is live.
                Ok(_) => unsafe {
                    if offset + 1 == BLOCK_CAP {
                        let next = Box::into_raw(next_block.take().expect("allocated above"));
                        self.tail.block.store(next, Ordering::Release);
                        self.tail
                            .index
                            .store(new_tail.wrapping_add(1 << SHIFT), Ordering::Release);
                        (*block).next.store(next, Ordering::Release);
                    }
                    let slot = &(*block).slots[offset];
                    slot.item.get().write(MaybeUninit::new(item));
                    slot.state.fetch_or(WRITE, Ordering::Release);
                    return;
                },
                Err(t) => {
                    tail = t;
                    block = self.tail.block.load(Ordering::Acquire);
                    backoff.spin();
                }
            }
        }
    }

    /// Steal the oldest item.
    pub fn steal(&self) -> Steal<T> {
        let mut backoff = Backoff::new();
        let (head, block, offset) = loop {
            let head = self.head.index.load(Ordering::Acquire);
            let block = self.head.block.load(Ordering::Acquire);
            let offset = (head >> SHIFT) % LAP;
            if offset != BLOCK_CAP {
                break (head, block, offset);
            }
            // Another consumer took the last slot and is moving the head
            // to the next block.
            backoff.snooze();
        };
        let mut new_head = head.wrapping_add(1 << SHIFT);
        if head & HAS_NEXT == 0 {
            atomic::fence(Ordering::SeqCst);
            let tail = self.tail.index.load(Ordering::Relaxed);
            if head >> SHIFT == tail >> SHIFT {
                return Steal::Empty;
            }
            if (head >> SHIFT) / LAP != (tail >> SHIFT) / LAP {
                new_head |= HAS_NEXT;
            }
        }
        if self
            .head
            .index
            .compare_exchange(head, new_head, Ordering::SeqCst, Ordering::Acquire)
            .is_err()
        {
            return Steal::Retry;
        }
        // SAFETY: the CAS claimed slot `offset` of `block` for this steal
        // alone, and a block is freed only after each of its slots is read
        // (`Block::destroy`), so `block` is live until this read is done.
        unsafe {
            if offset + 1 == BLOCK_CAP {
                // The last slot: move the head on to the next block.
                let next = (*block).wait_next();
                let mut next_index = (new_head & !HAS_NEXT).wrapping_add(1 << SHIFT);
                if !(*next).next.load(Ordering::Relaxed).is_null() {
                    next_index |= HAS_NEXT;
                }
                self.head.block.store(next, Ordering::Release);
                self.head.index.store(next_index, Ordering::Release);
            }
            let slot = &(*block).slots[offset];
            slot.wait_write();
            let item = slot.item.get().read().assume_init();
            // The last slot's reader starts freeing the block; any other
            // reader continues a destruction that reached its slot first.
            if offset + 1 == BLOCK_CAP || slot.state.fetch_or(READ, Ordering::AcqRel) & DESTROY != 0
            {
                Block::destroy(block, offset);
            }
            Steal::Success(item)
        }
    }

    /// Steal a batch of items — up to half the queue, capped at
    /// `MAX_BATCH` — and push them onto `dest` in FIFO order.
    pub fn steal_batch(&self, dest: &Worker<T>) -> Steal<()> {
        steal_batch_into(self.len(), || self.steal(), dest)
    }

    /// Steal a batch of items and pop one: the oldest queued item is
    /// returned, the rest of the batch lands on `dest` in FIFO order.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        steal_batch_and_pop_into(self.len(), || self.steal(), dest)
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items currently queued: two loads.  The head is loaded
    /// first, so the snapshot never has it past the tail.
    pub fn len(&self) -> usize {
        let head = self.head.index.load(Ordering::SeqCst) >> SHIFT;
        let tail = self.tail.index.load(Ordering::SeqCst) >> SHIFT;
        slots_before(tail) - slots_before(head)
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector::new()
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        let mut head = *self.head.0.index.get_mut() >> SHIFT;
        let tail = *self.tail.0.index.get_mut() >> SHIFT;
        let mut block = *self.head.0.block.get_mut();
        // SAFETY: `&mut self` means no push or steal is in flight, so the
        // slots in [head, tail) hold written, unread items owned here, the
        // blocks from the head block on are live and linked, and the
        // blocks before it are already freed.
        unsafe {
            while head != tail {
                let offset = head % LAP;
                if offset < BLOCK_CAP {
                    ptr::drop_in_place((*block).slots[offset].item.get().cast::<T>());
                } else {
                    let next = *(*block).next.get_mut();
                    drop(Box::from_raw(block));
                    block = next;
                }
                head += 1;
            }
            drop(Box::from_raw(block));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_owner_fifo_stealer() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        // Owner pops newest; stealer takes oldest.
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(s.steal(), Steal::Empty);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn injector_is_fifo() {
        let inj = Injector::new();
        inj.push("a");
        inj.push("b");
        assert_eq!(inj.len(), 2);
        assert_eq!(inj.steal(), Steal::Success("a"));
        assert_eq!(inj.steal(), Steal::Success("b"));
        assert_eq!(inj.steal(), Steal::Empty);
        assert!(inj.is_empty());
    }

    #[test]
    fn steal_batch_and_pop_takes_half_in_fifo_order() {
        let victim = Worker::new_lifo();
        let thief = Worker::new_lifo();
        for i in 0..8 {
            victim.push(i);
        }
        // Half of 8 = 4 items leave the victim: the oldest is returned,
        // the next three land on the thief in steal (FIFO) order.
        let s = victim.stealer();
        assert_eq!(s.steal_batch_and_pop(&thief), Steal::Success(0));
        assert_eq!(victim.len(), 4);
        assert_eq!(thief.len(), 3);
        // LIFO owner pops the most recently pushed stolen item first.
        assert_eq!(thief.pop(), Some(3));
        assert_eq!(thief.pop(), Some(2));
        assert_eq!(thief.pop(), Some(1));
        assert_eq!(thief.pop(), None);
        // The victim kept its own LIFO end intact.
        assert_eq!(victim.pop(), Some(7));
    }

    #[test]
    fn steal_batch_respects_max_batch_limit() {
        let victim = Worker::new_lifo();
        let thief = Worker::new_fifo();
        for i in 0..200 {
            victim.push(i);
        }
        // Half of 200 would be 100, but the cap is MAX_BATCH.
        assert_eq!(victim.stealer().steal_batch(&thief), Steal::Success(()));
        assert_eq!(thief.len(), MAX_BATCH);
        // FIFO thief drains the stolen run in original order.
        assert_eq!(thief.pop(), Some(0));
        assert_eq!(thief.pop(), Some(1));
        // And steal_batch_and_pop moves at most MAX_BATCH + 1.
        let thief2 = Worker::new_fifo();
        assert_eq!(
            victim.stealer().steal_batch_and_pop(&thief2),
            Steal::Success(MAX_BATCH as i32)
        );
        assert_eq!(thief2.len(), MAX_BATCH);
    }

    #[test]
    fn batch_steal_from_empty_sources_is_empty() {
        let victim: Worker<u32> = Worker::new_lifo();
        let thief = Worker::new_lifo();
        assert_eq!(victim.stealer().steal_batch(&thief), Steal::Empty);
        assert_eq!(victim.stealer().steal_batch_and_pop(&thief), Steal::Empty);
        let inj: Injector<u32> = Injector::new();
        assert_eq!(inj.steal_batch(&thief), Steal::Empty);
        assert_eq!(inj.steal_batch_and_pop(&thief), Steal::Empty);
        assert!(thief.is_empty());
    }

    #[test]
    fn injector_batch_steal_preserves_fifo() {
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        let dest = Worker::new_fifo();
        // ceil(10/2) = 5 items move: one popped, four onto dest.
        assert_eq!(inj.steal_batch_and_pop(&dest), Steal::Success(0));
        assert_eq!(dest.len(), 4);
        for want in 1..5 {
            assert_eq!(dest.pop(), Some(want));
        }
        assert_eq!(inj.len(), 5);
        assert_eq!(inj.steal(), Steal::Success(5));
    }

    #[test]
    fn concurrent_batch_steals_lose_nothing() {
        let victim = Worker::new_lifo();
        let total = 10_000;
        for i in 0..total {
            victim.push(i);
        }
        let stealers: Vec<_> = (0..4).map(|_| victim.stealer()).collect();
        let stolen: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = stealers
                .iter()
                .map(|s| {
                    scope.spawn(move || {
                        let local = Worker::new_lifo();
                        let mut count = 0;
                        while s.steal_batch_and_pop(&local).success().is_some() {
                            count += 1; // the popped item
                            while local.pop().is_some() {
                                count += 1;
                            }
                        }
                        count
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let mut kept = 0;
        while victim.pop().is_some() {
            kept += 1;
        }
        assert_eq!(stolen + kept, total);
    }

    #[test]
    fn cross_thread_stealing() {
        let w = Worker::new_lifo();
        for i in 0..1000 {
            w.push(i);
        }
        let stealers: Vec<_> = (0..4).map(|_| w.stealer()).collect();
        let total: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = stealers
                .iter()
                .map(|s| {
                    scope.spawn(move || {
                        let mut count = 0;
                        while s.steal().success().is_some() {
                            count += 1;
                        }
                        count
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(
            total + {
                let mut c = 0;
                while w.pop().is_some() {
                    c += 1;
                }
                c
            },
            1000
        );
    }

    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Claim counters, one per item id.
    fn claims(n: usize) -> Vec<AtomicUsize> {
        (0..n).map(|_| AtomicUsize::new(0)).collect()
    }

    fn assert_each_claimed_once(claims: &[AtomicUsize]) {
        for (id, c) in claims.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "item {id} claimed wrongly");
        }
    }

    /// Live ring capacity and number of retired rings (test-only peek).
    fn ring_shape<T>(w: &Worker<T>) -> (usize, usize) {
        let cap = unsafe { (*w.inner.buffer.load(Ordering::Relaxed)).cap() };
        (cap, locked(&w.inner.retired, |r| r.len()))
    }

    #[test]
    fn owner_pop_races_thieves_for_the_last_item() {
        const ITEMS: usize = 200_000;
        let claims = claims(ITEMS);
        let worker: Worker<usize> = Worker::new_lifo();
        let stealer = worker.stealer();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        if let Steal::Success(id) = stealer.steal() {
                            claims[id].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            // One item at a time, so every owner pop is the last-item race
            // against the thieves' CAS.
            for id in 0..ITEMS {
                worker.push(id);
                if let Some(id) = worker.pop() {
                    claims[id].fetch_add(1, Ordering::Relaxed);
                }
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(worker.pop(), None);
        assert_each_claimed_once(&claims);
    }

    /// Growth must happen with thieves live, on any host: until the ring
    /// has grown, the thieves share a budget of `INITIAL_CAP` steal
    /// attempts.  The owner pops one push in three, so after `n` pushes at
    /// least `2n/3 - INITIAL_CAP` items are queued, which passes the
    /// initial capacity well inside the first thousand pushes however the
    /// threads are scheduled.  Once the owner sees the bigger ring it lifts
    /// the budget and the thieves steal freely for the rest of the run.
    #[test]
    fn ring_grows_past_initial_capacity_while_four_thieves_steal() {
        const ITEMS: usize = 200 * INITIAL_CAP;
        let claims = claims(ITEMS);
        let worker: Worker<Box<usize>> = Worker::new_lifo();
        let stealer = worker.stealer();
        let done = AtomicBool::new(false);
        let budget = AtomicUsize::new(INITIAL_CAP);
        let lifted = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| loop {
                    if !lifted.load(Ordering::Acquire)
                        && budget
                            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
                            .is_err()
                    {
                        // Out of budget: leave the CPU to the owner.
                        std::thread::yield_now();
                        continue;
                    }
                    // Boxed ids: a stale or doubled read would be a
                    // use-after-free or double free, not just a bad count.
                    match stealer.steal() {
                        Steal::Success(id) => {
                            claims[*id].fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Empty if done.load(Ordering::Acquire) => break,
                        Steal::Empty | Steal::Retry => {}
                    }
                });
            }
            for id in 0..ITEMS {
                worker.push(Box::new(id));
                if id % 3 == 0 {
                    if let Some(id) = worker.pop() {
                        claims[*id].fetch_add(1, Ordering::Relaxed);
                    }
                }
                if !lifted.load(Ordering::Relaxed) && ring_shape(&worker).0 > INITIAL_CAP {
                    lifted.store(true, Ordering::Release);
                }
            }
            // Lifted by now unless the ring never grew; lift it anyway so
            // the thieves drain and stop, and the assert below reports it.
            lifted.store(true, Ordering::Release);
            done.store(true, Ordering::Release);
        });
        while let Some(id) = worker.pop() {
            claims[*id].fetch_add(1, Ordering::Relaxed);
        }
        assert_each_claimed_once(&claims);
        let (cap, retired) = ring_shape(&worker);
        assert!(cap > INITIAL_CAP && retired > 0, "the ring never grew");
    }

    /// Counts its drops into a shared counter.
    struct Counted(Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn dropping_a_non_empty_deque_drops_each_item_once() {
        for worker in [Worker::new_lifo(), Worker::new_fifo()] {
            let drops = Arc::new(AtomicUsize::new(0));
            let stealer = worker.stealer();
            // Move `top` well past zero first, so the live items wrap around
            // the ring, then grow it twice (two retired rings).
            let mut pushed = 0;
            for _ in 0..INITIAL_CAP + 7 {
                worker.push(Counted(Arc::clone(&drops)));
                drop(stealer.steal());
                pushed += 1;
            }
            for _ in 0..3 * INITIAL_CAP {
                worker.push(Counted(Arc::clone(&drops)));
                pushed += 1;
            }
            assert_eq!(ring_shape(&worker), (4 * INITIAL_CAP, 2));
            drop(worker.pop());
            drop(stealer.steal());
            let taken = INITIAL_CAP + 7 + 2;
            assert_eq!(drops.load(Ordering::Relaxed), taken);
            drop(worker);
            assert_eq!(
                drops.load(Ordering::Relaxed),
                taken,
                "a live stealer keeps the queued items"
            );
            drop(stealer);
            assert_eq!(drops.load(Ordering::Relaxed), pushed);
        }
    }

    #[test]
    fn fifo_worker_pops_the_oldest_item() {
        let w = Worker::new_fifo();
        let s = w.stealer();
        for i in 0..5 {
            w.push(i);
        }
        // Owner and thieves share the oldest end.
        assert_eq!(w.pop(), Some(0));
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.len(), 2);
        // Order survives wrap-around and growth.
        let mut next = 3;
        for i in 5..1000 {
            w.push(i);
            if i % 3 == 0 {
                assert_eq!(w.pop(), Some(next));
                next += 1;
            }
        }
        while let Some(i) = w.pop() {
            assert_eq!(i, next);
            next += 1;
        }
        assert_eq!(next, 1000);
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn fifo_owner_pops_race_thieves() {
        const ITEMS: usize = 20_000;
        let claims = claims(ITEMS);
        let worker: Worker<usize> = Worker::new_fifo();
        let stealer = worker.stealer();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    match stealer.steal() {
                        Steal::Success(id) => {
                            claims[id].fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Empty if done.load(Ordering::Acquire) => break,
                        Steal::Empty | Steal::Retry => {}
                    }
                });
            }
            for id in 0..ITEMS {
                worker.push(id);
                if id % 2 == 0 {
                    if let Some(id) = worker.pop() {
                        claims[id].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            done.store(true, Ordering::Release);
        });
        while let Some(id) = worker.pop() {
            claims[id].fetch_add(1, Ordering::Relaxed);
        }
        assert_each_claimed_once(&claims);
    }

    #[test]
    fn steal_batch_takes_half_capped_in_fifo_order() {
        // Small source: ceil(5/2) = 3 items leave, the oldest returned.
        let victim = Worker::new_lifo();
        let dest = Worker::new_fifo();
        for i in 0..5 {
            victim.push(i);
        }
        assert_eq!(
            victim.stealer().steal_batch_and_pop(&dest),
            Steal::Success(0)
        );
        assert_eq!(
            std::iter::from_fn(|| dest.pop()).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(victim.len(), 2);

        // Large source: the cap holds, and each batch is the next oldest run.
        let victim = Worker::new_lifo();
        for i in 0..100 {
            victim.push(i);
        }
        let s = victim.stealer();
        assert_eq!(s.steal_batch_and_pop(&dest), Steal::Success(0));
        let moved: Vec<usize> = std::iter::from_fn(|| dest.pop()).collect();
        assert_eq!(moved, (1..=MAX_BATCH).collect::<Vec<_>>());
        assert_eq!(s.steal_batch(&dest), Steal::Success(()));
        let moved: Vec<usize> = std::iter::from_fn(|| dest.pop()).collect();
        assert_eq!(moved, (MAX_BATCH + 1..=2 * MAX_BATCH).collect::<Vec<_>>());
        // The owner's end is untouched.
        assert_eq!(victim.len(), 100 - 2 * MAX_BATCH - 1);
        assert_eq!(victim.pop(), Some(99));
    }

    /// Live injector blocks allocated on this thread (test-only peek).
    fn live_blocks() -> isize {
        LIVE_BLOCKS.with(Cell::get)
    }

    #[test]
    fn injector_four_producers_four_consumers_take_each_item_once_in_order() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 50_000;
        const ITEMS: usize = PRODUCERS * PER_PRODUCER;
        let claims = claims(ITEMS);
        let taken = AtomicUsize::new(0);
        let inj: Injector<Box<usize>> = Injector::new();
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let inj = &inj;
                scope.spawn(move || {
                    for seq in 0..PER_PRODUCER {
                        // Boxed tags: a slot read twice would be a double
                        // free, not just a bad count.
                        inj.push(Box::new(p * PER_PRODUCER + seq));
                    }
                });
            }
            for c in 0..4 {
                let (inj, claims, taken) = (&inj, &claims, &taken);
                scope.spawn(move || {
                    let local = Worker::new_fifo();
                    let mut last = [None::<usize>; PRODUCERS];
                    let mut take = |tag: Box<usize>| {
                        let (p, seq) = (*tag / PER_PRODUCER, *tag % PER_PRODUCER);
                        assert!(last[p] < Some(seq), "producer {p} out of order");
                        last[p] = Some(seq);
                        claims[*tag].fetch_add(1, Ordering::Relaxed);
                        taken.fetch_add(1, Ordering::Relaxed);
                    };
                    let mut round = c;
                    while taken.load(Ordering::Relaxed) < ITEMS {
                        round += 1;
                        match round % 3 {
                            0 => {
                                if let Steal::Success(tag) = inj.steal() {
                                    take(tag);
                                }
                            }
                            1 => {
                                let _ = inj.steal_batch(&local);
                            }
                            _ => {
                                if let Steal::Success(tag) = inj.steal_batch_and_pop(&local) {
                                    take(tag);
                                }
                            }
                        }
                        // The local FIFO deque hands a batch on in order.
                        while let Some(tag) = local.pop() {
                            take(tag);
                        }
                    }
                });
            }
        });
        assert_each_claimed_once(&claims);
        assert!(inj.is_empty());
        assert_eq!(inj.steal(), Steal::Empty);
    }

    #[test]
    fn injector_push_steal_and_batches_cross_block_boundaries() {
        let base = live_blocks();
        {
            let inj = Injector::new();
            let dest = Worker::new_fifo();
            let (mut pushed, mut next) = (0usize, 0usize);
            let mut round = 0;
            // Push in runs of 40 and take with every kind of steal, so the
            // head and the tail both cross many block boundaries, at
            // every offset.
            while next < 6 * BLOCK_CAP + 5 {
                for _ in 0..40 {
                    inj.push(pushed);
                    pushed += 1;
                }
                assert_eq!(inj.len(), pushed - next);
                for _ in 0..3 {
                    round += 1;
                    let got: Vec<usize> = match round % 3 {
                        0 => inj.steal().success().into_iter().collect(),
                        1 => {
                            let _ = inj.steal_batch(&dest);
                            std::iter::from_fn(|| dest.pop()).collect()
                        }
                        _ => {
                            let first = inj.steal_batch_and_pop(&dest).success();
                            first
                                .into_iter()
                                .chain(std::iter::from_fn(|| dest.pop()))
                                .collect()
                        }
                    };
                    for item in got {
                        assert_eq!(item, next, "FIFO order broken");
                        next += 1;
                    }
                    assert_eq!(inj.len(), pushed - next);
                }
            }
            assert!(pushed / LAP >= 5, "crossed too few block boundaries");
            while let Steal::Success(item) = inj.steal() {
                assert_eq!(item, next);
                next += 1;
            }
            assert_eq!(next, pushed);
            assert!(inj.is_empty());
            assert_eq!(live_blocks() - base, 1, "read blocks are freed");
        }
        assert_eq!(live_blocks(), base, "the last block is freed on drop");
    }

    #[test]
    fn injector_drop_drops_each_queued_item_once_and_frees_every_block() {
        let base = live_blocks();
        let drops = Arc::new(AtomicUsize::new(0));
        let inj = Injector::new();
        let pushed = 5 * BLOCK_CAP + 17;
        for _ in 0..pushed {
            inj.push(Counted(Arc::clone(&drops)));
        }
        // Move the head past two block boundaries first, so the drop
        // starts mid-block.
        let taken = 2 * BLOCK_CAP + 9;
        for _ in 0..taken {
            drop(inj.steal().success().expect("queued"));
        }
        assert_eq!(drops.load(Ordering::Relaxed), taken);
        assert_eq!(live_blocks() - base, 4, "blocks of the queued items");
        drop(inj);
        assert_eq!(drops.load(Ordering::Relaxed), pushed);
        assert_eq!(live_blocks(), base, "a block leaked");
    }

    #[test]
    fn injector_len_and_is_empty_are_exact_at_rest() {
        let inj = Injector::new();
        assert!(inj.is_empty());
        assert_eq!(inj.len(), 0);
        // Fill past several block ends, checking at every position
        // (including the ones right at and after a block end).
        for n in 1..=3 * LAP {
            inj.push(n);
            assert_eq!(inj.len(), n);
            assert!(!inj.is_empty());
        }
        for left in (0..3 * LAP).rev() {
            assert!(inj.steal().success().is_some());
            assert_eq!(inj.len(), left);
            assert_eq!(inj.is_empty(), left == 0);
        }
        // Empty again with the head mid-block: refill and batch-drain.
        for n in 0..100 {
            inj.push(n);
        }
        let dest = Worker::new_lifo();
        assert_eq!(inj.steal_batch(&dest), Steal::Success(()));
        assert_eq!(inj.len(), 100 - MAX_BATCH);
        assert_eq!(dest.len(), MAX_BATCH);
    }
}
