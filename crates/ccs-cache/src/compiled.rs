//! The id-native compiled cache: the simulator's set-associative, true-LRU,
//! write-back cache, probed by precompiled `(set, u32 tag)` pairs instead
//! of by address, in `O(1)` per probe whatever the associativity.
//!
//! The CMP simulator's hot loop probes a cache once per line-granular
//! trace step.  With the precompiled line streams of `ccs-dag::stream`
//! every step already carries a dense line id, and the per-geometry
//! `set_index` lane maps that id straight to a set — so the address is
//! never needed: the *line id itself* is a perfect tag (two distinct
//! lines always have distinct ids, in any set), and it fits in 31 bits by
//! construction (`STEP_ID_MASK`).  [`CompiledCache`] keeps three
//! structures:
//!
//! * **tags** — one `u32` per way: the pre-shifted id ([`line_tag`],
//!   `id << 1`) with the dirty bit folded into bit 0, or the empty-way
//!   sentinel;
//! * **a recency list per set** — the set's ways form a circular doubly
//!   linked list (`prev`/`next` per way, `head` per set).  The head is the
//!   MRU way and its `prev` is the tail, the LRU way; empty ways sit at
//!   the tail end.  A miss takes the tail way, records an eviction only if
//!   that way held a line, and becomes the new head by moving `head` alone
//!   (the list is circular).  A hit splices its way to the front; an
//!   invalidated way is emptied and spliced to the tail.  Lines never move
//!   between ways;
//! * **way hints** — a map from line id to the way the line was last
//!   installed in, one `u8` per id, stored in fixed-size pages allocated
//!   on first write; an unallocated page reads as one shared zero page.  A
//!   probe reads the hint and confirms it with a single tag compare.  A
//!   resident line's hint is always current: it was written when the line
//!   was installed, and the line has not moved since.  Any other hint —
//!   never written, or stale because its line was evicted or invalidated
//!   and the way reused — names a way holding a different tag or none, so
//!   it reads as the miss it is.  There is no tag scan, and stale hints
//!   never need clearing.
//!
//! Replacement is true LRU with write-back and write-allocate: a hit
//! moves its line to the MRU position, a miss fills an empty way if the
//! set has one and otherwise evicts the LRU line (a write-back if it is
//! dirty), and an invalidation keeps the other lines' order.  The unit
//! tests below pin the list mechanics and run this cache in random
//! lockstep against a naive per-set recency-list model, `ccs-sim`'s
//! reference module pins
//! this cache in random lockstep against the seed `RefCache` across
//! geometries, and the engine-equivalence suites pin whole simulations.
//!
//! Hint memory grows with the lines a cache touches, not with the line-id
//! bound: a private L1 of a many-core run allocates only the pages of the
//! ids its own core touched, and [`CompiledCache::heap_bytes`] counts
//! them.

use crate::stats::CacheStats;

/// The tag a caller passes for line id `id`: the id shifted left one bit
/// so the dirty flag can fold into bit 0.  Ids are dense and unique per
/// line, which makes them valid tags for *any* set geometry.
///
/// The id must be **strictly below `0x7FFF_FFFF`** (the line-stream
/// compiler's `STEP_ID_MASK` bound, which its interner enforces): the
/// shift then cannot overflow, and the resulting tag stays at least 2
/// away from the empty-way sentinel (`u32::MAX`), so no tag can alias it
/// even with the dirty bit folded in.  The one 31-bit value *at* the
/// bound, `0x7FFF_FFFF`, would shift to `0xFFFF_FFFE` and falsely match
/// an empty way — hence the strict inequality, asserted here in debug
/// builds rather than trusted to the caller.
#[inline]
pub const fn line_tag(id: u32) -> u32 {
    debug_assert!(id < 0x7FFF_FFFF, "line id at/above the tag bound");
    id << 1
}

/// Tag stored in empty ways.  Real tags are pre-shifted ids strictly
/// below the [`line_tag`] bound, so `tag ^ INVALID_TAG > DIRTY_BIT`
/// always holds and an empty way can never look like a match even with
/// the dirty bit folded into bit 0.
const INVALID_TAG: u32 = u32::MAX;

/// Dirty flag, folded into bit 0 of the stored tag (free because
/// [`line_tag`] pre-shifts the id).
const DIRTY_BIT: u32 = 1;

/// log2 of the line ids per way-hint page (1 KiB of `u8` hints).
const HINT_PAGE_SHIFT: u32 = 10;

/// Line ids per way-hint page.
const HINT_PAGE: usize = 1 << HINT_PAGE_SHIFT;

/// One way: its tag and its neighbours in the set's recency list, as way
/// indices within the set.
#[derive(Clone, Copy, Debug)]
struct Way {
    /// `line_tag(id) | dirty`, or `INVALID_TAG` when empty.
    tag: u32,
    /// The next more recent way (the head's `prev` is the tail).
    prev: u8,
    /// The next less recent way (the tail's `next` is the head).
    next: u8,
}

/// Line id → way hint, in lazily allocated pages (see the module docs).
#[derive(Clone, Debug)]
struct WayHints {
    /// Offset of each id page's hints in `slots`; 0 is the shared zero
    /// page, which every unallocated page reads.
    page_of: Vec<u32>,
    /// The zero page (never written), then every allocated page.
    slots: Vec<u8>,
}

impl WayHints {
    fn new(num_ids: usize) -> Self {
        WayHints {
            page_of: vec![0; num_ids.div_ceil(HINT_PAGE)],
            slots: vec![0; HINT_PAGE],
        }
    }

    #[inline(always)]
    fn get(&self, id: u32) -> usize {
        let start = self.page_of[(id >> HINT_PAGE_SHIFT) as usize] as usize;
        self.slots[start + (id as usize & (HINT_PAGE - 1))] as usize
    }

    #[inline(always)]
    fn set(&mut self, id: u32, way: usize) {
        let page = &mut self.page_of[(id >> HINT_PAGE_SHIFT) as usize];
        if *page == 0 {
            *page = Self::alloc_page(&mut self.slots);
        }
        self.slots[*page as usize + (id as usize & (HINT_PAGE - 1))] = way as u8;
    }

    /// Append a zeroed page and return its offset.  Ids are below 2^31, so
    /// at most 2^21 pages follow the zero page and offsets fit in `u32`.
    #[cold]
    fn alloc_page(slots: &mut Vec<u8>) -> u32 {
        let start = slots.len();
        slots.resize(start + HINT_PAGE, 0);
        start as u32
    }

    /// Number of allocated pages (the zero page excluded).
    #[cfg(test)]
    fn pages(&self) -> usize {
        self.slots.len() / HINT_PAGE - 1
    }

    fn heap_bytes(&self) -> u64 {
        (self.page_of.capacity() * std::mem::size_of::<u32>() + self.slots.capacity()) as u64
    }
}

/// A set-associative, true-LRU, write-back cache probed by `(set, u32
/// tag)` instead of by address (see the module docs).
///
/// A line id must always be probed with the same set: its way hint is a
/// way index within that set.
#[derive(Clone, Debug)]
pub struct CompiledCache {
    /// Every way, `num_sets × assoc` flat.
    ways: Vec<Way>,
    /// The MRU way of each set.
    heads: Vec<u8>,
    hints: WayHints,
    stats: CacheStats,
    assoc: usize,
}

impl CompiledCache {
    /// The most ways a set may have: every way must fit a `u8` hint.
    pub const MAX_ASSOCIATIVITY: u32 = 256;

    /// Create an empty (cold) cache of `num_sets` sets × `associativity`
    /// ways, probed with line ids below `num_ids`.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `associativity` exceeds
    /// [`CompiledCache::MAX_ASSOCIATIVITY`].
    pub fn new(num_sets: u64, associativity: u32, num_ids: usize) -> Self {
        assert!(num_sets > 0, "need at least one set");
        assert!(associativity > 0, "associativity must be positive");
        assert!(
            associativity <= Self::MAX_ASSOCIATIVITY,
            "{associativity} ways exceed the compiled cache's {} per set",
            Self::MAX_ASSOCIATIVITY
        );
        let empty = Way {
            tag: INVALID_TAG,
            prev: 0,
            next: 0,
        };
        let mut cache = CompiledCache {
            ways: vec![empty; (num_sets * associativity as u64) as usize],
            heads: vec![0; num_sets as usize],
            hints: WayHints::new(num_ids),
            stats: CacheStats::default(),
            assoc: associativity as usize,
        };
        cache.flush();
        cache
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics (the contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Flush the contents (cold cache) without touching statistics.  Each
    /// set's list is relinked in way order; the hints go stale, which
    /// needs no clearing.
    pub fn flush(&mut self) {
        let assoc = self.assoc;
        for (i, way) in self.ways.iter_mut().enumerate() {
            let w = i % assoc;
            *way = Way {
                tag: INVALID_TAG,
                prev: ((w + assoc - 1) % assoc) as u8,
                next: ((w + 1) % assoc) as u8,
            };
        }
        self.heads.fill(0);
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.tag != INVALID_TAG).count()
    }

    /// Heap bytes held by the ways, the list heads and the way-hint pages.
    pub fn heap_bytes(&self) -> u64 {
        (self.ways.capacity() * std::mem::size_of::<Way>() + self.heads.capacity()) as u64
            + self.hints.heap_bytes()
    }

    /// The way holding `tag` in the set starting at `base`, if resident:
    /// the line's hint, confirmed by one tag compare.  `stored ^ tag` is 0
    /// or `DIRTY_BIT` on a match (tags have bit 0 clear) and greater on a
    /// mismatch: distinct pre-shifted ids differ above bit 0, and the
    /// empty sentinel keeps bit 1 set against any 31-bit pre-shifted id.
    #[inline(always)]
    fn find(&self, base: usize, tag: u32) -> Option<usize> {
        let way = self.hints.get(tag >> 1);
        (self.ways[base + way].tag ^ tag <= DIRTY_BIT).then_some(way)
    }

    /// Take `way` out of its set's list.
    #[inline(always)]
    fn unlink(&mut self, base: usize, way: usize) {
        let Way { prev, next, .. } = self.ways[base + way];
        self.ways[base + prev as usize].next = next;
        self.ways[base + next as usize].prev = prev;
    }

    /// Put an unlinked `way` back between the tail and `head`.
    #[inline(always)]
    fn link_before_head(&mut self, base: usize, head: usize, way: usize) {
        let tail = self.ways[base + head].prev;
        self.ways[base + tail as usize].next = way as u8;
        let w = &mut self.ways[base + way];
        w.prev = tail;
        w.next = head as u8;
        self.ways[base + head].prev = way as u8;
    }

    /// Make `way` the MRU way of `set`.
    #[inline(always)]
    fn promote(&mut self, set: usize, base: usize, way: usize) {
        let head = self.heads[set] as usize;
        if way == head {
            return;
        }
        // The tail already sits just before the head: moving `head` onto
        // it is the whole splice.
        if way != self.ways[base + head].prev as usize {
            self.unlink(base, way);
            self.link_before_head(base, head, way);
        }
        self.heads[set] = way as u8;
    }

    /// Make `way` the LRU way of `set`.
    #[inline(always)]
    fn demote(&mut self, set: usize, base: usize, way: usize) {
        let head = self.heads[set] as usize;
        if way == head {
            // Circular list: the head's successor becomes the head and the
            // old head is now the tail.
            self.heads[set] = self.ways[base + way].next;
        } else if way != self.ways[base + head].prev as usize {
            self.unlink(base, way);
            self.link_before_head(base, head, way);
        }
    }

    /// Allocate line `id` at the MRU position of `set`, storing `stored`:
    /// the tail way is the victim (an eviction is recorded only if it held
    /// a line), and becomes the head.
    #[inline(always)]
    fn install(&mut self, set: usize, base: usize, id: u32, stored: u32) {
        let victim = self.ways[base + self.heads[set] as usize].prev;
        let way = &mut self.ways[base + victim as usize];
        if way.tag != INVALID_TAG {
            self.stats.record_eviction(way.tag & DIRTY_BIT != 0);
        }
        way.tag = stored;
        self.hints.set(id, victim as usize);
        self.heads[set] = victim;
    }

    /// Probe the cache: returns whether the line was resident, and
    /// records the probe in the statistics.  A hit makes the line MRU and
    /// a write sets its dirty bit.  On a miss the line is allocated
    /// (write-allocate), evicting — and recording — the LRU way of a full
    /// set.
    #[inline(always)]
    pub fn access_compiled(&mut self, set: u32, tag: u32, is_write: bool) -> bool {
        debug_assert_eq!(tag & DIRTY_BIT, 0, "tag must be pre-shifted (line_tag)");
        let set = set as usize;
        let base = set * self.assoc;
        let hit = match self.find(base, tag) {
            Some(way) => {
                self.ways[base + way].tag |= is_write as u32;
                self.promote(set, base, way);
                true
            }
            None => {
                self.install(set, base, tag >> 1, tag | is_write as u32);
                false
            }
        };
        self.stats.record(hit, is_write);
        hit
    }

    /// Insert a line (e.g. a fill returning from the next level) without
    /// recording a probe in the statistics.  If the line is already
    /// present its LRU position and dirty bit are refreshed; otherwise it
    /// is allocated, evicting the LRU way if necessary (the eviction *is*
    /// recorded).
    #[inline(always)]
    pub fn fill_compiled(&mut self, set: u32, tag: u32, dirty: bool) {
        debug_assert_eq!(tag & DIRTY_BIT, 0, "tag must be pre-shifted (line_tag)");
        let set = set as usize;
        let base = set * self.assoc;
        match self.find(base, tag) {
            Some(way) => {
                self.ways[base + way].tag |= dirty as u32;
                self.promote(set, base, way);
            }
            None => self.install(set, base, tag >> 1, tag | dirty as u32),
        }
    }

    /// Record a *filtered* read hit: the caller has proved (e.g. via a
    /// one-entry MRU filter) that the line is the head of its set's
    /// recency list, so probing would be a state no-op.  Only the
    /// statistics move, exactly as [`CompiledCache::access_compiled`]
    /// would move them for that hit.
    #[inline]
    pub fn record_mru_read_hit(&mut self) {
        self.stats.record(true, false);
    }

    /// Whether a line is currently resident (does not update LRU state or
    /// statistics).
    #[inline]
    pub fn contains_compiled(&self, set: u32, tag: u32) -> bool {
        self.find(set as usize * self.assoc, tag).is_some()
    }

    /// Invalidate a line if present; returns `true` if it was present and
    /// dirty.  The emptied way moves to the tail, keeping the rest of the
    /// recency order and the empties at the tail end.
    #[inline(always)]
    pub fn invalidate_compiled(&mut self, set: u32, tag: u32) -> bool {
        debug_assert_eq!(tag & DIRTY_BIT, 0, "tag must be pre-shifted (line_tag)");
        let set = set as usize;
        let base = set * self.assoc;
        match self.find(base, tag) {
            Some(way) => {
                let was_dirty = self.ways[base + way].tag & DIRTY_BIT != 0;
                self.ways[base + way].tag = INVALID_TAG;
                self.demote(set, base, way);
                was_dirty
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 sets × 2 ways; line id `i` lives in set `i % 2`.
    fn small() -> CompiledCache {
        CompiledCache::new(2, 2, 16)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access_compiled(0, line_tag(0), false));
        assert!(c.access_compiled(0, line_tag(0), false));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), false);
        c.access_compiled(0, line_tag(2), false);
        // Touch id 0 again so id 2 becomes LRU.
        c.access_compiled(0, line_tag(0), false);
        assert!(!c.access_compiled(0, line_tag(4), false));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.contains_compiled(0, line_tag(0)));
        assert!(!c.contains_compiled(0, line_tag(2)));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), true);
        c.access_compiled(0, line_tag(2), false);
        c.access_compiled(0, line_tag(2), false);
        // Evict id 0 (LRU, dirty).
        c.access_compiled(0, line_tag(4), false);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fill_does_not_count_as_probe() {
        let mut c = small();
        c.fill_compiled(1, line_tag(1), false);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.contains_compiled(1, line_tag(1)));
        assert!(c.access_compiled(1, line_tag(1), false));
        // Filling a full set evicts and records the eviction.
        c.fill_compiled(1, line_tag(3), true);
        c.fill_compiled(1, line_tag(5), false);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 0, "clean LRU way evicted first");
    }

    #[test]
    fn invalidate_removes_line_and_reports_dirty() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), true);
        assert!(c.invalidate_compiled(0, line_tag(0)));
        assert!(!c.contains_compiled(0, line_tag(0)));
        assert!(!c.invalidate_compiled(0, line_tag(0)));
        assert!(!c.access_compiled(0, line_tag(0), false));
    }

    #[test]
    fn flush_and_residency() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), false);
        c.access_compiled(1, line_tag(1), false);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(c.heap_bytes() >= 4 * 4);
    }

    #[test]
    fn mru_read_hit_moves_only_stats() {
        let mut c = small();
        c.access_compiled(0, line_tag(0), false);
        let before = *c.stats();
        c.record_mru_read_hit();
        assert_eq!(c.stats().hits, before.hits + 1);
        assert_eq!(c.stats().reads, before.reads + 1);
        assert_eq!(c.stats().misses, before.misses);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = small();
        for id in 0..4 {
            assert!(!c.access_compiled(id % 2, line_tag(id), false));
        }
        // Two lines per set: all four fit, nothing is evicted.
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.resident_lines(), 4);
        for id in 0..4 {
            assert!(c.contains_compiled(id % 2, line_tag(id)), "line {id} lost");
        }
    }

    #[test]
    fn fully_associative_behaves_as_lru() {
        let mut c = CompiledCache::new(1, 4, 16);
        for id in 0..4 {
            c.access_compiled(0, line_tag(id), false);
        }
        // Re-touch line 0, then bring in a 5th line: the victim is line 1.
        c.access_compiled(0, line_tag(0), false);
        assert!(!c.access_compiled(0, line_tag(4), false));
        assert!(!c.contains_compiled(0, line_tag(1)));
        for id in [0, 2, 3, 4] {
            assert!(c.contains_compiled(0, line_tag(id)), "line {id} lost");
        }
    }

    /// A naive set-associative true-LRU model: one recency list per set,
    /// MRU first, each entry `(id, dirty)`.
    struct NaiveSetAssoc {
        ways: usize,
        sets: Vec<Vec<(u32, bool)>>,
        stats: CacheStats,
    }

    impl NaiveSetAssoc {
        fn new(num_sets: usize, ways: usize) -> Self {
            Self {
                ways,
                sets: vec![Vec::new(); num_sets],
                stats: CacheStats::default(),
            }
        }

        /// Move `id` to the MRU position, installing it (and evicting the
        /// LRU entry of a full set) on a miss; returns whether it hit.
        fn touch(&mut self, set: usize, id: u32, dirty: bool) -> bool {
            let list = &mut self.sets[set];
            match list.iter().position(|&(i, _)| i == id) {
                Some(pos) => {
                    let (_, was_dirty) = list.remove(pos);
                    list.insert(0, (id, was_dirty || dirty));
                    true
                }
                None => {
                    if list.len() == self.ways {
                        let (_, victim_dirty) = list.pop().unwrap();
                        self.stats.record_eviction(victim_dirty);
                    }
                    list.insert(0, (id, dirty));
                    false
                }
            }
        }

        fn access(&mut self, set: usize, id: u32, is_write: bool) -> bool {
            let hit = self.touch(set, id, is_write);
            self.stats.record(hit, is_write);
            hit
        }

        fn invalidate(&mut self, set: usize, id: u32) -> bool {
            let list = &mut self.sets[set];
            match list.iter().position(|&(i, _)| i == id) {
                Some(pos) => list.remove(pos).1,
                None => false,
            }
        }

        fn contains(&self, set: usize, id: u32) -> bool {
            self.sets[set].iter().any(|&(i, _)| i == id)
        }

        fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// Random access / fill / invalidate / contains streams give the same
    /// answers, statistics and residency as the naive set-associative model.
    #[test]
    fn lockstep_with_setassoc() {
        const IDS: u32 = 13;
        for (num_sets, ways) in [(2u32, 4u32), (1, 8), (4, 2), (3, 1)] {
            let mut naive = NaiveSetAssoc::new(num_sets as usize, ways as usize);
            let mut compiled = CompiledCache::new(num_sets as u64, ways, IDS as usize);
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            for _ in 0..4096 {
                // xorshift64* keeps the sequence deterministic and shim-free.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                let id = (r % IDS as u64) as u32;
                let (set, tag) = (id % num_sets, line_tag(id));
                match (r >> 32) % 4 {
                    0 => {
                        let hit = naive.access(set as usize, id, r & 1 != 0);
                        assert_eq!(compiled.access_compiled(set, tag, r & 1 != 0), hit);
                    }
                    1 => {
                        naive.touch(set as usize, id, r & 2 != 0);
                        compiled.fill_compiled(set, tag, r & 2 != 0);
                    }
                    2 => {
                        let dirty = naive.invalidate(set as usize, id);
                        assert_eq!(compiled.invalidate_compiled(set, tag), dirty);
                    }
                    _ => {
                        assert_eq!(
                            compiled.contains_compiled(set, tag),
                            naive.contains(set as usize, id)
                        );
                    }
                }
            }
            assert_eq!(*compiled.stats(), naive.stats, "{num_sets} sets x {ways}");
            assert_eq!(compiled.resident_lines(), naive.resident_lines());
        }
    }

    /// Every way of a maximal set is reachable through its `u8` hint, and
    /// the 257th line evicts the LRU one.
    #[test]
    fn max_associativity_set_holds_every_way() {
        let ways = CompiledCache::MAX_ASSOCIATIVITY;
        let mut c = CompiledCache::new(1, ways, 2 * ways as usize);
        for id in 0..ways {
            assert!(!c.access_compiled(0, line_tag(id), id % 2 == 0));
        }
        for id in 0..ways {
            assert!(c.contains_compiled(0, line_tag(id)), "line {id} lost");
        }
        assert_eq!(c.resident_lines(), ways as usize);
        // Re-touch all but line 0, which becomes LRU (and is dirty).
        for id in 1..ways {
            assert!(c.access_compiled(0, line_tag(id), false));
        }
        assert!(!c.access_compiled(0, line_tag(ways), false));
        assert!(!c.contains_compiled(0, line_tag(0)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    #[should_panic(expected = "257 ways exceed")]
    fn more_ways_than_a_hint_can_name_are_rejected() {
        CompiledCache::new(1, CompiledCache::MAX_ASSOCIATIVITY + 1, 16);
    }

    /// Hint memory grows with the ids a cache touches, not with its
    /// line-id bound: probing one id range allocates that range's pages
    /// only, reads allocate nothing, and `heap_bytes` counts the pages.
    #[test]
    fn hint_pages_grow_with_the_lines_touched() {
        const BOUND: usize = 1 << 24;
        let mut c = CompiledCache::new(4, 4, BOUND);
        let cold = c.heap_bytes();
        assert_eq!(c.hints.pages(), 0);
        // Ids 5.5 to 7.5 pages in: touches pages 5, 6 and 7.
        let lo = (5 * HINT_PAGE + HINT_PAGE / 2) as u32;
        for id in lo..lo + 2 * HINT_PAGE as u32 {
            c.access_compiled(id % 4, line_tag(id), id % 3 == 0);
        }
        // Probes of never-touched ids read the zero page.
        for id in [0, 1 << 20, BOUND as u32 - 1] {
            assert!(!c.contains_compiled(id % 4, line_tag(id)));
            assert!(!c.invalidate_compiled(id % 4, line_tag(id)));
        }
        assert_eq!(c.hints.pages(), 3);
        let mapped: Vec<usize> = (0..c.hints.page_of.len())
            .filter(|&p| c.hints.page_of[p] != 0)
            .collect();
        assert_eq!(mapped, [5, 6, 7]);
        assert!(c.heap_bytes() >= cold + 3 * HINT_PAGE as u64);
        // Far below one hint byte per id of the bound.
        assert!(c.heap_bytes() < BOUND as u64 / 64);
    }
}
