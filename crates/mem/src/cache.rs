//! A generic set-associative cache.

use fusion_types::{BlockAddr, CacheGeometry, Pid};

/// Replacement policy for [`SetAssocCache`]: every cache is LRU.
///
/// The single-valued enum and `SetAssocCache::new`'s policy argument remain
/// only because the benchmark harness under `perf/` passes
/// `ReplacementPolicy::Lru`; both go with ROADMAP item 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (matching GEMS' L1/L2 models).
    #[default]
    Lru,
}

/// One cache line: identity (PID + block tag), dirty bit and protocol
/// metadata `M`.
///
/// The paper tags the virtually-indexed L0X/L1X lines with process ids so
/// accelerators from different processes can share a tile; a PID mismatch is
/// treated as a miss even when the virtual tags collide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line<M> {
    /// Owning process.
    pub pid: Pid,
    /// Block tag.
    pub block: BlockAddr,
    /// Dirty (modified) bit.
    pub dirty: bool,
    /// Protocol metadata: lease timestamps for ACC lines, MESI state for
    /// host lines.
    pub meta: M,
    stamp: u64,
}

/// A line evicted by [`SetAssocCache::insert`] or removed by
/// [`SetAssocCache::invalidate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<M> {
    /// Owning process of the victim.
    pub pid: Pid,
    /// Victim block.
    pub block: BlockAddr,
    /// Whether the victim held dirty data (needs a writeback).
    pub dirty: bool,
    /// Protocol metadata of the victim.
    pub meta: M,
}

/// A set-associative LRU cache with per-line metadata `M`.
///
/// The structure is purely a tag/metadata store — simulated programs never
/// read data *values* through it (the workloads compute on real Rust memory
/// and the simulator replays their address traces), so no data array is kept.
///
/// Storage is one flat `sets * ways` slot array (one allocation, fixed
/// stride) instead of a `Vec` per set: replay-loop lookups walk contiguous
/// memory and construction does not take a heap allocation per set. Within
/// a set, occupied slots form a prefix whose order follows exactly the
/// push/`swap_remove` discipline the per-set `Vec` had, so every
/// order-sensitive observer (first-match `find`, stamp-tie victim choice,
/// flush/iteration order) sees identical sequences.
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    /// Flat `sets * ways` slots; set `s` owns `slots[s*ways..(s+1)*ways]`
    /// and its occupied lines are the `lens[s]`-long prefix of that range.
    slots: Vec<Option<Line<M>>>,
    /// Occupancy per set.
    lens: Vec<u32>,
    sets: usize,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry holds zero blocks or zero ways.
    pub fn new(geometry: CacheGeometry, _policy: ReplacementPolicy) -> Self {
        assert!(geometry.blocks() > 0, "cache must hold at least one block");
        assert!(geometry.ways > 0, "cache must have at least one way");
        let sets = geometry.sets();
        let ways = geometry.ways;
        SetAssocCache {
            slots: (0..sets * ways).map(|_| None).collect(),
            lens: vec![0; sets],
            sets,
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The occupied lines of `set`, as a slice of slots.
    #[inline]
    fn set_slice(&self, set: usize) -> &[Option<Line<M>>] {
        &self.slots[set * self.ways..set * self.ways + self.lens[set] as usize]
    }

    /// The occupied lines of `set`, mutably.
    #[inline]
    fn set_slice_mut(&mut self, set: usize) -> &mut [Option<Line<M>>] {
        &mut self.slots[set * self.ways..set * self.ways + self.lens[set] as usize]
    }

    /// Set index for a block (modulo hashing over block index).
    ///
    /// Hot-path note: every geometry in the modelled design space has a
    /// power-of-two set count, where the mask and the modulo are the same
    /// function; the `%` branch keeps odd geometries correct.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the set index is below the set count, a usize"
    )]
    pub fn set_index(&self, block: BlockAddr) -> usize {
        let sets = self.sets as u64;
        if sets.is_power_of_two() {
            (block.index() & (sets - 1)) as usize
        } else {
            (block.index() % sets) as usize
        }
    }

    /// Looks up a line, updating replacement state and hit/miss statistics.
    pub fn lookup(&mut self, pid: Pid, block: BlockAddr) -> Option<&mut Line<M>> {
        let tick = self.next_tick();
        let set = self.set_index(block);
        let base = set * self.ways;
        let pos = self
            .set_slice(set)
            .iter()
            .position(|s| s.as_ref().is_some_and(|l| l.block == block && l.pid == pid));
        match pos {
            Some(p) => {
                self.hits += 1;
                #[expect(clippy::expect_used, reason = "position() found it")]
                let line = self.slots[base + p].as_mut().expect("occupied prefix slot");
                line.stamp = tick;
                Some(line)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a line like [`SetAssocCache::lookup`] — identical hit/miss
    /// statistics and replacement effects — but returns the line's
    /// `(set, slot)` coordinates instead of a reference, so callers can
    /// read and then update the line without a second set scan (see
    /// [`SetAssocCache::line_at`] and [`SetAssocCache::line_at_mut`]). The
    /// coordinates stay valid until the next structural change to the set
    /// (insert/invalidate/flush).
    pub fn lookup_pos(&mut self, pid: Pid, block: BlockAddr) -> Option<(usize, usize)> {
        let tick = self.next_tick();
        let set = self.set_index(block);
        let base = set * self.ways;
        let pos = self
            .set_slice(set)
            .iter()
            .position(|s| s.as_ref().is_some_and(|l| l.block == block && l.pid == pid));
        match pos {
            Some(p) => {
                self.hits += 1;
                #[expect(clippy::expect_used, reason = "position() found it")]
                let line = self.slots[base + p].as_mut().expect("occupied prefix slot");
                line.stamp = tick;
                Some((set, p))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The line at coordinates from [`SetAssocCache::lookup_pos`].
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "caller holds coordinates from lookup_pos"
    )]
    pub fn line_at(&self, set: usize, pos: usize) -> &Line<M> {
        self.slots[set * self.ways + pos]
            .as_ref()
            .expect("line_at on occupied slot")
    }

    /// The line at coordinates from [`SetAssocCache::lookup_pos`], mutably.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "caller holds coordinates from lookup_pos"
    )]
    pub fn line_at_mut(&mut self, set: usize, pos: usize) -> &mut Line<M> {
        self.slots[set * self.ways + pos]
            .as_mut()
            .expect("line_at_mut on occupied slot")
    }

    /// Checks for a line without touching replacement or statistics.
    pub fn probe(&self, pid: Pid, block: BlockAddr) -> Option<&Line<M>> {
        let set = self.set_index(block);
        self.set_slice(set)
            .iter()
            .filter_map(|s| s.as_ref())
            .find(|l| l.block == block && l.pid == pid)
    }

    /// Mutable probe without touching replacement or statistics (used by
    /// protocol actions that must not perturb LRU, e.g. forwarded-request
    /// handling).
    pub fn probe_mut(&mut self, pid: Pid, block: BlockAddr) -> Option<&mut Line<M>> {
        let set = self.set_index(block);
        self.set_slice_mut(set)
            .iter_mut()
            .filter_map(|s| s.as_mut())
            .find(|l| l.block == block && l.pid == pid)
    }

    /// Inserts a line, returning the evicted victim if the set was full.
    ///
    /// If the block is already present its metadata and dirty bit are
    /// replaced in place (no eviction).
    pub fn insert(
        &mut self,
        pid: Pid,
        block: BlockAddr,
        meta: M,
        dirty: bool,
    ) -> Option<Evicted<M>> {
        let tick = self.next_tick();
        let set = self.set_index(block);
        if let Some(line) = self
            .set_slice_mut(set)
            .iter_mut()
            .filter_map(|s| s.as_mut())
            .find(|l| l.block == block && l.pid == pid)
        {
            line.meta = meta;
            line.dirty = dirty;
            line.stamp = tick;
            return None;
        }
        let len = self.lens[set] as usize;
        let base = set * self.ways;
        let victim = if len >= self.ways {
            let way = self.choose_victim(set);
            // swap_remove: the last occupied slot fills the hole.
            #[expect(
                clippy::expect_used,
                reason = "slots below lens[set] are occupied by construction"
            )]
            let old = self.slots[base + way].take().expect("occupied prefix slot");
            self.slots.swap(base + way, base + len - 1);
            self.lens[set] -= 1;
            Some(Evicted {
                pid: old.pid,
                block: old.block,
                dirty: old.dirty,
                meta: old.meta,
            })
        } else {
            None
        };
        let len = self.lens[set] as usize;
        self.slots[base + len] = Some(Line {
            pid,
            block,
            dirty,
            meta,
            stamp: tick,
        });
        self.lens[set] += 1;
        victim
    }

    /// Removes a line (coherence invalidation), returning it if present.
    pub fn invalidate(&mut self, pid: Pid, block: BlockAddr) -> Option<Evicted<M>> {
        let set = self.set_index(block);
        let pos = self
            .set_slice(set)
            .iter()
            .position(|s| s.as_ref().is_some_and(|l| l.block == block && l.pid == pid))?;
        let base = set * self.ways;
        let len = self.lens[set] as usize;
        #[expect(clippy::expect_used, reason = "position() found it")]
        let old = self.slots[base + pos].take().expect("occupied prefix slot");
        self.slots.swap(base + pos, base + len - 1);
        self.lens[set] -= 1;
        Some(Evicted {
            pid: old.pid,
            block: old.block,
            dirty: old.dirty,
            meta: old.meta,
        })
    }

    /// Removes every line, invoking `f` on each (bulk flush / PID teardown).
    pub fn flush_with(&mut self, mut f: impl FnMut(Evicted<M>)) {
        for set in 0..self.sets {
            let base = set * self.ways;
            let len = self.lens[set] as usize;
            for slot in &mut self.slots[base..base + len] {
                #[expect(clippy::expect_used, reason = "slots below lens[set] are occupied")]
                let old = slot.take().expect("occupied prefix slot");
                f(Evicted {
                    pid: old.pid,
                    block: old.block,
                    dirty: old.dirty,
                    meta: old.meta,
                });
            }
            self.lens[set] = 0;
        }
    }

    /// Iterates all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &Line<M>> {
        (0..self.sets).flat_map(move |s| self.set_slice(s).iter().filter_map(|s| s.as_ref()))
    }

    /// Iterates all resident lines mutably (protocol sweeps).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Line<M>> {
        let ways = self.ways;
        let lens = &self.lens;
        self.slots
            .chunks_mut(ways)
            .zip(lens.iter())
            .flat_map(|(chunk, &len)| chunk[..len as usize].iter_mut())
            .filter_map(|s| s.as_mut())
    }

    /// Iterates the lines of the set holding `block` mutably.
    pub fn iter_set_mut(&mut self, block: BlockAddr) -> impl Iterator<Item = &mut Line<M>> {
        let set = self.set_index(block);
        self.set_slice_mut(set)
            .iter_mut()
            .filter_map(|s| s.as_mut())
    }

    /// Number of sets; set `s` holds the blocks whose index is `s` modulo
    /// this (see [`SetAssocCache::set_index`]).
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// `true` when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The least-recently-used way of `set`: the smallest stamp, which
    /// every hit and insert refreshes.
    #[expect(
        clippy::expect_used,
        reason = "sets have at least one way by construction"
    )]
    fn choose_victim(&self, set: usize) -> usize {
        self.set_slice(set)
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|l| (i, l.stamp)))
            .min_by_key(|&(_, stamp)| stamp)
            .map(|(i, _)| i)
            .expect("victim selection on non-empty set")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(capacity: usize, ways: usize) -> CacheGeometry {
        CacheGeometry {
            capacity_bytes: capacity,
            ways,
            banks: 1,
            latency: 1,
        }
    }

    fn b(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    const P: Pid = Pid(1);

    #[test]
    fn hit_after_insert() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(geom(4096, 4), ReplacementPolicy::Lru);
        assert!(c.lookup(P, b(5)).is_none());
        c.insert(P, b(5), 7, false);
        let line = c.lookup(P, b(5)).unwrap();
        assert_eq!(line.meta, 7);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn pid_mismatch_is_miss() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(geom(4096, 4), ReplacementPolicy::Lru);
        c.insert(Pid(1), b(5), (), false);
        assert!(c.lookup(Pid(2), b(5)).is_none());
        assert!(c.probe(Pid(2), b(5)).is_none());
        assert!(c.probe(Pid(1), b(5)).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way cache, 1 set (2 blocks total).
        let mut c: SetAssocCache<u64> = SetAssocCache::new(geom(128, 2), ReplacementPolicy::Lru);
        c.insert(P, b(0), 0, false);
        c.insert(P, b(1), 1, false);
        // Touch block 0 so block 1 is LRU.
        c.lookup(P, b(0));
        let evicted = c.insert(P, b(2), 2, false).unwrap();
        assert_eq!(evicted.block, b(1));
        assert!(c.probe(P, b(0)).is_some());
        assert!(c.probe(P, b(2)).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(geom(128, 2), ReplacementPolicy::Lru);
        c.insert(P, b(0), 1, false);
        assert!(c.insert(P, b(0), 2, true).is_none());
        assert_eq!(c.len(), 1);
        let line = c.probe(P, b(0)).unwrap();
        assert_eq!(line.meta, 2);
        assert!(line.dirty);
    }

    #[test]
    fn invalidate_returns_dirty_state() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(geom(4096, 4), ReplacementPolicy::Lru);
        c.insert(P, b(9), (), true);
        let e = c.invalidate(P, b(9)).unwrap();
        assert!(e.dirty);
        assert!(c.invalidate(P, b(9)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn eviction_reports_dirty_victims() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(geom(64, 1), ReplacementPolicy::Lru);
        // 1 block total: every insert to the same set evicts.
        c.insert(P, b(0), (), true);
        let e = c.insert(P, b(1), (), false).unwrap();
        assert_eq!(e.block, b(0));
        assert!(e.dirty);
        assert!(c.probe(P, b(0)).is_none());
    }

    #[test]
    fn flush_drains_everything() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(geom(4096, 4), ReplacementPolicy::Lru);
        for i in 0..10 {
            c.insert(P, b(i), (), i % 2 == 0);
        }
        let mut dirty = 0;
        c.flush_with(|e| {
            if e.dirty {
                dirty += 1;
            }
        });
        assert!(c.is_empty());
        assert_eq!(dirty, 5);
    }

    #[test]
    fn set_mapping() {
        let g = CacheGeometry {
            capacity_bytes: 64 * 1024,
            ways: 8,
            banks: 16,
            latency: 4,
        };
        let c: SetAssocCache<()> = SetAssocCache::new(g, ReplacementPolicy::Lru);
        assert_eq!(c.set_index(b(0)), 0);
        assert_eq!(c.set_index(b(128)), 0); // 128 sets
        assert_eq!(c.set_index(b(131)), 3);
    }

    #[test]
    fn conflict_misses_within_capacity() {
        // 4 sets x 2 ways; blocks 0,4,8 all map to set 0.
        let mut c: SetAssocCache<()> = SetAssocCache::new(geom(512, 2), ReplacementPolicy::Lru);
        c.insert(P, b(0), (), false);
        c.insert(P, b(4), (), false);
        let e = c.insert(P, b(8), (), false);
        assert!(e.is_some(), "set conflict must evict despite free capacity");
        assert_eq!(c.len(), 2);
    }
}
