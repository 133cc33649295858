//! Translation lookaside buffer.

use fusion_types::{PhysAddr, Pid, VirtAddr, PAGE_BYTES};

use crate::PageTable;

/// A fully-associative LRU TLB, kept as an exact LRU stack: `entries[0]`
/// is the most recently used translation and the tail the least.
///
/// In FUSION this structure sits on the shared L1X **miss path** (the
/// AX-TLB): accelerator loads/stores that hit in the tile never consult it,
/// which is where the paper's Table 6 lookup counts and the sub-1 % energy
/// claim come from. The host model uses the same structure on its critical
/// path.
///
/// # Examples
///
/// ```
/// use fusion_vm::{PageTable, Tlb};
/// use fusion_types::{Pid, VirtAddr};
///
/// let mut pt = PageTable::new();
/// let mut tlb = Tlb::new(2);
/// tlb.translate(Pid::new(1), VirtAddr::new(0x0000), &mut pt);
/// tlb.translate(Pid::new(1), VirtAddr::new(0x1000), &mut pt);
/// tlb.translate(Pid::new(1), VirtAddr::new(0x2000), &mut pt); // evicts page 0
/// tlb.translate(Pid::new(1), VirtAddr::new(0x0000), &mut pt);
/// assert_eq!(tlb.misses(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    capacity: usize,
    lookups: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct TlbEntry {
    pid: Pid,
    vpage: u64,
    frame_base: u64,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            entries: Vec::with_capacity(capacity),
            capacity,
            lookups: 0,
            misses: 0,
        }
    }

    /// Translates `va`, walking `page_table` on a miss (and allocating the
    /// frame on first touch, as the simulated OS would).
    pub fn translate(&mut self, pid: Pid, va: VirtAddr, page_table: &mut PageTable) -> PhysAddr {
        self.lookups += 1;
        let vpage = va.value() / PAGE_BYTES as u64;
        // Hits rotate the entry to the front, so the stack stays in exact
        // recency order: the page-local streams that dominate these traces
        // resolve within the first few probes, and the tail is always the
        // LRU victim.
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.pid == pid && e.vpage == vpage)
        {
            self.entries[..=pos].rotate_right(1);
            return PhysAddr::new(self.entries[0].frame_base + va.page_offset() as u64);
        }
        self.misses += 1;
        let pa = page_table.translate(pid, va);
        if self.entries.len() >= self.capacity {
            self.entries.pop();
        }
        self.entries.insert(
            0,
            TlbEntry {
                pid,
                vpage,
                frame_base: pa.page_base().value(),
            },
        );
        pa
    }

    /// Drops every entry for `pid` (context teardown / shootdown).
    pub fn flush_pid(&mut self, pid: Pid) {
        self.entries.retain(|e| e.pid != pid);
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that required a page-table walk.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::SplitMix64;

    #[test]
    fn hit_after_fill() {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(8);
        let pid = Pid::new(1);
        let a = tlb.translate(pid, VirtAddr::new(0x1000), &mut pt);
        let b = tlb.translate(pid, VirtAddr::new(0x1040), &mut pt);
        assert_eq!(a.page_base(), b.page_base());
        assert_eq!(tlb.lookups(), 2);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(2);
        let pid = Pid::new(1);
        tlb.translate(pid, VirtAddr::new(0x0000), &mut pt);
        tlb.translate(pid, VirtAddr::new(0x1000), &mut pt);
        tlb.translate(pid, VirtAddr::new(0x0000), &mut pt); // refresh page 0
        tlb.translate(pid, VirtAddr::new(0x2000), &mut pt); // evicts page 1
        tlb.translate(pid, VirtAddr::new(0x0000), &mut pt); // still a hit
        assert_eq!(tlb.misses(), 3);
    }

    #[test]
    fn pid_isolation() {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(8);
        let a = tlb.translate(Pid::new(1), VirtAddr::new(0x1000), &mut pt);
        let b = tlb.translate(Pid::new(2), VirtAddr::new(0x1000), &mut pt);
        assert_ne!(a.page_base(), b.page_base());
        assert_eq!(tlb.misses(), 2);
    }

    #[test]
    fn flush_pid_removes_only_that_pid() {
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(8);
        tlb.translate(Pid::new(1), VirtAddr::new(0x1000), &mut pt);
        tlb.translate(Pid::new(2), VirtAddr::new(0x2000), &mut pt);
        tlb.flush_pid(Pid::new(1));
        assert_eq!(tlb.len(), 1);
        tlb.translate(Pid::new(2), VirtAddr::new(0x2000), &mut pt);
        assert_eq!(tlb.misses(), 2); // pid-2 entry survived
    }

    /// The stamp/min-scan formulation the LRU stack replaced: hits refresh
    /// a per-entry stamp, misses evict the minimum stamp. Entry order is
    /// irrelevant here, so it is the reference for pure set semantics.
    struct StampTlb {
        entries: Vec<(Pid, u64, u64, u64)>,
        capacity: usize,
        tick: u64,
        lookups: u64,
        misses: u64,
    }

    impl StampTlb {
        fn translate(&mut self, pid: Pid, va: VirtAddr, pt: &mut PageTable) -> PhysAddr {
            self.lookups += 1;
            self.tick += 1;
            let vpage = va.value() / PAGE_BYTES as u64;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == pid && e.1 == vpage) {
                e.3 = self.tick;
                return PhysAddr::new(e.2 + va.page_offset() as u64);
            }
            self.misses += 1;
            let pa = pt.translate(pid, va);
            if self.entries.len() >= self.capacity {
                let victim = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].3)
                    .unwrap();
                self.entries.swap_remove(victim);
            }
            self.entries
                .push((pid, vpage, pa.page_base().value(), self.tick));
            pa
        }
    }

    #[test]
    fn lru_stack_matches_the_stamp_formulation() {
        for capacity in [1usize, 2, 32, 64] {
            for seed in 0..8u64 {
                let mut rng = SplitMix64(seed * 0x1_0000 + capacity as u64);
                let (mut pt_a, mut pt_b) = (PageTable::new(), PageTable::new());
                let mut lru = Tlb::new(capacity);
                let mut stamp = StampTlb {
                    entries: Vec::new(),
                    capacity,
                    tick: 0,
                    lookups: 0,
                    misses: 0,
                };
                // A working set a little larger than the TLB, with a hot
                // subset, so hits land at every depth and misses evict.
                let pages = capacity as u64 * 2 + 3;
                for step in 0..4_000 {
                    let r = rng.next_u64();
                    let pid = Pid::new(1 + (r & 1) as u32);
                    if r.is_multiple_of(97) {
                        lru.flush_pid(pid);
                        stamp.entries.retain(|e| e.0 != pid);
                    } else {
                        let page = if r & 0x30 == 0 {
                            (r >> 8) % pages
                        } else {
                            (r >> 8) % (capacity as u64 / 2 + 1)
                        };
                        let va = VirtAddr::new(page * PAGE_BYTES as u64 + (r >> 40) % 4096);
                        let a = lru.translate(pid, va, &mut pt_a);
                        let b = stamp.translate(pid, va, &mut pt_b);
                        assert_eq!(a, b, "capacity {capacity} seed {seed} step {step}");
                    }
                    assert_eq!(lru.lookups(), stamp.lookups);
                    assert_eq!(lru.misses(), stamp.misses);
                    assert_eq!(lru.len(), stamp.entries.len());
                }
                assert!(lru.misses() > capacity as u64, "the stream never evicted");
            }
        }
    }
}
