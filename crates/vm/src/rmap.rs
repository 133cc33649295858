//! The accelerator reverse map (AX-RMAP).

use fusion_types::hash::FxHashMap;
use fusion_types::{BlockAddr, PhysAddr, Pid};

/// A pointer into the shared L1X: which line a physical block lives in.
///
/// The paper stores `(set, way)` pointers; we additionally carry the
/// virtual block identity and PID because the virtually-indexed L1X is
/// keyed that way in this model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct L1xPointer {
    /// Owning process of the cached line.
    pub pid: Pid,
    /// Virtual block cached in the L1X.
    pub vblock: BlockAddr,
}

/// Result of registering a physical block in the reverse map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmapOutcome {
    /// The physical block was not present; mapping installed.
    Installed,
    /// The same virtual alias was re-registered (refresh).
    Refreshed,
    /// A *different* virtual alias of this physical block is already cached
    /// in the tile — a synonym. Per the paper's Appendix only one synonym
    /// may live in the tile; the returned pointer identifies the duplicate
    /// the caller must evict before installing the new alias.
    Synonym(L1xPointer),
}

/// Per-tile physical→L1X reverse map.
///
/// Forwarded MESI requests from the host carry physical addresses; the
/// AX-RMAP translates them to L1X line pointers so the control message does
/// not need to carry the virtual address (which would double its size —
/// paper Section 3.2). The host L2 directory filters requests, so only
/// blocks actually cached in the tile are ever looked up.
///
/// # Examples
///
/// ```
/// use fusion_vm::{AxRmap, L1xPointer, RmapOutcome};
/// use fusion_types::{BlockAddr, PhysAddr, Pid};
///
/// let mut rmap = AxRmap::new();
/// let pa = PhysAddr::new(0x8000);
/// let ptr = L1xPointer { pid: Pid::new(1), vblock: BlockAddr::from_index(4) };
/// assert_eq!(rmap.register(pa, ptr), RmapOutcome::Installed);
/// assert_eq!(rmap.lookup(pa), Some(ptr));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AxRmap {
    // Hot-map audit: get/insert/remove by key — never iterated.
    map: FxHashMap<u64, L1xPointer>, // physical block index -> pointer
    lookups: u64,
    synonyms_detected: u64,
}

impl AxRmap {
    /// Creates an empty reverse map.
    pub fn new() -> Self {
        AxRmap::default()
    }

    fn key(pa: PhysAddr) -> u64 {
        pa.block_base().value()
    }

    /// Registers `pa` as cached in the L1X line identified by `ptr`.
    pub fn register(&mut self, pa: PhysAddr, ptr: L1xPointer) -> RmapOutcome {
        match self.map.get(&Self::key(pa)) {
            Some(existing) if *existing == ptr => RmapOutcome::Refreshed,
            Some(existing) => {
                self.synonyms_detected += 1;
                RmapOutcome::Synonym(*existing)
            }
            None => {
                self.map.insert(Self::key(pa), ptr);
                RmapOutcome::Installed
            }
        }
    }

    /// Replaces whatever alias is registered for `pa` with `ptr`
    /// (after the caller evicted the duplicate synonym).
    pub fn replace(&mut self, pa: PhysAddr, ptr: L1xPointer) {
        self.map.insert(Self::key(pa), ptr);
    }

    /// Looks up the L1X pointer for a forwarded request, counting the
    /// lookup (Table 6 reports these counts).
    pub fn lookup(&mut self, pa: PhysAddr) -> Option<L1xPointer> {
        self.lookups += 1;
        self.map.get(&Self::key(pa)).copied()
    }

    /// Removes the mapping when the L1X line is evicted.
    pub fn unregister(&mut self, pa: PhysAddr) -> Option<L1xPointer> {
        self.map.remove(&Self::key(pa))
    }

    /// Total lookups performed (forwarded requests reaching the tile).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Synonym collisions detected.
    pub fn synonyms_detected(&self) -> u64 {
        self.synonyms_detected
    }

    /// Number of physical blocks currently mapped.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no blocks are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(pid: u32, vblock: u64) -> L1xPointer {
        L1xPointer {
            pid: Pid::new(pid),
            vblock: BlockAddr::from_index(vblock),
        }
    }

    #[test]
    fn install_lookup_unregister() {
        let mut r = AxRmap::new();
        let pa = PhysAddr::new(0x4040);
        assert_eq!(r.register(pa, ptr(1, 7)), RmapOutcome::Installed);
        // Any address within the same physical block resolves.
        assert_eq!(r.lookup(PhysAddr::new(0x4050)), Some(ptr(1, 7)));
        assert_eq!(r.unregister(pa), Some(ptr(1, 7)));
        assert_eq!(r.lookup(pa), None);
        assert_eq!(r.lookups(), 2);
    }

    #[test]
    fn same_alias_refreshes() {
        let mut r = AxRmap::new();
        let pa = PhysAddr::new(0x1000);
        r.register(pa, ptr(1, 4));
        assert_eq!(r.register(pa, ptr(1, 4)), RmapOutcome::Refreshed);
        assert_eq!(r.synonyms_detected(), 0);
    }

    #[test]
    fn synonym_detected_and_replaced() {
        let mut r = AxRmap::new();
        let pa = PhysAddr::new(0x2000);
        r.register(pa, ptr(1, 10));
        // A different virtual block backed by the same physical block.
        match r.register(pa, ptr(1, 99)) {
            RmapOutcome::Synonym(dup) => assert_eq!(dup, ptr(1, 10)),
            other => panic!("expected synonym, got {other:?}"),
        }
        assert_eq!(r.synonyms_detected(), 1);
        // Caller evicts the duplicate, then replaces the mapping.
        r.replace(pa, ptr(1, 99));
        assert_eq!(r.lookup(pa), Some(ptr(1, 99)));
    }

    #[test]
    fn empty_map_reports_empty() {
        let r = AxRmap::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
