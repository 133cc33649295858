//! Per-process page table with deterministic frame allocation.

use fusion_types::hash::FxHashMap;
use fusion_types::{PhysAddr, Pid, VirtAddr, PAGE_BYTES};

/// Maps `(pid, virtual page)` to physical frames.
///
/// Frames are allocated on first touch from a bump allocator, so a given
/// access sequence always produces the same physical layout — important for
/// reproducible NUCA/channel mappings downstream.
///
/// # Examples
///
/// ```
/// use fusion_vm::PageTable;
/// use fusion_types::{Pid, VirtAddr};
///
/// let mut pt = PageTable::new();
/// let pa = pt.translate(Pid::new(1), VirtAddr::new(0x1234));
/// assert_eq!(pa.page_offset(), 0x234);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    // Hot-map audit: entry/get/insert by key — never iterated. Frame
    // numbers come from the bump allocator in *touch order*, so the
    // physical layout is independent of the hasher.
    frames: FxHashMap<(Pid, u64), u64>,
    next_frame: u64,
    walks: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Translates a virtual address, allocating a frame on first touch.
    /// Preserves the page offset.
    pub fn translate(&mut self, pid: Pid, va: VirtAddr) -> PhysAddr {
        self.walks += 1;
        let vpage = va.value() / PAGE_BYTES as u64;
        let next = &mut self.next_frame;
        let frame = *self.frames.entry((pid, vpage)).or_insert_with(|| {
            let f = *next;
            *next += 1;
            f
        });
        PhysAddr::new(frame * PAGE_BYTES as u64 + va.page_offset() as u64)
    }

    /// Looks up an existing translation without allocating.
    pub fn lookup(&self, pid: Pid, va: VirtAddr) -> Option<PhysAddr> {
        let vpage = va.value() / PAGE_BYTES as u64;
        self.frames
            .get(&(pid, vpage))
            .map(|f| PhysAddr::new(f * PAGE_BYTES as u64 + va.page_offset() as u64))
    }

    /// Installs a test-only alias: maps `(pid, va)`'s page onto the frame
    /// already backing `target` (the simulated systems never remap a page).
    ///
    /// # Panics
    ///
    /// Panics if `target` has no translation yet.
    pub fn alias(&mut self, pid: Pid, va: VirtAddr, target_pid: Pid, target: VirtAddr) {
        let tpage = target.value() / PAGE_BYTES as u64;
        #[expect(
            clippy::expect_used,
            reason = "callers map the target before aliasing it"
        )]
        let frame = *self
            .frames
            .get(&(target_pid, tpage))
            .expect("alias target must already be mapped");
        let vpage = va.value() / PAGE_BYTES as u64;
        self.frames.insert((pid, vpage), frame);
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.frames.len()
    }

    /// Total translation walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_is_stable() {
        let mut pt = PageTable::new();
        let pid = Pid::new(3);
        let a = pt.translate(pid, VirtAddr::new(0x5000));
        let b = pt.translate(pid, VirtAddr::new(0x5040));
        assert_eq!(a.page_base(), b.page_base());
        assert_eq!(b.value() - a.value(), 0x40);
    }

    #[test]
    fn different_pids_get_different_frames() {
        let mut pt = PageTable::new();
        let a = pt.translate(Pid::new(1), VirtAddr::new(0x1000));
        let b = pt.translate(Pid::new(2), VirtAddr::new(0x1000));
        assert_ne!(a.page_base(), b.page_base());
        assert_eq!(pt.mapped_pages(), 2);
    }

    #[test]
    fn lookup_does_not_allocate() {
        let mut pt = PageTable::new();
        assert!(pt.lookup(Pid::new(1), VirtAddr::new(0x9000)).is_none());
        assert_eq!(pt.mapped_pages(), 0);
        pt.translate(Pid::new(1), VirtAddr::new(0x9000));
        assert!(pt.lookup(Pid::new(1), VirtAddr::new(0x9010)).is_some());
    }

    #[test]
    fn alias_creates_synonym() {
        let mut pt = PageTable::new();
        let pid = Pid::new(1);
        let pa = pt.translate(pid, VirtAddr::new(0x1000));
        pt.alias(pid, VirtAddr::new(0x8000), pid, VirtAddr::new(0x1000));
        let pb = pt.translate(pid, VirtAddr::new(0x8000));
        assert_eq!(pa.page_base(), pb.page_base());
    }

    #[test]
    fn deterministic_across_instances() {
        let run = || {
            let mut pt = PageTable::new();
            (0..16)
                .map(|i| pt.translate(Pid::new(1), VirtAddr::new(i * 0x1000)).value())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
