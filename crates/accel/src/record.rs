//! Instrumented address space: kernels compute on real buffers while every
//! memory reference and datapath operation is recorded.
//!
//! This replaces the paper's gprof + dynamic-instrumentation toolchain: a
//! benchmark function manipulates [`TracedBuf`]s exactly like arrays, and
//! the [`Recorder`] captures the dynamic reference stream with byte
//! accuracy plus the int/fp op counts needed for compute timing and energy.

use std::cell::RefCell;
use std::rc::Rc;

use fusion_types::ids::ExecUnit;
use fusion_types::{AccessKind, BlockAddr, Pid, VirtAddr, CACHE_BLOCK_BYTES};

use crate::trace::{LaneWriter, OpCounts, Phase, Workload};

/// Datapath operations retired per cycle between memory references (the
/// fixed-function datapath exploits the paper's observed instruction-level
/// parallelism; 4 matches the operation density of Table 1 functions).
const ISSUE_WIDTH: u64 = 4;

#[derive(Debug)]
struct RecState {
    lanes: LaneWriter,
    phases: Vec<Phase>,
    next_addr: u64,
    alloc_count: u64,
    ops_since_ref: u64,
    ops: OpCounts,
}

impl RecState {
    /// Appends one reference, its gap the ops retired since the last one.
    #[inline]
    fn log(&mut self, block: BlockAddr, kind: AccessKind) {
        let gap = u16::try_from(self.ops_since_ref / ISSUE_WIDTH).unwrap_or(u16::MAX);
        self.ops_since_ref = 0;
        self.lanes.push(block, kind, gap);
    }
}

/// Records the dynamic trace of instrumented kernels straight into the
/// lanes a [`Workload`] replays: each reference's block, kind and compute
/// gap, its block numbered at first touch.
///
/// # Examples
///
/// ```
/// use fusion_accel::Recorder;
/// use fusion_types::ids::ExecUnit;
/// use fusion_types::{AxcId, Pid};
///
/// let rec = Recorder::new();
/// let mut buf = rec.buffer::<f32>(16);
/// for i in 0..16 {
///     let v = buf.get(i);
///     rec.fp_ops(1);
///     buf.set(i, v + 1.0);
/// }
/// rec.end_phase("incr", ExecUnit::Axc(AxcId::new(0)), 2, 500);
/// let wl = rec.finish("demo", Pid::new(1));
/// assert_eq!(wl.phase_refs(0).len(), 32);
/// assert_eq!(wl.phases[0].ops.fp_ops, 16);
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    state: Rc<RefCell<RecState>>,
}

impl Recorder {
    /// Creates a recorder with an empty address space.
    pub fn new() -> Self {
        Recorder {
            state: Rc::new(RefCell::new(RecState {
                lanes: LaneWriter::new(),
                phases: Vec::new(),
                next_addr: 0x10_0000, // keep away from the null page
                alloc_count: 0,
                ops_since_ref: 0,
                ops: OpCounts::default(),
            })),
        }
    }

    /// Allocates a block-aligned traced buffer of `len` elements,
    /// zero-initialized.
    ///
    /// Successive buffers are placed with a small deterministic block skew
    /// (as real allocators and page placement do); without it, same-sized
    /// planes land a whole number of cache sets apart and parallel streams
    /// collapse into a single set — an artifact, not a program property.
    pub fn buffer<T: Copy + Default>(&self, len: usize) -> TracedBuf<T> {
        let bytes = len * std::mem::size_of::<T>();
        let mut s = self.state.borrow_mut();
        let base = s.next_addr;
        let aligned = bytes.div_ceil(CACHE_BLOCK_BYTES) * CACHE_BLOCK_BYTES;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the skew factor is at most 13"
        )]
        let skew = (s.alloc_count % 13 + 1) as usize * CACHE_BLOCK_BYTES;
        s.alloc_count += 3;
        s.next_addr += (aligned.max(CACHE_BLOCK_BYTES) + skew) as u64;
        TracedBuf {
            data: vec![T::default(); len],
            base: VirtAddr::new(base),
            state: Rc::clone(&self.state),
        }
    }

    /// Records `n` integer datapath operations.
    pub fn int_ops(&self, n: u64) {
        let mut s = self.state.borrow_mut();
        s.ops.int_ops += n;
        s.ops_since_ref += n;
    }

    /// Records `n` floating-point datapath operations.
    pub fn fp_ops(&self, n: u64) {
        let mut s = self.state.borrow_mut();
        s.ops.fp_ops += n;
        s.ops_since_ref += n;
    }

    /// Records one reference to `block` without a buffer, exactly as a
    /// [`TracedBuf`] access to it would: for traces built by hand.
    pub fn access(&self, block: BlockAddr, kind: AccessKind) {
        self.state.borrow_mut().log(block, kind);
    }

    /// Ends the current phase: the references and op counts recorded
    /// since the previous phase become a [`Phase`] with the given identity
    /// and parameters.
    pub fn end_phase(&self, name: &str, unit: ExecUnit, mlp: usize, lease: u32) {
        let mut s = self.state.borrow_mut();
        s.ops_since_ref = 0;
        let ops = std::mem::take(&mut s.ops);
        s.lanes.end_phase();
        s.phases.push(Phase {
            name: name.to_owned(),
            unit,
            ops,
            mlp: mlp.max(1),
            lease,
        });
    }

    /// Ends recording: the workload of every ended phase, in program
    /// order, owning the recorded lanes.
    ///
    /// # Panics
    ///
    /// Panics if references were recorded after the last ended phase.
    pub fn finish(self, name: &str, pid: Pid) -> Workload {
        let mut s = self.state.borrow_mut();
        let lanes = std::mem::replace(&mut s.lanes, LaneWriter::new());
        lanes.finish(name.to_owned(), pid, std::mem::take(&mut s.phases))
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// A traced, block-aligned buffer of `T`.
///
/// Every [`TracedBuf::get`] and [`TracedBuf::set`] performs the real data
/// access *and* records the reference.
#[derive(Debug)]
pub struct TracedBuf<T> {
    data: Vec<T>,
    base: VirtAddr,
    state: Rc<RefCell<RecState>>,
}

impl<T: Copy> TracedBuf<T> {
    /// Reads element `i`, recording a load.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        let v = self.data[i];
        self.log(i, AccessKind::Load);
        v
    }

    /// Writes element `i`, recording a store.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        self.data[i] = v;
        self.log(i, AccessKind::Store);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Base virtual address of the buffer.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Untraced view of the data (verification, initialization checks).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Untraced initialization (host-side setup the paper does not charge
    /// to the accelerator trace).
    pub fn init_untraced(&mut self, f: impl FnMut(usize) -> T) {
        let mut f = f;
        for (i, slot) in self.data.iter_mut().enumerate() {
            *slot = f(i);
        }
    }

    #[inline]
    fn log(&self, i: usize, kind: AccessKind) {
        let addr = self.base.offset((i * std::mem::size_of::<T>()) as u64);
        self.state
            .borrow_mut()
            .log(BlockAddr::containing(addr), kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::AxcId;

    #[test]
    fn buffers_are_block_aligned_and_disjoint() {
        let rec = Recorder::new();
        let a = rec.buffer::<f32>(10); // 40 B -> 64 B slot
        let b = rec.buffer::<u8>(1);
        assert_eq!(a.base().value() % 64, 0);
        assert_eq!(b.base().value() % 64, 0);
        // Disjoint, with the deterministic anti-aliasing skew.
        assert!(b.base().value() - a.base().value() >= 64 + 64);
    }

    #[test]
    fn get_set_record_accurate_blocks() {
        let rec = Recorder::new();
        let mut buf = rec.buffer::<u32>(32);
        buf.set(3, 7);
        let v = buf.get(20);
        assert_eq!(v, 0);
        rec.end_phase("t", ExecUnit::Host, 1, 100);
        let base = BlockAddr::containing(buf.base());
        let wl = rec.finish("T", Pid::new(1));
        let p = wl.phase_refs(0);
        // Element 20 of a u32 buffer sits at byte 80: the second block.
        assert_eq!(
            p.blocks().collect::<Vec<_>>(),
            [base, BlockAddr::from_index(base.index() + 1)]
        );
        assert_eq!(p.kinds, [AccessKind::Store, AccessKind::Load]);
        assert_eq!(p.ordinals, [0, 1]);
    }

    #[test]
    fn gaps_reflect_op_density() {
        let rec = Recorder::new();
        let buf = rec.buffer::<u32>(8);
        buf.get(0);
        rec.int_ops(8); // 8 ops / width 4 = 2 cycles
        buf.get(1);
        rec.end_phase("t", ExecUnit::Axc(AxcId::new(0)), 1, 100);
        let wl = rec.finish("T", Pid::new(1));
        assert_eq!(wl.phase_refs(0).gaps, [0, 2]);
        assert_eq!(wl.phases[0].ops.int_ops, 8);
    }

    #[test]
    fn end_phase_resets_state() {
        let rec = Recorder::new();
        let buf = rec.buffer::<u8>(4);
        buf.get(0);
        rec.fp_ops(3);
        rec.end_phase("a", ExecUnit::Host, 1, 100);
        buf.get(1);
        rec.end_phase("b", ExecUnit::Host, 1, 100);
        let wl = rec.finish("T", Pid::new(1));
        assert_eq!(wl.phase_refs(0).len(), 1);
        assert_eq!(wl.phases[0].ops.fp_ops, 3);
        assert_eq!(wl.phase_refs(1).len(), 1);
        assert_eq!(wl.phases[1].ops.fp_ops, 0);
        assert_eq!(
            wl.phase_refs(1).gaps,
            [0],
            "gap must not leak across phases"
        );
        // One block, numbered once across both phases.
        assert_eq!(wl.phase_refs(1).ordinals, [0]);
    }

    #[test]
    fn init_untraced_leaves_no_refs() {
        let rec = Recorder::new();
        let mut buf = rec.buffer::<u16>(16);
        buf.init_untraced(|i| u16::try_from(i).unwrap());
        assert_eq!(buf.as_slice()[5], 5);
        rec.end_phase("x", ExecUnit::Host, 1, 1);
        assert_eq!(rec.finish("T", Pid::new(1)).total_refs(), 0);
    }

    #[test]
    fn ordinals_survive_recent_memo_collisions() {
        // Blocks 1024 apart share a memo slot: each must still keep the
        // ordinal of its first touch.
        let rec = Recorder::new();
        let blocks = [5u64, 5 + 1024, 5, 5 + 2048, 5 + 1024, 7];
        for &b in &blocks {
            rec.access(BlockAddr::from_index(b), AccessKind::Load);
        }
        rec.end_phase("x", ExecUnit::Host, 1, 1);
        let wl = rec.finish("T", Pid::new(1));
        assert_eq!(wl.phase_refs(0).ordinals, [0, 1, 0, 2, 1, 3]);
        let table: Vec<u64> = wl.ordinal_blocks().iter().map(|b| b.index()).collect();
        assert_eq!(table, [5, 5 + 1024, 5 + 2048, 7]);
    }

    #[test]
    #[should_panic(expected = "after the last phase")]
    fn references_after_the_last_phase_are_refused() {
        let rec = Recorder::new();
        rec.access(BlockAddr::from_index(1), AccessKind::Load);
        rec.finish("T", Pid::new(1));
    }

    #[test]
    fn mlp_is_clamped_to_one() {
        let rec = Recorder::new();
        rec.end_phase("x", ExecUnit::Host, 0, 1);
        assert_eq!(rec.finish("T", Pid::new(1)).phases[0].mlp, 1);
    }
}
