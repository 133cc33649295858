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
use fusion_types::{AccessKind, VirtAddr, CACHE_BLOCK_BYTES};

use crate::trace::{MemRef, OpCounts, Phase};

/// Datapath operations retired per cycle between memory references (the
/// fixed-function datapath exploits the paper's observed instruction-level
/// parallelism; 4 matches the operation density of Table 1 functions).
const ISSUE_WIDTH: u64 = 4;

#[derive(Debug)]
struct RecState {
    refs: Vec<MemRef>,
    next_addr: u64,
    alloc_count: u64,
    ops_since_ref: u64,
    ops: OpCounts,
}

/// Records the dynamic trace of instrumented kernels.
///
/// # Examples
///
/// ```
/// use fusion_accel::Recorder;
/// use fusion_types::ids::ExecUnit;
/// use fusion_types::AxcId;
///
/// let rec = Recorder::new();
/// let mut buf = rec.buffer::<f32>(16);
/// for i in 0..16 {
///     let v = buf.get(i);
///     rec.fp_ops(1);
///     buf.set(i, v + 1.0);
/// }
/// let phase = rec.take_phase("incr", ExecUnit::Axc(AxcId::new(0)), 2, 500);
/// assert_eq!(phase.refs.len(), 32);
/// assert_eq!(phase.ops.fp_ops, 16);
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
                refs: Vec::new(),
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

    /// Ends the current phase: drains the recorded references and op
    /// counts into a [`Phase`] with the given identity and parameters.
    pub fn take_phase(&self, name: &str, unit: ExecUnit, mlp: usize, lease: u32) -> Phase {
        let mut s = self.state.borrow_mut();
        s.ops_since_ref = 0;
        Phase {
            name: name.to_owned(),
            unit,
            refs: std::mem::take(&mut s.refs),
            ops: std::mem::take(&mut s.ops),
            mlp: mlp.max(1),
            lease,
        }
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
/// access *and* records a [`MemRef`].
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

    fn log(&self, i: usize, kind: AccessKind) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "traced elements are scalars of at most 8 bytes"
        )]
        let size = std::mem::size_of::<T>() as u8;
        let addr = self.base.offset((i * std::mem::size_of::<T>()) as u64);
        let mut s = self.state.borrow_mut();
        let gap = u16::try_from(s.ops_since_ref / ISSUE_WIDTH).unwrap_or(u16::MAX);
        s.ops_since_ref = 0;
        s.refs.push(MemRef {
            addr,
            size,
            kind,
            gap,
        });
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
    fn get_set_record_accurate_addresses() {
        let rec = Recorder::new();
        let mut buf = rec.buffer::<u32>(32);
        buf.set(3, 7);
        let v = buf.get(3);
        assert_eq!(v, 7);
        let phase = rec.take_phase("t", ExecUnit::Host, 1, 100);
        assert_eq!(phase.refs.len(), 2);
        assert_eq!(phase.refs[0].addr, buf.base().offset(12));
        assert!(phase.refs[0].kind.is_write());
        assert!(!phase.refs[1].kind.is_write());
        assert_eq!(phase.refs[1].size, 4);
    }

    #[test]
    fn gaps_reflect_op_density() {
        let rec = Recorder::new();
        let buf = rec.buffer::<u32>(8);
        buf.get(0);
        rec.int_ops(8); // 8 ops / width 4 = 2 cycles
        buf.get(1);
        let phase = rec.take_phase("t", ExecUnit::Axc(AxcId::new(0)), 1, 100);
        assert_eq!(phase.refs[0].gap, 0);
        assert_eq!(phase.refs[1].gap, 2);
        assert_eq!(phase.ops.int_ops, 8);
    }

    #[test]
    fn take_phase_resets_state() {
        let rec = Recorder::new();
        let buf = rec.buffer::<u8>(4);
        buf.get(0);
        rec.fp_ops(3);
        let p1 = rec.take_phase("a", ExecUnit::Host, 1, 100);
        assert_eq!(p1.refs.len(), 1);
        assert_eq!(p1.ops.fp_ops, 3);
        buf.get(1);
        let p2 = rec.take_phase("b", ExecUnit::Host, 1, 100);
        assert_eq!(p2.refs.len(), 1);
        assert_eq!(p2.ops.fp_ops, 0);
        assert_eq!(p2.refs[0].gap, 0, "gap must not leak across phases");
    }

    #[test]
    fn init_untraced_leaves_no_refs() {
        let rec = Recorder::new();
        let mut buf = rec.buffer::<u16>(16);
        buf.init_untraced(|i| u16::try_from(i).unwrap());
        assert_eq!(buf.as_slice()[5], 5);
        assert!(rec.take_phase("x", ExecUnit::Host, 1, 1).refs.is_empty());
    }

    #[test]
    fn mlp_is_clamped_to_one() {
        let rec = Recorder::new();
        let p = rec.take_phase("x", ExecUnit::Host, 0, 1);
        assert_eq!(p.mlp, 1);
    }
}
