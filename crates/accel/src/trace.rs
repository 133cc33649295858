//! The dynamic trace format.

use std::sync::{Arc, Mutex, OnceLock};

use fusion_types::hash::FxHashMap;
use fusion_types::ids::ExecUnit;
use fusion_types::{AccessKind, BlockAddr, Bytes, Pid, VirtAddr};

use crate::analysis::{DmaWindow, ForwardPair, RankedPair, TraceStats};

/// One dynamic memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Virtual address accessed.
    pub addr: VirtAddr,
    /// Access size in bytes (1–64).
    pub size: u8,
    /// Load or store.
    pub kind: AccessKind,
    /// Datapath compute cycles separating this reference from the previous
    /// one (derived from the op counts between the two memory operations).
    pub gap: u16,
}

impl MemRef {
    /// Block containing this reference.
    #[inline]
    pub fn block(&self) -> BlockAddr {
        BlockAddr::containing(self.addr)
    }
}

/// Datapath operation counts of a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Integer ALU operations.
    pub int_ops: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
}

impl OpCounts {
    /// Total datapath operations.
    pub fn total(&self) -> u64 {
        self.int_ops + self.fp_ops
    }
}

impl std::ops::Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            int_ops: self.int_ops + rhs.int_ops,
            fp_ops: self.fp_ops + rhs.fp_ops,
        }
    }
}

impl std::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for OpCounts {
    type Output = OpCounts;
    fn sub(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            int_ops: self.int_ops - rhs.int_ops,
            fp_ops: self.fp_ops - rhs.fp_ops,
        }
    }
}

/// One accelerator (or host) invocation: a contiguous slice of the
/// sequential program offloaded to one execution unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Function name ("step1", "imgBlur", ...).
    pub name: String,
    /// Executing unit: one AXC of the tile, or the host core.
    pub unit: ExecUnit,
    /// The dynamic reference stream.
    pub refs: Vec<MemRef>,
    /// Datapath op counts (drive compute timing and compute energy).
    pub ops: OpCounts,
    /// Memory-level parallelism: maximum outstanding references.
    pub mlp: usize,
    /// ACC lease length in cycles assigned to this function (Table 3 LT).
    pub lease: u32,
}

/// A full offloaded program: the ordered phases the execution migrates
/// through, plus identity metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Benchmark name ("FFT", "DISP.", ...).
    pub name: String,
    /// Owning process (PID tags in the tile caches).
    pub pid: Pid,
    /// Program-ordered phases.
    pub phases: Vec<Phase>,
}

impl Workload {
    /// Distinct accelerator function names, in first-appearance order.
    /// Index in this list equals the function's `AxcId`.
    pub fn functions(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for p in &self.phases {
            if p.unit.is_host() {
                continue;
            }
            if !names.contains(&p.name.as_str()) {
                names.push(&p.name);
            }
        }
        names
    }

    /// Number of accelerators required (= distinct accelerated functions).
    pub fn axc_count(&self) -> usize {
        self.functions().len()
    }

    /// Total dynamic references across all phases.
    pub fn total_refs(&self) -> u64 {
        self.phases.iter().map(|p| p.refs.len() as u64).sum()
    }
}

/// A [`Workload`]'s reference stream decoded once into flat
/// structure-of-arrays form.
///
/// Replaying a workload touches every reference once per system per
/// configuration; re-deriving the containing block
/// (`addr / CACHE_BLOCK_BYTES`) and re-walking the `Vec<MemRef>` of every
/// phase on each replay is pure overhead. The decoded trace stores exactly
/// the per-reference fields the replay loops consume — containing block,
/// access kind and issue gap — in parallel vectors, with per-phase offsets
/// and op-count prefix sums alongside, so all systems and configurations of
/// a sweep stream the same cache-friendly arrays.
///
/// A fourth lane numbers each reference's block with a dense *ordinal*,
/// assigned in first-touch order over the whole trace; the ordinal → block
/// table ([`DecodedTrace::ordinal_blocks`]) maps it back. The trace
/// analyses index flat per-block arrays by ordinal instead of probing a
/// hash map per reference.
///
/// No same-kind runs are stored: [`kind_runs_of`] finds them on the kind
/// lane as a replay consumes them.
///
/// Decoding is lossless for timing purposes: the decoded replay loops
/// ([`crate::engine::run_phase_kind_runs`],
/// [`crate::ooo::run_host_phase_indexed`]) consume the same field values in
/// the same order as the `MemRef` loops, so results are bit-identical.
#[derive(Debug)]
pub struct DecodedTrace {
    blocks: Vec<BlockAddr>,
    kinds: Vec<AccessKind>,
    gaps: Vec<u16>,
    ordinals: Vec<u32>,
    // ordinal_blocks[o] is the block ordinal `o` names, in first-touch order.
    ordinal_blocks: Vec<BlockAddr>,
    // phase_offsets[i]..phase_offsets[i+1] is phase i's range; len = phases+1.
    phase_offsets: Vec<usize>,
    // op_prefix[i] = summed op counts of phases 0..i; len = phases+1.
    op_prefix: Vec<OpCounts>,
    analysis: AnalysisCache,
}

impl Clone for DecodedTrace {
    fn clone(&self) -> DecodedTrace {
        DecodedTrace {
            blocks: self.blocks.clone(),
            kinds: self.kinds.clone(),
            gaps: self.gaps.clone(),
            ordinals: self.ordinals.clone(),
            ordinal_blocks: self.ordinal_blocks.clone(),
            phase_offsets: self.phase_offsets.clone(),
            op_prefix: self.op_prefix.clone(),
            // Derived data: the clone re-computes (or re-shares) on demand.
            analysis: AnalysisCache::default(),
        }
    }
}

/// A maximal run of consecutive same-kind references within one phase or
/// DMA window (positions are relative to its start), as
/// [`kind_runs_of`] finds them. The replay loops dispatch per *run*
/// instead of testing the kind per reference — the branch that remains
/// inside the hot loop becomes run-constant and therefore perfectly
/// predicted ([`crate::engine::run_phase_kind_runs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindRun {
    /// First reference of the run, relative to the phase (or window)
    /// start.
    pub start: usize,
    /// Number of references in the run (always at least 1).
    pub len: usize,
    /// `true` when every reference in the run is a store.
    pub is_write: bool,
}

impl KindRun {
    /// One-past-the-end position of the run.
    #[inline]
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// The maximal same-kind runs of `kinds`, in order, found as they are
/// consumed: they tile `[0, kinds.len())`, consecutive runs alternate
/// kind, and empty input yields none.
///
/// The decoded trace stores no runs: the suites average about two
/// references per run, so a stored 24-byte run would replace about two
/// one-byte kinds. Scanning the kind lane of the phase (or DMA window)
/// being replayed costs one pass over bytes the replay touches anyway.
pub fn kind_runs_of(kinds: &[AccessKind]) -> impl Iterator<Item = KindRun> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let kind = *kinds.get(start)?;
        let len = 1 + kinds[start + 1..]
            .iter()
            .take_while(|&&k| k == kind)
            .count();
        let run = KindRun {
            start,
            len,
            is_write: kind.is_write(),
        };
        start += len;
        Some(run)
    })
}

/// Memoized trace post-processing, keyed by the configuration parameter
/// that shapes each analysis. The oracle DMA windowing and the FUSION-Dx
/// forwarding-pair identification are *post-processing of the trace* (the
/// paper computes both offline), not simulation work: memoizing them on
/// the shared decoded trace lets the sweep's untimed decode stage pay for
/// them once, outside every job's timed replay region.
///
/// The forwarding analysis walks the trace once for all L0X windows: the
/// ranked candidate list holds every pair with its consumer's first-touch
/// rank, and a window only filters it. The Table 1/4 statistics take no
/// parameter and are computed on first request only: the sweep never asks
/// for them, so decode and prewarm do not pay for them.
///
/// Hot-map audit: probed by key under a mutex, never iterated.
#[derive(Debug, Default)]
struct AnalysisCache {
    // capacity_blocks -> per-phase windows (empty vec for host phases).
    dma_windows: Mutex<FxHashMap<usize, Arc<Vec<Vec<DmaWindow>>>>>,
    // Every forwarding pair of the trace, key-sorted, with its rank.
    forward_candidates: OnceLock<Vec<RankedPair>>,
    // consumer_window -> forwarding pairs.
    forward_pairs: Mutex<FxHashMap<usize, Arc<Vec<ForwardPair>>>>,
    // Table 1/4 statistics of the accelerator phases.
    stats: OnceLock<TraceStats>,
}

impl DecodedTrace {
    /// Decodes `workload` into flat arrays. Do this once per workload and
    /// share the result across runs.
    pub fn decode(workload: &Workload) -> DecodedTrace {
        let total: usize = workload.phases.iter().map(|p| p.refs.len()).sum();
        let mut blocks = Vec::with_capacity(total);
        let mut kinds = Vec::with_capacity(total);
        let mut gaps = Vec::with_capacity(total);
        let mut ordinals = Vec::with_capacity(total);
        let mut ordinal_blocks = Vec::new();
        // Hot-map audit: probed per reference, never iterated; ordinals
        // follow `ordinal_blocks`' push order, which is program order.
        let mut ordinal_of: FxHashMap<BlockAddr, u32> = FxHashMap::default();
        let mut phase_offsets = Vec::with_capacity(workload.phases.len() + 1);
        let mut op_prefix = Vec::with_capacity(workload.phases.len() + 1);
        phase_offsets.push(0);
        op_prefix.push(OpCounts::default());
        let mut ops = OpCounts::default();
        for p in &workload.phases {
            for r in &p.refs {
                let b = r.block();
                blocks.push(b);
                kinds.push(r.kind);
                gaps.push(r.gap);
                ordinals.push(*ordinal_of.entry(b).or_insert_with(|| {
                    #[expect(
                        clippy::expect_used,
                        reason = "a trace names far fewer than 2^32 blocks"
                    )]
                    let o = u32::try_from(ordinal_blocks.len()).expect("block ordinal overflow");
                    ordinal_blocks.push(b);
                    o
                }));
            }
            phase_offsets.push(blocks.len());
            ops += p.ops;
            op_prefix.push(ops);
        }
        DecodedTrace {
            blocks,
            kinds,
            gaps,
            ordinals,
            ordinal_blocks,
            phase_offsets,
            op_prefix,
            analysis: AnalysisCache::default(),
        }
    }

    /// Oracle DMA windows of every phase for a scratchpad of
    /// `capacity_blocks` (host phases get an empty list), computed once per
    /// capacity and shared. `workload` must be the workload this trace was
    /// decoded from.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero.
    pub fn dma_windows(
        &self,
        workload: &Workload,
        capacity_blocks: usize,
    ) -> Arc<Vec<Vec<DmaWindow>>> {
        let mut cache = self
            .analysis
            .dma_windows
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Arc::clone(cache.entry(capacity_blocks).or_insert_with(|| {
            Arc::new(crate::analysis::dma_windows(
                self,
                workload,
                capacity_blocks,
            ))
        }))
    }

    /// FUSION-Dx forwarding pairs for an L0X of `consumer_window` blocks
    /// (`usize::MAX`: every pair), computed once per window and shared. The
    /// trace is walked once for all windows. `workload` must be the
    /// workload this trace was decoded from.
    pub fn forward_pairs(
        &self,
        workload: &Workload,
        consumer_window: usize,
    ) -> Arc<Vec<ForwardPair>> {
        let candidates = self
            .analysis
            .forward_candidates
            .get_or_init(|| crate::analysis::forward_candidates(self, workload));
        let mut cache = self
            .analysis
            .forward_pairs
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Arc::clone(cache.entry(consumer_window).or_insert_with(|| {
            Arc::new(
                candidates
                    .iter()
                    .filter(|c| c.rank < consumer_window)
                    .map(|c| c.pair)
                    .collect(),
            )
        }))
    }

    /// Table 1/4 statistics of the accelerator phases (per-function %SHR
    /// and op mix, %dirty blocks), computed on first request and shared.
    /// `workload` must be the workload this trace was decoded from.
    pub fn trace_stats(&self, workload: &Workload) -> &TraceStats {
        self.analysis
            .stats
            .get_or_init(|| crate::analysis::trace_stats(self, workload))
    }

    /// Unique working-set size across the whole program (host phases
    /// included): one block per ordinal.
    pub fn working_set(&self) -> Bytes {
        Bytes::new(self.ordinal_blocks.len() as u64 * fusion_types::CACHE_BLOCK_BYTES as u64)
    }

    /// The ordinal → block table: entry `o` is the block that
    /// [`DecodedPhase::ordinals`] value `o` names. Blocks appear in the
    /// order the trace first touches them.
    pub fn ordinal_blocks(&self) -> &[BlockAddr] {
        &self.ordinal_blocks
    }

    /// Number of phases in the decoded stream.
    pub fn phase_count(&self) -> usize {
        self.phase_offsets.len() - 1
    }

    /// Total dynamic references across all phases.
    pub fn total_refs(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Borrowed view of phase `idx`'s decoded references.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= phase_count()`.
    pub fn phase(&self, idx: usize) -> DecodedPhase<'_> {
        let lo = self.phase_offsets[idx];
        let hi = self.phase_offsets[idx + 1];
        DecodedPhase {
            blocks: &self.blocks[lo..hi],
            kinds: &self.kinds[lo..hi],
            gaps: &self.gaps[lo..hi],
            ordinals: &self.ordinals[lo..hi],
        }
    }

    /// The same-kind runs of phase `idx` (phase-local positions),
    /// collected from [`kind_runs_of`]. The replay loops stream
    /// `kind_runs_of(phase.kinds)` instead; this collected form is kept
    /// for the `perf` harness's engine pass, which iterates it.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= phase_count()`.
    pub fn phase_kind_runs(&self, idx: usize) -> Vec<KindRun> {
        kind_runs_of(self.phase(idx).kinds).collect()
    }

    /// Op counts of phase `idx` (recovered from the prefix sums).
    pub fn phase_ops(&self, idx: usize) -> OpCounts {
        self.op_prefix[idx + 1] - self.op_prefix[idx]
    }
}

/// A borrowed, sliceable view of one phase of a [`DecodedTrace`]: parallel
/// arrays indexed by position within the phase.
#[derive(Debug, Clone, Copy)]
pub struct DecodedPhase<'a> {
    /// Containing block of each reference.
    pub blocks: &'a [BlockAddr],
    /// Load/store kind of each reference.
    pub kinds: &'a [AccessKind],
    /// Compute gap preceding each reference.
    pub gaps: &'a [u16],
    /// Dense ordinal of each reference's block (see
    /// [`DecodedTrace::ordinal_blocks`]).
    pub ordinals: &'a [u32],
}

impl<'a> DecodedPhase<'a> {
    /// References in the phase (or window).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when the phase has no references.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Sub-window `[lo, hi)` of the phase — DMA windows replay slices.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(self, lo: usize, hi: usize) -> DecodedPhase<'a> {
        DecodedPhase {
            blocks: &self.blocks[lo..hi],
            kinds: &self.kinds[lo..hi],
            gaps: &self.gaps[lo..hi],
            ordinals: &self.ordinals[lo..hi],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::AxcId;

    fn r(addr: u64, kind: AccessKind) -> MemRef {
        MemRef {
            addr: VirtAddr::new(addr),
            size: 4,
            kind,
            gap: 0,
        }
    }

    fn phase(name: &str, unit: ExecUnit, refs: Vec<MemRef>) -> Phase {
        Phase {
            name: name.into(),
            unit,
            refs,
            ops: OpCounts::default(),
            mlp: 2,
            lease: 500,
        }
    }

    #[test]
    fn phase_counts_loads_and_stores() {
        let p = phase(
            "f",
            ExecUnit::Axc(AxcId::new(0)),
            vec![
                r(0, AccessKind::Load),
                r(64, AccessKind::Store),
                r(0, AccessKind::Load),
            ],
        );
        let wl = Workload {
            name: "T".into(),
            pid: Pid::new(1),
            phases: vec![p],
        };
        let d = DecodedTrace::decode(&wl);
        let f = &d.trace_stats(&wl)["f"];
        assert_eq!(f.loads, 2);
        assert_eq!(f.stores, 1);
        assert_eq!(f.blocks as u64 * 64, 128);
    }

    #[test]
    fn workload_functions_are_deduped_in_order() {
        let wl = Workload {
            name: "T".into(),
            pid: Pid::new(1),
            phases: vec![
                phase("a", ExecUnit::Axc(AxcId::new(0)), vec![]),
                phase("b", ExecUnit::Axc(AxcId::new(1)), vec![]),
                phase("a", ExecUnit::Axc(AxcId::new(0)), vec![]),
                phase("host", ExecUnit::Host, vec![]),
            ],
        };
        assert_eq!(wl.functions(), vec!["a", "b"]);
        assert_eq!(wl.axc_count(), 2);
    }

    #[test]
    fn working_set_dedups_blocks() {
        let wl = Workload {
            name: "T".into(),
            pid: Pid::new(1),
            phases: vec![
                phase(
                    "a",
                    ExecUnit::Axc(AxcId::new(0)),
                    vec![r(0, AccessKind::Load), r(8, AccessKind::Load)],
                ),
                phase(
                    "b",
                    ExecUnit::Axc(AxcId::new(1)),
                    vec![r(0, AccessKind::Store), r(128, AccessKind::Load)],
                ),
            ],
        };
        assert_eq!(DecodedTrace::decode(&wl).working_set().value(), 128);
        assert_eq!(wl.total_refs(), 4);
    }

    #[test]
    fn memref_block_mapping() {
        let m = r(130, AccessKind::Load);
        assert_eq!(m.block(), BlockAddr::from_index(2));
    }

    #[test]
    fn decoded_trace_mirrors_workload() {
        let wl = Workload {
            name: "T".into(),
            pid: Pid::new(1),
            phases: vec![
                phase(
                    "a",
                    ExecUnit::Axc(AxcId::new(0)),
                    vec![r(0, AccessKind::Load), r(130, AccessKind::Store)],
                ),
                phase("host", ExecUnit::Host, vec![r(64, AccessKind::Load)]),
            ],
        };
        let d = DecodedTrace::decode(&wl);
        assert_eq!(d.phase_count(), 2);
        assert_eq!(d.total_refs(), 3);
        for (i, p) in wl.phases.iter().enumerate() {
            let dp = d.phase(i);
            assert_eq!(dp.len(), p.refs.len());
            for (j, mr) in p.refs.iter().enumerate() {
                assert_eq!(dp.blocks[j], mr.block());
                assert_eq!(dp.kinds[j], mr.kind);
                assert_eq!(dp.gaps[j], mr.gap);
                assert_eq!(d.ordinal_blocks()[dp.ordinals[j] as usize], mr.block());
            }
            assert_eq!(d.phase_ops(i), p.ops);
        }
    }

    #[test]
    fn decoded_phase_slices_like_ref_ranges() {
        let refs: Vec<MemRef> = (0..10u64).map(|i| r(i * 64, AccessKind::Load)).collect();
        let wl = Workload {
            name: "T".into(),
            pid: Pid::new(1),
            phases: vec![phase("a", ExecUnit::Axc(AxcId::new(0)), refs.clone())],
        };
        let d = DecodedTrace::decode(&wl);
        let w = d.phase(0).slice(3, 7);
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
        for (j, mr) in refs[3..7].iter().enumerate() {
            assert_eq!(w.blocks[j], mr.block());
        }
        assert!(w.slice(4, 4).is_empty());
    }

    #[test]
    fn op_prefix_sums_recover_phase_ops() {
        let mut p1 = phase("a", ExecUnit::Axc(AxcId::new(0)), vec![]);
        p1.ops = OpCounts {
            int_ops: 5,
            fp_ops: 2,
        };
        let mut p2 = phase("host", ExecUnit::Host, vec![]);
        p2.ops = OpCounts {
            int_ops: 1,
            fp_ops: 9,
        };
        let wl = Workload {
            name: "T".into(),
            pid: Pid::new(1),
            phases: vec![p1.clone(), p2.clone()],
        };
        let d = DecodedTrace::decode(&wl);
        assert_eq!(d.phase_ops(0), p1.ops);
        assert_eq!(d.phase_ops(1), p2.ops);
    }

    #[test]
    fn kind_runs_are_maximal_alternating_and_tile_the_input() {
        use AccessKind::{Load as L, Store as S};
        assert_eq!(kind_runs_of(&[]).count(), 0);
        let run = |start, len, is_write| KindRun {
            start,
            len,
            is_write,
        };
        let kinds = [L, L, L, L, S, L, S, S, S, L];
        let runs: Vec<KindRun> = kind_runs_of(&kinds).collect();
        assert_eq!(
            runs,
            [
                run(0, 4, false),
                run(4, 1, true),
                run(5, 1, false),
                run(6, 3, true),
                run(9, 1, false),
            ]
        );
        // Every prefix of a sticky pseudo-random stream: the runs tile it,
        // each is non-empty and uniform, and neighbours differ in kind.
        let mut x = 0x2545_F491u32;
        let stream: Vec<AccessKind> = (0..300)
            .scan(L, |kind, _| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                if x.is_multiple_of(3) {
                    *kind = if *kind == L { S } else { L };
                }
                Some(*kind)
            })
            .collect();
        for n in 0..=stream.len() {
            let kinds = &stream[..n];
            let mut next = 0;
            let mut prev: Option<bool> = None;
            for r in kind_runs_of(kinds) {
                assert_eq!(r.start, next);
                assert!(r.len > 0);
                assert!(kinds[r.start..r.end()]
                    .iter()
                    .all(|k| k.is_write() == r.is_write));
                assert_ne!(prev, Some(r.is_write), "adjacent runs must differ");
                prev = Some(r.is_write);
                next = r.end();
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn op_counts_add() {
        let a = OpCounts {
            int_ops: 3,
            fp_ops: 1,
        };
        let b = OpCounts {
            int_ops: 2,
            fp_ops: 4,
        };
        assert_eq!((a + b).total(), 10);
    }
}
