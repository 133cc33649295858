//! The dynamic trace format: a [`Workload`] is phase metadata over one
//! set of per-reference lanes, written once by the [`crate::Recorder`].

use std::sync::{Arc, Mutex, OnceLock};

use fusion_types::hash::FxHashMap;
use fusion_types::ids::ExecUnit;
use fusion_types::{AccessKind, BlockAddr, Bytes, Pid};

use crate::analysis::{DmaWindow, ForwardPair, RankedPair, TraceStats};

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

/// One accelerator (or host) invocation: a contiguous slice of the
/// sequential program offloaded to one execution unit. Its references are
/// a range of the owning [`Workload`]'s lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Function name ("step1", "imgBlur", ...).
    pub name: String,
    /// Executing unit: one AXC of the tile, or the host core.
    pub unit: ExecUnit,
    /// Datapath op counts (drive compute timing and compute energy).
    pub ops: OpCounts,
    /// Memory-level parallelism: maximum outstanding references.
    pub mlp: usize,
    /// ACC lease length in cycles assigned to this function (Table 3 LT).
    pub lease: u32,
}

/// A full offloaded program: the ordered phases the execution migrates
/// through, identity metadata, the reference lanes the
/// [`crate::Recorder`] wrote, and the memoized analyses of those lanes
/// (oracle DMA windows, forwarding pairs, Table 1/4 statistics).
///
/// A clone shares the lanes but starts with an empty analysis cache, so
/// a clone whose phases are edited gets analyses of its own phases.
/// Equality ignores the cache.
#[derive(Debug)]
pub struct Workload {
    /// Benchmark name ("FFT", "DISP.", ...).
    pub name: String,
    /// Owning process (PID tags in the tile caches).
    pub pid: Pid,
    /// Program-ordered phases, one per recorded lane range: phase `i`'s
    /// references are [`Workload::phase_refs`]`(i)`. The analyses read the
    /// phases' units, names and op counts: edit them on a fresh clone,
    /// before any analysis of it is asked for.
    pub phases: Vec<Phase>,
    lanes: Arc<Lanes>,
    analysis: AnalysisCache,
}

impl Clone for Workload {
    fn clone(&self) -> Workload {
        Workload {
            name: self.name.clone(),
            pid: self.pid,
            phases: self.phases.clone(),
            lanes: Arc::clone(&self.lanes),
            analysis: AnalysisCache::default(),
        }
    }
}

impl PartialEq for Workload {
    fn eq(&self, other: &Workload) -> bool {
        self.name == other.name
            && self.pid == other.pid
            && self.phases == other.phases
            && self.lanes == other.lanes
    }
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
        self.lanes.ordinals.len() as u64
    }

    /// Borrowed view of phase `idx`'s references: the view every replay
    /// loop and analysis reads.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= phases.len()`.
    pub fn phase_refs(&self, idx: usize) -> DecodedPhase<'_> {
        self.lanes.phase(idx)
    }

    /// The ordinal → block table: entry `o` is the block that
    /// [`DecodedPhase::ordinals`] value `o` names. Blocks appear in the
    /// order the trace first touches them.
    pub fn ordinal_blocks(&self) -> &[BlockAddr] {
        &self.lanes.ordinal_blocks
    }

    /// Unique working-set size across the whole program (host phases
    /// included): one block per ordinal.
    pub fn working_set(&self) -> Bytes {
        Bytes::new(self.lanes.ordinal_blocks.len() as u64 * fusion_types::CACHE_BLOCK_BYTES as u64)
    }

    /// Oracle DMA windows of every phase for a scratchpad of
    /// `capacity_blocks` (host phases get an empty list), computed once per
    /// capacity and shared.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero.
    pub fn dma_windows(&self, capacity_blocks: usize) -> Arc<Vec<Vec<DmaWindow>>> {
        let mut cache = self
            .analysis
            .dma_windows
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Arc::clone(
            cache
                .entry(capacity_blocks)
                .or_insert_with(|| Arc::new(crate::analysis::dma_windows(self, capacity_blocks))),
        )
    }

    /// FUSION-Dx forwarding pairs for an L0X of `consumer_window` blocks
    /// (`usize::MAX`: every pair), computed once per window and shared. The
    /// trace is walked once for all windows.
    pub fn forward_pairs(&self, consumer_window: usize) -> Arc<Vec<ForwardPair>> {
        let candidates = self
            .analysis
            .forward_candidates
            .get_or_init(|| crate::analysis::forward_candidates(self));
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
    pub fn trace_stats(&self) -> &TraceStats {
        self.analysis
            .stats
            .get_or_init(|| crate::analysis::trace_stats(self))
    }
}

/// Every reference of a workload in flat structure-of-arrays form: the
/// per-reference fields the replay loops and the analyses consume —
/// block ordinal, access kind, issue gap — in three parallel vectors,
/// with the phase boundaries alongside, so all systems and configurations
/// of a sweep stream the same cache-friendly arrays.
///
/// A reference names its block by a dense *ordinal*, assigned in
/// first-touch order over the whole trace; the ordinal → block table
/// ([`Workload::ordinal_blocks`]) maps it back. The table holds one
/// entry per distinct block, a few tens of thousands at paper scale, so
/// it stays cache-resident while a replay resolves each reference through
/// it ([`DecodedPhase::block`]). A per-reference block lane would store
/// each block a second time (8 bytes a reference). The trace analyses
/// index flat per-block arrays by ordinal instead of probing a hash map
/// per reference.
///
/// No same-kind runs are stored: [`kind_runs_of`] finds them on the kind
/// lane as a replay consumes them.
#[derive(Debug, PartialEq)]
struct Lanes {
    kinds: Vec<AccessKind>,
    gaps: Vec<u16>,
    ordinals: Vec<u32>,
    // ordinal_blocks[o] is the block ordinal `o` names, in first-touch order.
    ordinal_blocks: Vec<BlockAddr>,
    // phase_offsets[i]..phase_offsets[i+1] is phase i's range; len = phases+1.
    phase_offsets: Vec<usize>,
}

impl Lanes {
    fn phase(&self, idx: usize) -> DecodedPhase<'_> {
        let (lo, hi) = (self.phase_offsets[idx], self.phase_offsets[idx + 1]);
        DecodedPhase {
            kinds: &self.kinds[lo..hi],
            gaps: &self.gaps[lo..hi],
            ordinals: &self.ordinals[lo..hi],
            ordinal_blocks: &self.ordinal_blocks,
        }
    }
}

/// Slots of [`LaneWriter`]'s recent-block memo (a power of two).
const RECENT_BLOCKS: usize = 1024;

/// Appends references to a workload's lanes in program order, numbering
/// each block at its first touch. The [`crate::Recorder`] writes through
/// it as kernels run, and the trace-file reader as it parses.
///
/// Kernels revisit the blocks they touched last, so a direct-mapped memo
/// of recently numbered blocks answers most references before the hash
/// map is probed.
#[derive(Debug)]
pub(crate) struct LaneWriter {
    lanes: Lanes,
    // Hot-map audit: probed on a memo miss, never iterated; ordinals
    // follow `ordinal_blocks`' push order, which is program order.
    ordinal_of: FxHashMap<BlockAddr, u32>,
    // The last block numbered in each slot, indexed by its index's low bits.
    recent: Vec<Option<(BlockAddr, u32)>>,
}

impl LaneWriter {
    pub(crate) fn new() -> LaneWriter {
        LaneWriter {
            lanes: Lanes {
                kinds: Vec::new(),
                gaps: Vec::new(),
                ordinals: Vec::new(),
                ordinal_blocks: Vec::new(),
                phase_offsets: vec![0],
            },
            ordinal_of: FxHashMap::default(),
            recent: vec![None; RECENT_BLOCKS],
        }
    }

    /// Appends one reference to the open phase.
    #[inline]
    pub(crate) fn push(&mut self, block: BlockAddr, kind: AccessKind, gap: u16) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "masked below RECENT_BLOCKS"
        )]
        let slot = &mut self.recent[(block.index() & (RECENT_BLOCKS as u64 - 1)) as usize];
        let ordinal = match *slot {
            Some((b, o)) if b == block => o,
            _ => {
                let table = &mut self.lanes.ordinal_blocks;
                let o = *self.ordinal_of.entry(block).or_insert_with(|| {
                    #[expect(
                        clippy::expect_used,
                        reason = "a trace names far fewer than 2^32 blocks"
                    )]
                    let o = u32::try_from(table.len()).expect("block ordinal overflow");
                    table.push(block);
                    o
                });
                *slot = Some((block, o));
                o
            }
        };
        let lanes = &mut self.lanes;
        lanes.kinds.push(kind);
        lanes.gaps.push(gap);
        lanes.ordinals.push(ordinal);
    }

    /// Closes the open phase: the references pushed since the last close
    /// are its lane range.
    pub(crate) fn end_phase(&mut self) {
        self.lanes.phase_offsets.push(self.lanes.ordinals.len());
    }

    /// The workload of `phases`, one per closed lane range, owning the
    /// lanes sized exactly.
    ///
    /// # Panics
    ///
    /// Panics if `phases` does not match the closed ranges one to one, or
    /// if references follow the last closed range.
    pub(crate) fn finish(self, name: String, pid: Pid, phases: Vec<Phase>) -> Workload {
        let mut lanes = self.lanes;
        assert_eq!(
            phases.len() + 1,
            lanes.phase_offsets.len(),
            "one phase per closed lane range"
        );
        assert_eq!(
            lanes.phase_offsets.last(),
            Some(&lanes.ordinals.len()),
            "references recorded after the last phase"
        );
        lanes.kinds.shrink_to_fit();
        lanes.gaps.shrink_to_fit();
        lanes.ordinals.shrink_to_fit();
        lanes.ordinal_blocks.shrink_to_fit();
        Workload {
            name,
            pid,
            phases,
            lanes: Arc::new(lanes),
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
/// The lanes store no runs: the suites average about two
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
/// the workload lets the sweep's untimed set-up stage pay for them once,
/// outside every job's timed replay region.
///
/// The forwarding analysis walks the trace once for all L0X windows: the
/// ranked candidate list holds every pair with its consumer's first-touch
/// rank, and a window only filters it. The Table 1/4 statistics take no
/// parameter and are computed on first request only: the sweep never asks
/// for them, so its set-up does not pay for them.
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

/// A borrowed, sliceable view of one phase of a [`Workload`]: parallel
/// arrays indexed by position within the phase, each reference's block
/// resolved through the ordinal → block table ([`DecodedPhase::block`]).
#[derive(Debug, Clone, Copy)]
pub struct DecodedPhase<'a> {
    /// Load/store kind of each reference.
    pub kinds: &'a [AccessKind],
    /// Compute gap preceding each reference.
    pub gaps: &'a [u16],
    /// Dense ordinal of each reference's block (see
    /// [`Workload::ordinal_blocks`]).
    pub ordinals: &'a [u32],
    // The whole trace's ordinal → block table.
    ordinal_blocks: &'a [BlockAddr],
}

impl<'a> DecodedPhase<'a> {
    /// References in the phase (or window).
    pub fn len(&self) -> usize {
        self.ordinals.len()
    }

    /// `true` when the phase has no references.
    pub fn is_empty(&self) -> bool {
        self.ordinals.is_empty()
    }

    /// Containing block of reference `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    #[inline]
    pub fn block(&self, j: usize) -> BlockAddr {
        self.ordinal_blocks[self.ordinals[j] as usize]
    }

    /// Containing block of each reference, in order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + 'a {
        let table = self.ordinal_blocks;
        self.ordinals.iter().map(move |&o| table[o as usize])
    }

    /// Sub-window `[lo, hi)` of the phase — DMA windows replay slices.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(self, lo: usize, hi: usize) -> DecodedPhase<'a> {
        DecodedPhase {
            kinds: &self.kinds[lo..hi],
            gaps: &self.gaps[lo..hi],
            ordinals: &self.ordinals[lo..hi],
            ordinal_blocks: self.ordinal_blocks,
        }
    }
}

/// The `perf` harness's view of a [`Workload`], held for it alone
/// (ROADMAP item 3): the simulator reads the workload directly. It has
/// exactly the calls the harness makes. The analyses delegate to the
/// workload passed in, so the harness's prewarm fills the cache that
/// [`Workload::dma_windows`] and [`Workload::forward_pairs`] later serve
/// to the replays.
#[derive(Debug)]
pub struct DecodedTrace {
    lanes: Arc<Lanes>,
    // The per-reference block lane, built by the first `phase` call.
    blocks: OnceLock<Vec<BlockAddr>>,
}

impl DecodedTrace {
    /// `workload`'s lanes, shared in constant time, never copied.
    pub fn decode(workload: &Workload) -> DecodedTrace {
        DecodedTrace {
            lanes: Arc::clone(&workload.lanes),
            blocks: OnceLock::new(),
        }
    }

    /// [`Workload::dma_windows`] of `workload`.
    pub fn dma_windows(
        &self,
        workload: &Workload,
        capacity_blocks: usize,
    ) -> Arc<Vec<Vec<DmaWindow>>> {
        workload.dma_windows(capacity_blocks)
    }

    /// [`Workload::forward_pairs`] of `workload`.
    pub fn forward_pairs(
        &self,
        workload: &Workload,
        consumer_window: usize,
    ) -> Arc<Vec<ForwardPair>> {
        workload.forward_pairs(consumer_window)
    }

    /// Total dynamic references across all phases.
    pub fn total_refs(&self) -> u64 {
        self.lanes.ordinals.len() as u64
    }

    /// Phase `idx`'s references with a per-reference block lane. The
    /// first call resolves every reference's block into a lane this view
    /// keeps (8 bytes a reference).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a phase of the workload.
    pub fn phase(&self, idx: usize) -> BlockLanePhase<'_> {
        let blocks = self.blocks.get_or_init(|| {
            (0..self.lanes.phase_offsets.len() - 1)
                .flat_map(|i| self.lanes.phase(i).blocks())
                .collect()
        });
        let (lo, refs) = (self.lanes.phase_offsets[idx], self.lanes.phase(idx));
        BlockLanePhase {
            blocks: &blocks[lo..lo + refs.len()],
            kinds: refs.kinds,
            gaps: refs.gaps,
        }
    }

    /// The same-kind runs of phase `idx` (phase-local positions),
    /// collected from [`kind_runs_of`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a phase of the workload.
    pub fn phase_kind_runs(&self, idx: usize) -> Vec<KindRun> {
        kind_runs_of(self.lanes.phase(idx).kinds).collect()
    }
}

/// A phase view with a per-reference block lane, as
/// [`DecodedTrace::phase`] returns it for the `perf` harness (ROADMAP
/// item 3).
#[derive(Debug, Clone, Copy)]
pub struct BlockLanePhase<'a> {
    /// Containing block of each reference.
    pub blocks: &'a [BlockAddr],
    /// Load/store kind of each reference.
    pub kinds: &'a [AccessKind],
    /// Compute gap preceding each reference.
    pub gaps: &'a [u16],
}

impl BlockLanePhase<'_> {
    /// References in the phase.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when the phase has no references.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use fusion_types::AxcId;
    use AccessKind::{Load, Store};

    type Refs<'a> = &'a [(u64, AccessKind)];

    /// A workload of `phases` (name, unit, block-index references).
    fn workload(phases: &[(&str, ExecUnit, Refs<'_>)]) -> Workload {
        let rec = Recorder::new();
        for &(name, unit, refs) in phases {
            for &(b, kind) in refs {
                rec.access(BlockAddr::from_index(b), kind);
            }
            rec.end_phase(name, unit, 2, 500);
        }
        rec.finish("T", Pid::new(1))
    }

    fn axc(i: u16) -> ExecUnit {
        ExecUnit::Axc(AxcId::new(i))
    }

    #[test]
    fn phase_counts_loads_and_stores() {
        let wl = workload(&[("f", axc(0), &[(0, Load), (1, Store), (0, Load)])]);
        let f = &wl.trace_stats()["f"];
        assert_eq!(f.loads, 2);
        assert_eq!(f.stores, 1);
        assert_eq!(f.blocks as u64 * 64, 128);
    }

    #[test]
    fn workload_functions_are_deduped_in_order() {
        let wl = workload(&[
            ("a", axc(0), &[]),
            ("b", axc(1), &[]),
            ("a", axc(0), &[]),
            ("host", ExecUnit::Host, &[]),
        ]);
        assert_eq!(wl.functions(), vec!["a", "b"]);
        assert_eq!(wl.axc_count(), 2);
    }

    #[test]
    fn working_set_dedups_blocks() {
        let wl = workload(&[
            ("a", axc(0), &[(0, Load), (0, Load)]),
            ("b", axc(1), &[(0, Store), (2, Load)]),
        ]);
        assert_eq!(wl.working_set().value(), 128);
        assert_eq!(wl.total_refs(), 4);
    }

    #[test]
    fn lanes_mirror_the_recorded_references() {
        let wl = workload(&[
            ("a", axc(0), &[(0, Load), (2, Store)]),
            ("host", ExecUnit::Host, &[(1, Load), (2, Load)]),
        ]);
        assert_eq!(wl.phases.len(), 2);
        assert_eq!(wl.total_refs(), 4);
        let b = BlockAddr::from_index;
        let blocks = |idx| wl.phase_refs(idx).blocks().collect::<Vec<_>>();
        assert_eq!(blocks(0), [b(0), b(2)]);
        assert_eq!(wl.phase_refs(0).kinds, [Load, Store]);
        assert_eq!(blocks(1), [b(1), b(2)]);
        assert_eq!(wl.phase_refs(1).block(0), b(1));
        assert_eq!(wl.phase_refs(1).ordinals, [2, 1]);
        assert_eq!(wl.ordinal_blocks(), [b(0), b(2), b(1)]);
    }

    #[test]
    fn block_lane_view_is_built_once_on_request() {
        let wl = workload(&[
            ("a", axc(0), &[(4, Load), (9, Store), (4, Load)]),
            ("host", ExecUnit::Host, &[(9, Load)]),
        ]);
        let d = DecodedTrace::decode(&wl);
        assert!(d.blocks.get().is_none(), "decode builds no block lane");
        for idx in 0..wl.phases.len() {
            let (lane, refs) = (d.phase(idx), wl.phase_refs(idx));
            assert_eq!(lane.blocks, refs.blocks().collect::<Vec<_>>());
            assert_eq!((lane.kinds, lane.gaps), (refs.kinds, refs.gaps));
            assert_eq!(lane.len(), refs.len());
        }
        let built = d
            .blocks
            .get()
            .expect("the first call builds the lane")
            .as_ptr();
        assert_eq!(d.phase(0).blocks.as_ptr(), built, "later calls reuse it");
    }

    #[test]
    fn decode_shares_the_lanes() {
        let wl = workload(&[("a", axc(0), &[(0, Load)])]);
        let d = DecodedTrace::decode(&wl);
        assert!(Arc::ptr_eq(&d.lanes, &wl.lanes));
        assert_eq!(d.total_refs(), wl.total_refs());
        assert_eq!(
            d.phase_kind_runs(0),
            kind_runs_of(&[Load]).collect::<Vec<_>>()
        );
        assert!(Arc::ptr_eq(&d.dma_windows(&wl, 4), &wl.dma_windows(4)));
        assert!(Arc::ptr_eq(&d.forward_pairs(&wl, 8), &wl.forward_pairs(8)));
    }

    #[test]
    fn analyses_are_memoized_and_a_clone_starts_empty() {
        let wl = workload(&[
            ("p", axc(0), &[(7, Store), (8, Store)]),
            ("c", axc(1), &[(7, Load), (8, Load)]),
        ]);
        assert!(Arc::ptr_eq(&wl.dma_windows(1), &wl.dma_windows(1)));
        assert!(Arc::ptr_eq(&wl.forward_pairs(8), &wl.forward_pairs(8)));
        assert_eq!(wl.forward_pairs(8).len(), 2);
        assert_eq!(wl.trace_stats().functions.len(), 2);
        // The consumer moves to the host on a clone: the clone shares the
        // lanes and compares equal until edited, but its analyses are its own.
        let mut host = wl.clone();
        assert!(Arc::ptr_eq(&host.lanes, &wl.lanes));
        assert_eq!(host, wl, "equality ignores the cache");
        host.phases[1].unit = ExecUnit::Host;
        assert_ne!(host, wl);
        assert!(
            host.forward_pairs(8).is_empty(),
            "the host takes no forwards"
        );
        assert!(
            host.dma_windows(1)[1].is_empty(),
            "host phases get no windows"
        );
        assert_eq!(host.trace_stats().functions.len(), 1);
        assert_eq!(wl.forward_pairs(8).len(), 2, "the original keeps its own");
        assert_eq!(wl.dma_windows(1)[1].len(), 2);
    }

    #[test]
    fn decoded_phase_slices_like_ref_ranges() {
        let refs: Vec<(u64, AccessKind)> = (0..10u64).map(|i| (i, Load)).collect();
        let wl = workload(&[("a", axc(0), &refs)]);
        let w = wl.phase_refs(0).slice(3, 7);
        assert_eq!(w.len(), 4);
        assert!(!w.is_empty());
        for (j, &(b, _)) in refs[3..7].iter().enumerate() {
            assert_eq!(w.block(j), BlockAddr::from_index(b));
        }
        assert!(w.slice(4, 4).is_empty());
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
