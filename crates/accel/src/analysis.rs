//! Trace post-processing: the paper's toolchain analyses.
//!
//! * [`TraceStats`] — the trace characterisation of Tables 1 and 4: each
//!   function's %SHR (the fraction of its blocks that at least one
//!   *other* accelerated function also touches) and %INT/%FP/%LD/%ST
//!   operation mix, and the accelerator phases' %dirty blocks;
//! * [`Workload::dma_windows`] — Section 4's oracle DMA: segment a
//!   phase into scratchpad-sized execution windows, DMA-in exactly the
//!   blocks read before written, DMA-out exactly the dirty blocks;
//! * [`Workload::forward_pairs`] — Section 3.2's FUSION-Dx
//!   identification of producer→consumer stores (the paper post-processes
//!   the trace the same way).
//!
//! All three read a [`Workload`]'s phases and lanes and index flat
//! per-block arrays by its block ordinals; the workload memoizes their
//! results.

use fusion_types::{AxcId, BlockAddr};

use crate::trace::{OpCounts, Workload};

/// Per-function operation mix (percentages, as in Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpMix {
    /// % integer operations.
    pub int_pct: f64,
    /// % floating-point operations.
    pub fp_pct: f64,
    /// % loads.
    pub ld_pct: f64,
    /// % stores.
    pub st_pct: f64,
}

/// One accelerated function's share of the trace (all its phases merged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionStats {
    /// Function name, as in [`Workload::functions`].
    pub name: String,
    /// Distinct blocks the function touches.
    pub blocks: usize,
    /// Of those, blocks at least one other accelerated function touches.
    pub shared_blocks: usize,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Datapath op counts.
    pub ops: OpCounts,
}

impl FunctionStats {
    /// Table 1 %SHR: percentage of the function's blocks that another
    /// accelerated function also touches (0 for a function with none).
    pub fn sharing_degree(&self) -> f64 {
        if self.blocks == 0 {
            return 0.0;
        }
        100.0 * self.shared_blocks as f64 / self.blocks as f64
    }

    /// Table 1 %INT/%FP/%LD/%ST breakdown.
    pub fn op_mix(&self) -> OpMix {
        let OpCounts { int_ops, fp_ops } = self.ops;
        let total = (int_ops + fp_ops + self.loads + self.stores).max(1) as f64;
        OpMix {
            int_pct: 100.0 * int_ops as f64 / total,
            fp_pct: 100.0 * fp_ops as f64 / total,
            ld_pct: 100.0 * self.loads as f64 / total,
            st_pct: 100.0 * self.stores as f64 / total,
        }
    }
}

/// The trace characterisation of Tables 1 and 4, over the accelerator
/// phases (host phases are not counted). The working set of Figure 6d is
/// [`Workload::working_set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// One entry per accelerated function, in [`Workload::functions`]
    /// order.
    pub functions: Vec<FunctionStats>,
    /// Distinct blocks the accelerator phases touch.
    pub blocks: usize,
    /// Of those, blocks an accelerator phase writes.
    pub dirty_blocks: usize,
}

impl TraceStats {
    /// Table 4 %dirty blocks: percentage of the accelerator phases'
    /// blocks that they write.
    pub fn dirty_block_pct(&self) -> f64 {
        if self.blocks == 0 {
            return 0.0;
        }
        100.0 * self.dirty_blocks as f64 / self.blocks as f64
    }
}

impl std::ops::Index<&str> for TraceStats {
    type Output = FunctionStats;

    /// The statistics of function `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not an accelerated function of the trace.
    fn index(&self, name: &str) -> &FunctionStats {
        self.functions
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no accelerated function named '{name}'"))
    }
}

/// Computes [`TraceStats`] in one pass over the accelerator phases,
/// grouped by function, plus one pass over the block ordinals.
///
/// Per ordinal the pass keeps the last function that touched it and a
/// flag byte: written, and touched by a second function. Grouping by
/// function makes "last function" dedupe each function's blocks exactly,
/// for any number of functions. A block no second function touched is
/// exclusive to its only toucher, so a function's shared blocks are its
/// blocks minus its exclusive ones.
pub(crate) fn trace_stats(workload: &Workload) -> TraceStats {
    const NONE: u32 = u32::MAX;
    const DIRTY: u8 = 1;
    const SHARED: u8 = 2;
    let names = workload.functions();
    let n = workload.ordinal_blocks().len();
    let mut last = vec![NONE; n];
    let mut flags = vec![0u8; n];
    let mut functions: Vec<FunctionStats> = names
        .iter()
        .map(|name| FunctionStats {
            name: (*name).to_owned(),
            blocks: 0,
            shared_blocks: 0,
            loads: 0,
            stores: 0,
            ops: OpCounts::default(),
        })
        .collect();
    for (f, (name, stats)) in (0u32..).zip(names.iter().zip(&mut functions)) {
        let phases = workload.phases.iter().enumerate();
        for (idx, p) in phases.filter(|(_, p)| !p.unit.is_host() && p.name == *name) {
            let dp = workload.phase_refs(idx);
            let mut stores = 0;
            for (&o, kind) in dp.ordinals.iter().zip(dp.kinds) {
                let o = o as usize;
                if kind.is_write() {
                    flags[o] |= DIRTY;
                    stores += 1;
                }
                if last[o] == f {
                    continue;
                }
                if last[o] != NONE {
                    flags[o] |= SHARED;
                }
                last[o] = f;
                stats.blocks += 1;
            }
            stats.stores += stores as u64;
            stats.loads += (dp.len() - stores) as u64;
            stats.ops += p.ops;
        }
    }
    let (mut blocks, mut dirty_blocks) = (0, 0);
    let mut exclusive = vec![0usize; functions.len()];
    for (&f, &fl) in last.iter().zip(&flags) {
        if f == NONE {
            continue;
        }
        blocks += 1;
        dirty_blocks += usize::from(fl & DIRTY != 0);
        if fl & SHARED == 0 {
            exclusive[f as usize] += 1;
        }
    }
    for (stats, exclusive) in functions.iter_mut().zip(exclusive) {
        stats.shared_blocks = stats.blocks - exclusive;
    }
    TraceStats {
        functions,
        blocks,
        dirty_blocks,
    }
}

/// One oracle-DMA execution window (Section 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaWindow {
    /// Blocks the DMA engine stages before the window runs (read data).
    pub dma_in: Vec<BlockAddr>,
    /// Dirty blocks the DMA engine writes back after the window.
    pub dma_out: Vec<BlockAddr>,
    /// Half-open range of the phase's reference indices covered.
    pub ref_range: (usize, usize),
}

/// Flag bits of a block in the open DMA window (one byte per ordinal).
const DIRTY: u8 = 1;
const READ_FIRST: u8 = 2;

/// Segments every accelerator phase of `workload` into windows that fit a
/// scratchpad of `capacity_blocks`, computing each window's oracle DMA
/// transfers (host phases get an empty list).
///
/// The oracle (paper Section 4) stages only blocks whose first access in
/// the window is a read, and writes back only blocks dirtied in the window.
///
/// Residency is a window stamp per block ordinal: a block belongs to the
/// open window when its stamp equals the window's number, so opening a
/// window clears nothing.
///
/// # Panics
///
/// Panics if `capacity_blocks` is zero.
pub(crate) fn dma_windows(workload: &Workload, capacity_blocks: usize) -> Vec<Vec<DmaWindow>> {
    assert!(capacity_blocks > 0, "scratchpad must hold at least a block");
    let table = workload.ordinal_blocks();
    // Window numbers start at 1, so the zeroed array means "never staged".
    let mut stamp = vec![0usize; table.len()];
    let mut flags = vec![0u8; table.len()];
    let mut resident: Vec<u32> = Vec::with_capacity(capacity_blocks.min(table.len()));
    let mut window = 0usize;

    // Blocks of `resident` whose flags carry `flag`, as a sorted list.
    let collect = |resident: &[u32], flags: &[u8], flag: u8| {
        let mut out: Vec<BlockAddr> = resident
            .iter()
            .filter(|&&o| flags[o as usize] & flag != 0)
            .map(|&o| table[o as usize])
            .collect();
        out.sort_unstable();
        out
    };
    let close = |resident: &mut Vec<u32>, flags: &[u8], ref_range: (usize, usize)| {
        let w = DmaWindow {
            dma_in: collect(resident, flags, READ_FIRST),
            dma_out: collect(resident, flags, DIRTY),
            ref_range,
        };
        resident.clear();
        w
    };

    workload
        .phases
        .iter()
        .enumerate()
        .map(|(idx, p)| {
            let mut windows = Vec::new();
            if p.unit.is_host() {
                return windows;
            }
            let dp = workload.phase_refs(idx);
            let mut window_start = 0usize;
            window += 1;
            for (i, (&ord, kind)) in dp.ordinals.iter().zip(dp.kinds).enumerate() {
                let o = ord as usize;
                let is_write = kind.is_write();
                if stamp[o] == window {
                    flags[o] |= if is_write { DIRTY } else { 0 };
                    continue;
                }
                if resident.len() >= capacity_blocks {
                    windows.push(close(&mut resident, &flags, (window_start, i)));
                    window += 1;
                    window_start = i;
                }
                stamp[o] = window;
                flags[o] = if is_write { DIRTY } else { READ_FIRST };
                resident.push(ord);
            }
            if window_start < dp.len() {
                windows.push(close(&mut resident, &flags, (window_start, dp.len())));
            }
            windows
        })
        .collect()
}

/// A producer→consumer forwarding opportunity identified in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForwardPair {
    /// The shared block.
    pub block: BlockAddr,
    /// Writer whose self-downgrade should forward the data.
    pub producer: AxcId,
    /// Reader that consumes the data next.
    pub consumer: AxcId,
    /// `true` when the producer streams through the block in one narrow
    /// window of its phase: a later capacity self-eviction can forward the
    /// data immediately without stalling the producer.
    pub streaming: bool,
    /// Index (into [`Workload::phases`]) of the producing invocation: the
    /// rule is armed only while that phase runs, so an earlier invocation
    /// of the same function does not forward prematurely.
    pub producer_phase: usize,
    /// Index of the consuming invocation. Forwarded leases are short, so
    /// only consumers that run soon after the producer can use the data.
    pub consumer_phase: usize,
}

/// A [`ForwardPair`] with the consumer's first-touch rank of its block:
/// the pair is forwarded under an L0X window of `w` blocks iff `rank < w`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RankedPair {
    pub(crate) pair: ForwardPair,
    /// Rank of the block among the consumer phase's distinct blocks (0 =
    /// the first block the phase touches).
    pub(crate) rank: usize,
}

/// Identifies the stores that benefit from FUSION-Dx write forwarding, for
/// every consumer window at once: a block written by accelerator A in one
/// phase whose **next** tile access is a read by a different accelerator
/// B. [`Workload::forward_pairs`] keeps the pairs whose consumer
/// touches the block among its first `consumer_window` distinct blocks —
/// data the consumer reads later than that is evicted from its L0X (by its
/// own streaming) before it can be consumed, so forwarding it would only
/// pollute the cache.
///
/// One pass over the trace in program order: each block's last touch by
/// an earlier phase sits in a flat array indexed by block ordinal, and a
/// phase's first touch of a block pairs with it. Every pair is keyed by
/// `(block, producer_phase)` alone — a phase touches a block once in the
/// per-block timeline — so the sorted list needs no dedupe.
pub(crate) fn forward_candidates(workload: &Workload) -> Vec<RankedPair> {
    /// A block's summary over one phase.
    #[derive(Clone, Copy)]
    struct Touch {
        phase: usize,
        axc: Option<AxcId>, // None = host
        wrote: bool,
        /// The touches span a narrow window of the phase, so once the
        /// block leaves the L0X the phase is done with it.
        streaming: bool,
    }
    /// A block's touches in the running phase: `stamp` is the phase
    /// index + 1 while the phase runs (0 = untouched).
    #[derive(Clone, Copy, Default)]
    struct Open {
        stamp: usize,
        first_ref: usize,
        last_ref: usize,
        wrote: bool,
    }
    let table = workload.ordinal_blocks();
    let mut last: Vec<Option<Touch>> = vec![None; table.len()];
    let mut open = vec![Open::default(); table.len()];
    // The running phase's distinct blocks in first-touch order.
    let mut order: Vec<u32> = Vec::new();
    let mut out = Vec::new();
    for (idx, p) in workload.phases.iter().enumerate() {
        let axc = p.unit.axc();
        let dp = workload.phase_refs(idx);
        order.clear();
        for (i, (&o, kind)) in dp.ordinals.iter().zip(dp.kinds).enumerate() {
            let is_write = kind.is_write();
            let t = &mut open[o as usize];
            if t.stamp == idx + 1 {
                t.wrote |= is_write;
                t.last_ref = i;
                continue;
            }
            *t = Open {
                stamp: idx + 1,
                first_ref: i,
                last_ref: i,
                wrote: is_write,
            };
            if let (Some(consumer), Some(prev)) = (axc, last[o as usize]) {
                if let Some(producer) = prev.axc {
                    if prev.wrote && producer != consumer && !is_write {
                        out.push(RankedPair {
                            pair: ForwardPair {
                                block: table[o as usize],
                                producer,
                                consumer,
                                streaming: prev.streaming,
                                producer_phase: prev.phase,
                                consumer_phase: idx,
                            },
                            rank: order.len(),
                        });
                    }
                }
            }
            order.push(o);
        }
        let narrow = (dp.len() / 4).max(1);
        for &o in &order {
            let t = open[o as usize];
            last[o as usize] = Some(Touch {
                phase: idx,
                axc,
                wrote: t.wrote,
                streaming: t.last_ref - t.first_ref < narrow,
            });
        }
    }
    out.sort_unstable_by_key(|c| (c.pair.block, c.pair.producer_phase));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use fusion_types::ids::ExecUnit;
    use fusion_types::{AccessKind, Pid};

    type Refs<'a> = &'a [(u64, AccessKind)];

    /// A workload of accelerator phases (name, AXC, block-index
    /// references), each with 10 integer ops.
    fn workload(phases: &[(&str, u16, Refs<'_>)]) -> Workload {
        let rec = Recorder::new();
        for &(name, axc, refs) in phases {
            for &(b, kind) in refs {
                rec.access(BlockAddr::from_index(b), kind);
            }
            rec.int_ops(10);
            let unit = if axc == HOST {
                ExecUnit::Host
            } else {
                ExecUnit::Axc(AxcId::new(axc))
            };
            rec.end_phase(name, unit, 2, 500);
        }
        rec.finish("T", Pid::new(1))
    }

    /// The `axc` that [`workload`] runs on the host core.
    const HOST: u16 = u16::MAX;

    fn dma_windows(refs: Refs<'_>, capacity_blocks: usize) -> Vec<DmaWindow> {
        let wl = workload(&[("f", 0, refs)]);
        wl.dma_windows(capacity_blocks)[0].clone()
    }

    fn stats(wl: &Workload) -> TraceStats {
        wl.trace_stats().clone()
    }

    fn forward_pairs(wl: &Workload) -> Vec<ForwardPair> {
        wl.forward_pairs(usize::MAX).to_vec()
    }

    #[test]
    fn op_mix_percentages_sum_to_100() {
        let wl = workload(&[("f", 0, &[(0, AccessKind::Load), (1, AccessKind::Store)])]);
        let m = stats(&wl)["f"].op_mix();
        let sum = m.int_pct + m.fp_pct + m.ld_pct + m.st_pct;
        assert!((sum - 100.0).abs() < 1e-9);
        assert!(m.ld_pct > 0.0 && m.st_pct > 0.0 && m.int_pct > 0.0);
    }

    #[test]
    fn sharing_degree_counts_cross_function_blocks() {
        let wl = workload(&[
            ("a", 0, &[(0, AccessKind::Store), (1, AccessKind::Store)]),
            ("b", 1, &[(1, AccessKind::Load), (2, AccessKind::Load)]),
        ]);
        let s = stats(&wl);
        assert!((s["a"].sharing_degree() - 50.0).abs() < 1e-9);
        assert!((s["b"].sharing_degree() - 50.0).abs() < 1e-9);
        assert_eq!(s.blocks, 3);
        assert_eq!(s.dirty_blocks, 2);
    }

    #[test]
    fn sharing_degree_no_other_functions_is_zero() {
        let wl = workload(&[("a", 0, &[(0, AccessKind::Load)])]);
        let s = stats(&wl);
        assert_eq!(s["a"].sharing_degree(), 0.0);
        assert_eq!(s.functions.len(), 1);
    }

    #[test]
    fn dma_windows_split_on_capacity() {
        // Touch 4 distinct blocks with a 2-block scratchpad: 2 windows.
        let refs = [
            (0, AccessKind::Load),
            (1, AccessKind::Store),
            (2, AccessKind::Load),
            (3, AccessKind::Load),
        ];
        let ws = dma_windows(&refs, 2);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].ref_range, (0, 2));
        assert_eq!(ws[0].dma_in, vec![BlockAddr::from_index(0)]);
        assert_eq!(ws[0].dma_out, vec![BlockAddr::from_index(1)]);
        assert_eq!(ws[1].dma_in.len(), 2);
        assert!(ws[1].dma_out.is_empty());
    }

    #[test]
    fn dma_oracle_skips_write_first_blocks() {
        // Block written before read: not staged (the oracle only DMAs in
        // read data).
        let ws = dma_windows(&[(0, AccessKind::Store), (0, AccessKind::Load)], 4);
        assert_eq!(ws.len(), 1);
        assert!(ws[0].dma_in.is_empty());
        assert_eq!(ws[0].dma_out, vec![BlockAddr::from_index(0)]);
    }

    #[test]
    fn dma_windows_empty_phase() {
        assert!(dma_windows(&[], 4).is_empty());
    }

    #[test]
    fn forward_pairs_finds_producer_consumer() {
        let wl = workload(&[
            ("p", 0, &[(7, AccessKind::Store)]),
            ("c", 1, &[(7, AccessKind::Load)]),
        ]);
        let pairs = forward_pairs(&wl);
        assert_eq!(
            pairs,
            vec![ForwardPair {
                block: BlockAddr::from_index(7),
                producer: AxcId::new(0),
                consumer: AxcId::new(1),
                streaming: true,
                producer_phase: 0,
                consumer_phase: 1,
            }]
        );
    }

    #[test]
    fn forward_pairs_skips_write_first_consumers_and_host() {
        let wl = workload(&[
            ("p", 0, &[(7, AccessKind::Store), (8, AccessKind::Store)]),
            // Consumer overwrites block 8 before reading: no forward.
            ("c", 1, &[(8, AccessKind::Store), (8, AccessKind::Load)]),
            // The host reads block 7: no tile forward.
            ("h", HOST, &[(7, AccessKind::Load)]),
        ]);
        assert!(forward_pairs(&wl).is_empty());
    }

    #[test]
    fn forward_pairs_chain_across_three_steps() {
        let wl = workload(&[
            ("s1", 0, &[(3, AccessKind::Store)]),
            ("s2", 1, &[(3, AccessKind::Load), (3, AccessKind::Store)]),
            ("s3", 2, &[(3, AccessKind::Load)]),
        ]);
        let pairs = forward_pairs(&wl);
        assert_eq!(pairs.len(), 2);
        assert!(pairs
            .iter()
            .any(|p| p.producer == AxcId::new(0) && p.consumer == AxcId::new(1)));
        assert!(pairs
            .iter()
            .any(|p| p.producer == AxcId::new(1) && p.consumer == AxcId::new(2)));
    }
}
