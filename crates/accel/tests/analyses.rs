//! The ordinal-indexed trace analyses against brute-force references
//! written over each reference's block and kind with ordered maps: the oracle DMA
//! windows, the FUSION-Dx forwarding pairs and the Table 1/4 trace
//! statistics of every suite, at tiny and small scale, must come out
//! exactly as the references compute them.

use std::collections::{BTreeMap, BTreeSet};

use fusion_accel::analysis::{DmaWindow, ForwardPair, FunctionStats, TraceStats};
use fusion_accel::{DecodedPhase, OpCounts, Recorder, Workload};
use fusion_types::ids::ExecUnit;
use fusion_types::{AccessKind, AxcId, BlockAddr, Pid};
use fusion_workloads::{all_suites, build_suite, Scale};

const CAPACITIES: [usize; 7] = [1, 2, 32, 64, 128, 256, 4096];
const WINDOWS: [usize; 6] = [1, 32, 64, 128, 256, usize::MAX];

fn traces() -> impl Iterator<Item = (String, Workload)> {
    [Scale::Tiny, Scale::Small].into_iter().flat_map(|scale| {
        all_suites().into_iter().map(move |suite| {
            (
                format!("{}@{scale:?}", suite.label()),
                build_suite(suite, scale),
            )
        })
    })
}

/// Oracle DMA windows of one phase: a window grows until a new block
/// would exceed `capacity` distinct blocks; it stages the blocks first
/// read and writes back the blocks written.
fn reference_windows(phase: DecodedPhase<'_>, capacity: usize) -> Vec<DmaWindow> {
    // block -> (dirty, first access is a read)
    let mut resident: BTreeMap<BlockAddr, (bool, bool)> = BTreeMap::new();
    let mut windows = Vec::new();
    let mut start = 0;
    let mut close = |resident: &mut BTreeMap<BlockAddr, (bool, bool)>, end: usize| {
        windows.push(DmaWindow {
            dma_in: resident.iter().filter(|e| e.1 .1).map(|e| *e.0).collect(),
            dma_out: resident.iter().filter(|e| e.1 .0).map(|e| *e.0).collect(),
            ref_range: (start, end),
        });
        resident.clear();
        start = end;
    };
    for (i, (block, kind)) in phase.blocks().zip(phase.kinds).enumerate() {
        let is_write = kind.is_write();
        if let Some((dirty, _)) = resident.get_mut(&block) {
            *dirty |= is_write;
            continue;
        }
        if resident.len() == capacity {
            close(&mut resident, i);
        }
        resident.insert(block, (is_write, !is_write));
    }
    if !phase.is_empty() {
        close(&mut resident, phase.len());
    }
    windows
}

/// One phase's touches of one block.
#[derive(Clone, Copy)]
struct Touch {
    phase: usize,
    axc: Option<AxcId>,
    wrote: bool,
    read_first: bool,
    first_ref: usize,
    last_ref: usize,
    phase_len: usize,
    rank: usize,
}

/// FUSION-Dx pairs: consecutive touches of a block where an accelerator
/// wrote it and a different accelerator reads it first, among that
/// consumer's first `window` distinct blocks; keyed by
/// `(block, producer_phase, consumer)`.
fn reference_pairs(wl: &Workload, window: usize) -> Vec<ForwardPair> {
    let mut timeline: BTreeMap<BlockAddr, Vec<Touch>> = BTreeMap::new();
    for (phase, p) in wl.phases.iter().enumerate() {
        let dp = wl.phase_refs(phase);
        let mut seen: BTreeMap<BlockAddr, Touch> = BTreeMap::new();
        for (i, (block, kind)) in dp.blocks().zip(dp.kinds).enumerate() {
            let rank = seen.len();
            let t = seen.entry(block).or_insert(Touch {
                phase,
                axc: p.unit.axc(),
                wrote: false,
                read_first: !kind.is_write(),
                first_ref: i,
                last_ref: i,
                phase_len: dp.len(),
                rank,
            });
            t.wrote |= kind.is_write();
            t.last_ref = i;
        }
        for (b, t) in seen {
            timeline.entry(b).or_default().push(t);
        }
    }
    let mut pairs = BTreeMap::new();
    for (&block, touches) in &timeline {
        for w in touches.windows(2) {
            let (prev, next) = (w[0], w[1]);
            let (Some(producer), Some(consumer)) = (prev.axc, next.axc) else {
                continue;
            };
            if prev.wrote && producer != consumer && next.read_first && next.rank < window {
                let streaming = prev.last_ref - prev.first_ref < (prev.phase_len / 4).max(1);
                let pair = ForwardPair {
                    block,
                    producer,
                    consumer,
                    streaming,
                    producer_phase: prev.phase,
                    consumer_phase: next.phase,
                };
                pairs.insert((block, prev.phase, consumer.value()), pair);
            }
        }
    }
    pairs.into_values().collect()
}

#[test]
fn dma_windows_match_the_reference_at_every_capacity() {
    for (name, wl) in traces() {
        for cap in CAPACITIES {
            let windows = wl.dma_windows(cap);
            assert_eq!(windows.len(), wl.phases.len());
            for (idx, p) in wl.phases.iter().enumerate() {
                let want = if p.unit.is_host() {
                    Vec::new()
                } else {
                    reference_windows(wl.phase_refs(idx), cap)
                };
                assert_eq!(windows[idx], want, "{name} phase {idx} capacity {cap}");
            }
        }
    }
}

#[test]
fn every_dma_window_fits_its_scratchpad() {
    for (name, wl) in traces() {
        for cap in CAPACITIES {
            let windows = wl.dma_windows(cap);
            for (idx, phase_windows) in windows.iter().enumerate() {
                let dp = wl.phase_refs(idx);
                let mut next = 0;
                for w in phase_windows {
                    let (lo, hi) = w.ref_range;
                    assert_eq!(lo, next, "{name}: windows tile their phase");
                    next = hi;
                    let distinct: BTreeSet<BlockAddr> = dp.slice(lo, hi).blocks().collect();
                    assert!(
                        distinct.len() <= cap,
                        "{name}: window [{lo}, {hi}) holds {} blocks, capacity {cap}",
                        distinct.len()
                    );
                }
            }
        }
    }
}

#[test]
fn forward_pairs_match_the_reference_at_every_window() {
    let mut found = 0;
    for (name, wl) in traces() {
        for w in WINDOWS {
            let got = wl.forward_pairs(w);
            assert_eq!(*got, reference_pairs(&wl, w), "{name} window {w}");
            found += got.len();
        }
    }
    assert!(found > 0, "the suites must expose forwarding pairs");
}

/// A reference's block is `ordinal_blocks[ordinal]`, so the numbering
/// carries every block: the table must name each block once, and the
/// ordinals must be handed out densely in first-touch order.
#[test]
fn ordinals_number_distinct_blocks_in_first_touch_order() {
    for (name, wl) in traces() {
        let table = wl.ordinal_blocks();
        let distinct: BTreeSet<BlockAddr> = table.iter().copied().collect();
        assert_eq!(distinct.len(), table.len(), "{name}: one ordinal per block");
        let mut issued = 0usize;
        for idx in 0..wl.phases.len() {
            for &o in wl.phase_refs(idx).ordinals {
                let o = o as usize;
                assert!(o <= issued, "{name}: ordinal {o} skips ahead of {issued}");
                issued = issued.max(o + 1);
            }
        }
        assert_eq!(issued, table.len(), "{name}: every ordinal is used");
    }
}

/// Distinct blocks of the workload, host phases included (Figure 6d).
fn reference_working_set(wl: &Workload) -> BTreeSet<BlockAddr> {
    (0..wl.phases.len())
        .flat_map(|idx| wl.phase_refs(idx).blocks())
        .collect()
}

/// The indices of function `name`'s accelerator phases.
fn function_phases<'a>(wl: &'a Workload, name: &'a str) -> impl Iterator<Item = usize> + 'a {
    (0..wl.phases.len()).filter(move |&idx| {
        let p = &wl.phases[idx];
        p.name == name && !p.unit.is_host()
    })
}

/// Distinct blocks function `name`'s accelerator phases touch.
fn reference_function_blocks(wl: &Workload, name: &str) -> BTreeSet<BlockAddr> {
    function_phases(wl, name)
        .flat_map(|idx| wl.phase_refs(idx).blocks())
        .collect()
}

/// Table 1/4 statistics: per-function block sets intersected with the
/// union of every other function's, op counts summed over the function's
/// accelerator phases, and the accelerator phases' touched and written
/// block sets.
fn reference_stats(wl: &Workload) -> TraceStats {
    let names = wl.functions();
    let functions = names
        .iter()
        .map(|&name| {
            let mine = reference_function_blocks(wl, name);
            let others: BTreeSet<BlockAddr> = names
                .iter()
                .filter(|&&other| other != name)
                .flat_map(|other| reference_function_blocks(wl, other))
                .collect();
            let (mut loads, mut stores, mut ops) = (0, 0, OpCounts::default());
            for idx in function_phases(wl, name) {
                let kinds = wl.phase_refs(idx).kinds;
                stores += kinds.iter().filter(|k| k.is_write()).count() as u64;
                loads += kinds.iter().filter(|k| !k.is_write()).count() as u64;
                ops += wl.phases[idx].ops;
            }
            FunctionStats {
                name: name.to_owned(),
                blocks: mine.len(),
                shared_blocks: mine.intersection(&others).count(),
                loads,
                stores,
                ops,
            }
        })
        .collect();
    let mut touched = BTreeSet::new();
    let mut dirty = BTreeSet::new();
    for (idx, p) in wl.phases.iter().enumerate() {
        if p.unit.is_host() {
            continue;
        }
        let dp = wl.phase_refs(idx);
        for (block, kind) in dp.blocks().zip(dp.kinds) {
            touched.insert(block);
            if kind.is_write() {
                dirty.insert(block);
            }
        }
    }
    TraceStats {
        functions,
        blocks: touched.len(),
        dirty_blocks: dirty.len(),
    }
}

#[test]
fn trace_stats_match_the_reference_for_every_function() {
    for (name, wl) in traces() {
        let want = reference_stats(&wl);
        let got = wl.trace_stats();
        assert_eq!(
            wl.working_set().value(),
            reference_working_set(&wl).len() as u64 * 64,
            "{name}: working set"
        );
        assert_eq!(got.blocks, want.blocks, "{name}: accelerator blocks");
        assert_eq!(got.dirty_blocks, want.dirty_blocks, "{name}: dirty blocks");
        assert_eq!(got.functions.len(), want.functions.len(), "{name}");
        for (g, w) in got.functions.iter().zip(&want.functions) {
            assert_eq!(g, w, "{name}: function {}", w.name);
            assert_eq!(g.sharing_degree(), w.sharing_degree(), "{name} {}", w.name);
            assert_eq!(g.op_mix(), w.op_mix(), "{name} {}", w.name);
        }
        assert_eq!(got.dirty_block_pct(), want.dirty_block_pct(), "{name}");
    }
}

#[test]
fn trace_stats_ignore_host_phases_and_count_interleaved_functions_once() {
    use AccessKind::{Load, Store};
    let axc = |i| ExecUnit::Axc(AxcId::new(i));
    type Refs<'a> = &'a [(u64, AccessKind)];
    let phases: [(&str, ExecUnit, Refs<'_>); 5] = [
        ("a", axc(0), &[(0, Load), (1, Store), (0, Load)]),
        ("b", axc(1), &[(1, Load), (2, Load)]),
        // Host code named like an accelerated function is not part of
        // it: its blocks and writes count nowhere but the working set.
        ("a", ExecUnit::Host, &[(2, Store), (9, Store)]),
        ("a", axc(0), &[(3, Store), (1, Load)]),
        ("c", axc(2), &[(4, Load)]),
    ];
    let rec = Recorder::new();
    for (name, unit, refs) in phases {
        for &(b, kind) in refs {
            rec.access(BlockAddr::from_index(b), kind);
        }
        rec.int_ops(3);
        rec.fp_ops(1);
        rec.end_phase(name, unit, 2, 500);
    }
    let wl = rec.finish("T", Pid::new(1));
    let got = wl.trace_stats();
    assert_eq!(*got, reference_stats(&wl));
    assert_eq!(wl.working_set().value(), 6 * 64);
    assert_eq!((got.blocks, got.dirty_blocks), (5, 2));
    let blocks = |f: &str| (got[f].blocks, got[f].shared_blocks);
    assert_eq!(blocks("a"), (3, 1));
    assert_eq!(blocks("b"), (2, 1));
    assert_eq!(blocks("c"), (1, 0));
    assert_eq!((got["a"].loads, got["a"].stores), (3, 2));
}
