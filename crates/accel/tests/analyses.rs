//! The ordinal-indexed trace analyses against brute-force references
//! written over the `MemRef` phases with ordered maps: the oracle DMA
//! windows, the FUSION-Dx forwarding pairs and the Table 1/4 trace
//! statistics of every suite, at tiny and small scale, must come out
//! exactly as the references compute them.

use std::collections::{BTreeMap, BTreeSet};

use fusion_accel::analysis::{DmaWindow, ForwardPair, FunctionStats, TraceStats};
use fusion_accel::{DecodedTrace, MemRef, OpCounts, Phase, Workload};
use fusion_types::ids::ExecUnit;
use fusion_types::{AccessKind, AxcId, BlockAddr, Pid, VirtAddr};
use fusion_workloads::{all_suites, build_suite, Scale};

const CAPACITIES: [usize; 7] = [1, 2, 32, 64, 128, 256, 4096];
const WINDOWS: [usize; 6] = [1, 32, 64, 128, 256, usize::MAX];

fn traces() -> impl Iterator<Item = (String, Workload, DecodedTrace)> {
    [Scale::Tiny, Scale::Small].into_iter().flat_map(|scale| {
        all_suites().into_iter().map(move |suite| {
            let wl = build_suite(suite, scale);
            let decoded = DecodedTrace::decode(&wl);
            (format!("{}@{scale:?}", suite.label()), wl, decoded)
        })
    })
}

/// Oracle DMA windows of one phase: a window grows until a new block
/// would exceed `capacity` distinct blocks; it stages the blocks first
/// read and writes back the blocks written.
fn reference_windows(phase: &Phase, capacity: usize) -> Vec<DmaWindow> {
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
    for (i, r) in phase.refs.iter().enumerate() {
        let is_write = r.kind.is_write();
        if let Some((dirty, _)) = resident.get_mut(&r.block()) {
            *dirty |= is_write;
            continue;
        }
        if resident.len() == capacity {
            close(&mut resident, i);
        }
        resident.insert(r.block(), (is_write, !is_write));
    }
    if !phase.refs.is_empty() {
        close(&mut resident, phase.refs.len());
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
        let mut seen: BTreeMap<BlockAddr, Touch> = BTreeMap::new();
        for (i, r) in p.refs.iter().enumerate() {
            let rank = seen.len();
            let t = seen.entry(r.block()).or_insert(Touch {
                phase,
                axc: p.unit.axc(),
                wrote: false,
                read_first: !r.kind.is_write(),
                first_ref: i,
                last_ref: i,
                phase_len: p.refs.len(),
                rank,
            });
            t.wrote |= r.kind.is_write();
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
    for (name, wl, decoded) in traces() {
        for cap in CAPACITIES {
            let windows = decoded.dma_windows(&wl, cap);
            assert_eq!(windows.len(), wl.phases.len());
            for (idx, p) in wl.phases.iter().enumerate() {
                let want = if p.unit.is_host() {
                    Vec::new()
                } else {
                    reference_windows(p, cap)
                };
                assert_eq!(windows[idx], want, "{name} phase {idx} capacity {cap}");
            }
        }
    }
}

#[test]
fn every_dma_window_fits_its_scratchpad() {
    for (name, wl, decoded) in traces() {
        for cap in CAPACITIES {
            let windows = decoded.dma_windows(&wl, cap);
            for (p, phase_windows) in wl.phases.iter().zip(windows.iter()) {
                let mut next = 0;
                for w in phase_windows {
                    let (lo, hi) = w.ref_range;
                    assert_eq!(lo, next, "{name}: windows tile their phase");
                    next = hi;
                    let distinct: BTreeSet<BlockAddr> =
                        p.refs[lo..hi].iter().map(|r| r.block()).collect();
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
    for (name, wl, decoded) in traces() {
        for w in WINDOWS {
            let got = decoded.forward_pairs(&wl, w);
            assert_eq!(*got, reference_pairs(&wl, w), "{name} window {w}");
            found += got.len();
        }
    }
    assert!(found > 0, "the suites must expose forwarding pairs");
}

#[test]
fn ordinal_table_round_trips_every_reference() {
    for (name, wl, decoded) in traces() {
        let table = decoded.ordinal_blocks();
        let distinct: BTreeSet<BlockAddr> = table.iter().copied().collect();
        assert_eq!(distinct.len(), table.len(), "{name}: one ordinal per block");
        // Ordinals are dense and handed out in first-touch order.
        let mut issued = 0usize;
        for (idx, p) in wl.phases.iter().enumerate() {
            let dp = decoded.phase(idx);
            assert_eq!(dp.ordinals.len(), p.refs.len());
            for (r, &o) in p.refs.iter().zip(dp.ordinals) {
                let o = o as usize;
                assert_eq!(table[o], r.block(), "{name} phase {idx}");
                assert!(o <= issued, "{name}: ordinal {o} skips ahead of {issued}");
                issued = issued.max(o + 1);
            }
        }
        assert_eq!(issued, table.len(), "{name}: every ordinal is used");
    }
}

/// Distinct blocks of the workload, host phases included (Figure 6d).
fn reference_working_set(wl: &Workload) -> BTreeSet<BlockAddr> {
    wl.phases
        .iter()
        .flat_map(|p| p.refs.iter().map(MemRef::block))
        .collect()
}

/// Distinct blocks function `name`'s accelerator phases touch.
fn reference_function_blocks(wl: &Workload, name: &str) -> BTreeSet<BlockAddr> {
    wl.phases
        .iter()
        .filter(|p| p.name == name && !p.unit.is_host())
        .flat_map(|p| p.refs.iter().map(MemRef::block))
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
            let phases = wl
                .phases
                .iter()
                .filter(|p| p.name == name && !p.unit.is_host());
            let (mut loads, mut stores, mut ops) = (0, 0, OpCounts::default());
            for p in phases {
                stores += p.refs.iter().filter(|r| r.kind.is_write()).count() as u64;
                loads += p.refs.iter().filter(|r| !r.kind.is_write()).count() as u64;
                ops += p.ops;
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
    for p in wl.phases.iter().filter(|p| !p.unit.is_host()) {
        for r in &p.refs {
            touched.insert(r.block());
            if r.kind.is_write() {
                dirty.insert(r.block());
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
    for (name, wl, decoded) in traces() {
        let want = reference_stats(&wl);
        let got = decoded.trace_stats(&wl);
        assert_eq!(
            decoded.working_set().value(),
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

fn r(block: u64, kind: AccessKind) -> MemRef {
    MemRef {
        addr: VirtAddr::new(block * 64),
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
        ops: OpCounts {
            int_ops: 3,
            fp_ops: 1,
        },
        mlp: 2,
        lease: 500,
    }
}

#[test]
fn trace_stats_ignore_host_phases_and_count_interleaved_functions_once() {
    use AccessKind::{Load, Store};
    let axc = |i| ExecUnit::Axc(AxcId::new(i));
    let wl = Workload {
        name: "T".into(),
        pid: Pid::new(1),
        phases: vec![
            phase("a", axc(0), vec![r(0, Load), r(1, Store), r(0, Load)]),
            phase("b", axc(1), vec![r(1, Load), r(2, Load)]),
            // Host code named like an accelerated function is not part of
            // it: its blocks and writes count nowhere but the working set.
            phase("a", ExecUnit::Host, vec![r(2, Store), r(9, Store)]),
            phase("a", axc(0), vec![r(3, Store), r(1, Load)]),
            phase("c", axc(2), vec![r(4, Load)]),
        ],
    };
    let decoded = DecodedTrace::decode(&wl);
    let got = decoded.trace_stats(&wl);
    assert_eq!(*got, reference_stats(&wl));
    assert_eq!(decoded.working_set().value(), 6 * 64);
    assert_eq!((got.blocks, got.dirty_blocks), (5, 2));
    let blocks = |f: &str| (got[f].blocks, got[f].shared_blocks);
    assert_eq!(blocks("a"), (3, 1));
    assert_eq!(blocks("b"), (2, 1));
    assert_eq!(blocks("c"), (1, 0));
    assert_eq!((got["a"].loads, got["a"].stores), (3, 2));
}
