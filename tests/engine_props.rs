//! Property tests for the timing engines, the DMA controller and the
//! trace serialization format, driven by the seeded deterministic
//! generator in `common::Rng`.

mod common;

use common::Rng;
use fusion_repro::accel::io::{decode_workload, encode_workload};
use fusion_repro::accel::ooo::{run_host_phase, OooParams};
use fusion_repro::accel::{
    run_phase, run_phase_kind_runs, DecodedTrace, MemRef, OpCounts, Phase, Workload,
};
use fusion_repro::dma::{DmaController, DmaDirection};
use fusion_repro::mem::BankedTiming;
use fusion_repro::types::ids::ExecUnit;
use fusion_repro::types::{AccessKind, AxcId, BlockAddr, Cycle, LinkConfig, Pid, VirtAddr};

/// Random sequences explored per property.
const CASES: u64 = 64;

fn memref(rng: &mut Rng) -> MemRef {
    MemRef {
        addr: VirtAddr::new(rng.range_u64(0, 1 << 20)),
        size: rng.range_u8(1, 65),
        kind: if rng.chance() {
            AccessKind::Store
        } else {
            AccessKind::Load
        },
        gap: rng.range_u16(0, 50),
    }
}

fn memrefs(rng: &mut Rng, max: usize) -> Vec<MemRef> {
    let len = rng.range_usize(0, max);
    (0..len).map(|_| memref(rng)).collect()
}

/// The accelerator issue engine finishes no earlier than its start and
/// no earlier than the last memory completion; issue order respects
/// program order.
#[test]
fn run_phase_end_bounds() {
    let mut rng = Rng::new(0x9A5E);
    for _ in 0..CASES {
        let refs = memrefs(&mut rng, 100);
        let mlp = rng.range_usize(1, 8);
        let latency = rng.range_u64(1, 200);
        let mut issues: Vec<Cycle> = Vec::new();
        let mut max_done = Cycle::ZERO;
        let t = run_phase(&refs, mlp, Cycle::new(10), |_r, now| {
            issues.push(now);
            let done = now + latency;
            max_done = max_done.max(done);
            done
        });
        assert!(
            issues.windows(2).all(|w| w[0] <= w[1]),
            "issue order violated"
        );
        assert_eq!(t.issued, refs.len() as u64);
        assert!(t.end >= Cycle::new(10));
        assert!(t.end >= max_done);
    }
}

/// The issuer as an outstanding-completion list: push on issue, and once
/// `mlp` completions are outstanding, pop the earliest before the next
/// issue and stall until it lands. The engine's fixed-slot issuer must
/// reproduce it exactly. Returns (issue times, end, MLP stall cycles).
fn list_issuer(
    gaps: &[u16],
    latencies: &[u64],
    mlp: usize,
    start: Cycle,
) -> (Vec<Cycle>, Cycle, u64) {
    let mut now = start;
    let mut outstanding: Vec<Cycle> = Vec::new();
    let mut last = start;
    let mut stalls = 0;
    let mut issues = Vec::new();
    for (&gap, &lat) in gaps.iter().zip(latencies) {
        now += gap as u64;
        while outstanding.len() >= mlp {
            let mut min_idx = 0;
            for (j, &t) in outstanding.iter().enumerate() {
                if t < outstanding[min_idx] {
                    min_idx = j;
                }
            }
            let t = outstanding.swap_remove(min_idx);
            if t > now {
                stalls += t - now;
                now = t;
            }
        }
        issues.push(now);
        let done = now + lat;
        last = last.max(done);
        outstanding.push(done);
        now += 1;
    }
    (issues, now.max(last), stalls)
}

/// The fixed-slot MLP issuer is timing-identical to the outstanding-list
/// formulation: same per-reference issue times, end and stall cycles.
#[test]
fn slot_issuer_matches_the_outstanding_list() {
    let mut rng = Rng::new(0x5107);
    for mlp in 1..=8 {
        for _ in 0..CASES {
            let len = rng.range_usize(0, 200);
            let gaps: Vec<u16> = (0..len)
                .map(|_| {
                    if rng.chance() {
                        0
                    } else {
                        rng.range_u16(0, 40)
                    }
                })
                .collect();
            let latencies: Vec<u64> = (0..len)
                .map(|_| {
                    if rng.chance() {
                        rng.range_u64(1, 8)
                    } else {
                        rng.range_u64(1, 400)
                    }
                })
                .collect();
            let start = Cycle::new(rng.range_u64(0, 1000));
            let refs: Vec<MemRef> = gaps
                .iter()
                .map(|&gap| MemRef {
                    addr: VirtAddr::new(0),
                    size: 4,
                    kind: AccessKind::Load,
                    gap,
                })
                .collect();
            let mut issues = Vec::new();
            let t = run_phase(&refs, mlp, start, |_r, now| {
                let done = now + latencies[issues.len()];
                issues.push(now);
                done
            });
            let (want_issues, want_end, want_stalls) = list_issuer(&gaps, &latencies, mlp, start);
            assert_eq!(issues, want_issues, "mlp {mlp}: issue times differ");
            assert_eq!(t.end, want_end, "mlp {mlp}: end differs");
            assert_eq!(t.mlp_stall_cycles, want_stalls, "mlp {mlp}: stalls differ");
        }
    }
}

/// A latency that depends on both the access kind and the block, so a
/// replay that mixed up either would change the timing.
fn kind_and_block_latency(is_write: bool, block: BlockAddr) -> u64 {
    1 + block.index() % 97 + if is_write { 13 } else { 0 }
}

/// The two replay entry points agree: `run_phase` over a phase's
/// `MemRef`s and `run_phase_kind_runs` over the same phase decoded
/// (gap lane, block lane and kind runs) yield identical issue times and
/// an identical `PhaseTiming`.
#[test]
fn memref_and_decoded_kind_run_replays_agree() {
    let mut rng = Rng::new(0xD0DE);
    for mlp in 1..=8 {
        for _ in 0..CASES {
            let phases: Vec<Phase> = (0..rng.range_usize(1, 4))
                .map(|_| {
                    // Sticky kinds give runs of every length, not only
                    // the short ones a fair coin produces.
                    let mut kind = AccessKind::Load;
                    let refs = (0..rng.range_usize(0, 150))
                        .map(|_| {
                            if rng.range_u64(0, 4) == 0 {
                                kind = match kind {
                                    AccessKind::Load => AccessKind::Store,
                                    AccessKind::Store => AccessKind::Load,
                                };
                            }
                            MemRef {
                                addr: VirtAddr::new(rng.range_u64(0, 1 << 16)),
                                size: 4,
                                kind,
                                gap: rng.range_u16(0, 30),
                            }
                        })
                        .collect();
                    Phase {
                        name: "p".into(),
                        unit: ExecUnit::Axc(AxcId::new(0)),
                        refs,
                        ops: OpCounts::default(),
                        mlp,
                        lease: 100,
                    }
                })
                .collect();
            let wl = Workload {
                name: "prop".into(),
                pid: Pid::new(1),
                phases,
            };
            let decoded = DecodedTrace::decode(&wl);
            for (idx, phase) in wl.phases.iter().enumerate() {
                let start = Cycle::new(rng.range_u64(0, 1000));
                let mut memref_issues = Vec::new();
                let want = run_phase(&phase.refs, mlp, start, |r, now| {
                    memref_issues.push(now);
                    now + kind_and_block_latency(r.kind.is_write(), r.block())
                });
                let dp = decoded.phase(idx);
                let mut decoded_issues = Vec::new();
                let got = run_phase_kind_runs(
                    dp.len(),
                    |i| dp.gaps[i],
                    mlp,
                    start,
                    decoded.phase_kind_runs(idx).iter().copied(),
                    |i, now, is_write| {
                        decoded_issues.push(now);
                        now + kind_and_block_latency(is_write, dp.blocks[i])
                    },
                );
                assert_eq!(got, want, "mlp {mlp}, phase {idx}: timing differs");
                assert_eq!(
                    decoded_issues, memref_issues,
                    "mlp {mlp}: issue times differ"
                );
            }
        }
    }
}

/// The OOO host engine has the same bounds and never lets completions
/// precede issues.
#[test]
fn ooo_end_bounds() {
    let mut rng = Rng::new(0x0005);
    for _ in 0..CASES {
        let refs = memrefs(&mut rng, 100);
        let latency = rng.range_u64(1, 200);
        let mut max_done = Cycle::ZERO;
        let t = run_host_phase(&refs, OooParams::default(), Cycle::new(5), |_r, now| {
            let done = now + latency;
            max_done = max_done.max(done);
            done
        });
        assert_eq!(t.issued, refs.len() as u64);
        assert!(t.end >= Cycle::new(5));
        assert!(t.end >= max_done);
    }
}

/// A tighter load queue can only slow a load-only stream down.
#[test]
fn ooo_smaller_lq_is_never_faster() {
    let mut rng = Rng::new(0x10AD);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 60);
        let latency = rng.range_u64(1, 100);
        let refs: Vec<MemRef> = (0..n)
            .map(|i| MemRef {
                addr: VirtAddr::new(i as u64 * 64),
                size: 8,
                kind: AccessKind::Load,
                gap: 0,
            })
            .collect();
        let wide = OooParams {
            load_queue: 32,
            ..OooParams::default()
        };
        let narrow = OooParams {
            load_queue: 2,
            ..OooParams::default()
        };
        let tw = run_host_phase(&refs, wide, Cycle::ZERO, |_r, now| now + latency);
        let tn = run_host_phase(&refs, narrow, Cycle::ZERO, |_r, now| now + latency);
        assert!(tn.end >= tw.end, "narrow LQ finished earlier");
    }
}

/// Trace encode/decode is a lossless roundtrip for arbitrary workloads.
#[test]
fn trace_io_roundtrip() {
    const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";
    const PHASE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut rng = Rng::new(0x7ACE);
    for _ in 0..CASES {
        let phase_count = rng.range_usize(0, 6);
        let phases = (0..phase_count)
            .map(|_| {
                let pname = rng.ident(PHASE_CHARS, 12);
                let axc = if rng.chance() {
                    Some(rng.range_u16(0, 8))
                } else {
                    None
                };
                Phase {
                    name: pname,
                    unit: match axc {
                        Some(id) => ExecUnit::Axc(AxcId::new(id)),
                        None => ExecUnit::Host,
                    },
                    refs: memrefs(&mut rng, 50),
                    ops: OpCounts {
                        int_ops: rng.range_u64(0, 1000),
                        fp_ops: rng.range_u64(0, 1000),
                    },
                    mlp: rng.range_usize(1, 6),
                    lease: rng.range_u32(1, 5000),
                }
            })
            .collect();
        let wl = Workload {
            name: rng.ident(NAME_CHARS, 16),
            pid: Pid::new(rng.range_u32(0, 100)),
            phases,
        };
        let decoded = decode_workload(&encode_workload(&wl)).unwrap();
        assert_eq!(decoded, wl);
    }
}

/// DMA transfers complete monotonically and report exact block counts.
#[test]
fn dma_transfer_bounds() {
    let mut rng = Rng::new(0xD4A);
    for _ in 0..CASES {
        let blocks: Vec<u64> = {
            let len = rng.range_usize(0, 60);
            (0..len).map(|_| rng.range_u64(0, 1000)).collect()
        };
        let start = rng.range_u64(0, 10_000);
        let llc_latency = rng.range_u64(1, 300);
        let link = LinkConfig {
            pj_per_byte: 6.0,
            latency: 8,
            bytes_per_cycle: 8,
        };
        let mut dma = DmaController::new(link);
        let addrs: Vec<BlockAddr> = blocks.iter().map(|&b| BlockAddr::from_index(b)).collect();
        let t = dma.transfer(&addrs, DmaDirection::In, Cycle::new(start), |_b, at| {
            at + llc_latency
        });
        assert!(t.done_at >= Cycle::new(start));
        assert_eq!(t.blocks, addrs.len());
        if !addrs.is_empty() {
            // At least the link serialization time per block.
            assert!(t.done_at.value() >= start + addrs.len() as u64 * 16);
        }
        assert_eq!(dma.blocks_in(), addrs.len() as u64);
    }
}

/// Banked timing never schedules two same-bank accesses concurrently
/// and never goes backwards.
#[test]
fn banked_timing_serializes() {
    let mut rng = Rng::new(0xBA2C);
    for _ in 0..CASES {
        let accesses: Vec<(u64, u64)> = {
            let len = rng.range_usize(1, 100);
            (0..len)
                .map(|_| (rng.range_u64(0, 64), rng.range_u64(0, 100)))
                .collect()
        };
        let mut banks = BankedTiming::new(8, 3);
        let mut per_bank_last: std::collections::HashMap<u64, Cycle> =
            std::collections::HashMap::new();
        let mut now = Cycle::ZERO;
        for (block, dt) in accesses {
            now += dt;
            let start = banks.issue(BlockAddr::from_index(block), now);
            assert!(start >= now);
            let bank = block % 8;
            if let Some(&prev) = per_bank_last.get(&bank) {
                assert!(start.value() >= prev.value() + 3, "bank occupancy violated");
            }
            per_bank_last.insert(bank, start);
        }
    }
}
