//! Property tests for the timing engines, the DMA controller and the
//! trace serialization format, driven by the seeded deterministic
//! generator in `common::Rng`.

#![allow(
    clippy::disallowed_types,
    reason = "a test may use std maps as a reference model"
)]

mod common;

use common::Rng;
use fusion_repro::accel::io::{decode_workload, encode_workload};
use fusion_repro::accel::ooo::{run_host_phase_indexed, OooParams};
use fusion_repro::accel::{kind_runs_of, run_phase_kind_runs, DecodedPhase, PhaseTiming, Recorder};
use fusion_repro::dma::{DmaController, DmaDirection};
use fusion_repro::types::ids::ExecUnit;
use fusion_repro::types::{AccessKind, AxcId, BlockAddr, Cycle, LinkConfig, Pid};

/// Random sequences explored per property.
const CASES: u64 = 64;

/// The seeded generator every property test draws from (`common::Rng`)
/// repeats its sequence for a seed and keeps ranged draws in bounds.
#[test]
fn rng_is_deterministic_and_in_range() {
    let mut a = Rng::new(42);
    let mut b = Rng::new(42);
    for _ in 0..100 {
        let (x, y) = (a.next_u64(), b.next_u64());
        assert_eq!(x, y);
    }
    let mut r = Rng::new(7);
    for _ in 0..1000 {
        let v = r.range_u64(5, 17);
        assert!((5..17).contains(&v));
    }
}

/// One reference's lanes: block, kind and compute gap.
type Ref = (BlockAddr, AccessKind, u16);

fn random_kind(rng: &mut Rng) -> AccessKind {
    if rng.chance() {
        AccessKind::Store
    } else {
        AccessKind::Load
    }
}

fn random_refs(rng: &mut Rng, max: usize) -> Vec<Ref> {
    let len = rng.range_usize(0, max);
    (0..len)
        .map(|_| {
            let block = BlockAddr::from_index(rng.range_u64(0, 1 << 14));
            (block, random_kind(rng), rng.range_u16(0, 50))
        })
        .collect()
}

/// Records `refs` into the open phase of `rec`: each gap as the four
/// datapath ops per cycle the recorder divides back out.
fn record(rec: &Recorder, refs: &[Ref]) {
    for &(block, kind, gap) in refs {
        rec.int_ops(4 * u64::from(gap));
        rec.access(block, kind);
    }
}

/// `run_phase_kind_runs` over `refs`, its kind runs found on the kinds.
fn replay(
    refs: &[Ref],
    mlp: usize,
    start: Cycle,
    mut access: impl FnMut(usize, Cycle) -> Cycle,
) -> PhaseTiming {
    let kinds: Vec<AccessKind> = refs.iter().map(|r| r.1).collect();
    run_phase_kind_runs(
        refs.len(),
        |i| refs[i].2,
        mlp,
        start,
        kind_runs_of(&kinds),
        |i, now, _| access(i, now),
    )
}

/// The accelerator issue engine finishes no earlier than its start and
/// no earlier than the last memory completion; issue order respects
/// program order.
#[test]
fn run_phase_end_bounds() {
    let mut rng = Rng::new(0x9A5E);
    for _ in 0..CASES {
        let refs = random_refs(&mut rng, 100);
        let mlp = rng.range_usize(1, 8);
        let latency = rng.range_u64(1, 200);
        let mut issues: Vec<Cycle> = Vec::new();
        let mut max_done = Cycle::ZERO;
        let t = replay(&refs, mlp, Cycle::new(10), |_, now| {
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
            let refs: Vec<Ref> = gaps
                .iter()
                .map(|&gap| (BlockAddr::from_index(0), AccessKind::Load, gap))
                .collect();
            let mut issues = Vec::new();
            let t = replay(&refs, mlp, start, |i, now| {
                issues.push(now);
                now + latencies[i]
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

/// `run_phase_kind_runs` over `dp` (runs found by `kind_runs_of`) against
/// a per-reference loop over the same lanes (`list_issuer`): identical
/// issue times and an identical `PhaseTiming`. The latency reads the
/// run's `is_write`, so a run that mislabelled its kind would show.
fn assert_replays_agree(dp: DecodedPhase<'_>, mlp: usize, start: Cycle) {
    let latencies: Vec<u64> = dp
        .blocks()
        .zip(dp.kinds)
        .map(|(block, kind)| kind_and_block_latency(kind.is_write(), block))
        .collect();
    let (want_issues, want_end, want_stalls) = list_issuer(dp.gaps, &latencies, mlp, start);
    let want = PhaseTiming {
        start,
        end: want_end,
        issued: dp.len() as u64,
        mlp_stall_cycles: want_stalls,
    };
    let mut issues = Vec::new();
    let got = run_phase_kind_runs(
        dp.len(),
        |i| dp.gaps[i],
        mlp,
        start,
        kind_runs_of(dp.kinds),
        |i, now, is_write| {
            issues.push(now);
            now + kind_and_block_latency(is_write, dp.block(i))
        },
    );
    assert_eq!(got, want, "mlp {mlp}, {} refs: timing differs", dp.len());
    assert_eq!(issues, want_issues, "mlp {mlp}: issue times differ");
}

/// The kind-run replay agrees with a per-reference replay of the
/// recorder's lanes, both over whole phases and over random windows
/// `[lo, hi)` as SCRATCH replays its oracle DMA windows.
#[test]
fn per_reference_and_kind_run_replays_agree() {
    let mut rng = Rng::new(0xD0DE);
    for mlp in 1..=8 {
        for _ in 0..CASES {
            let rec = Recorder::new();
            let phases = rng.range_usize(1, 4);
            for _ in 0..phases {
                // Sticky kinds give runs of every length, not only the
                // short ones a fair coin produces.
                let mut kind = AccessKind::Load;
                let refs: Vec<Ref> = (0..rng.range_usize(0, 150))
                    .map(|_| {
                        if rng.range_u64(0, 4) == 0 {
                            kind = match kind {
                                AccessKind::Load => AccessKind::Store,
                                AccessKind::Store => AccessKind::Load,
                            };
                        }
                        let block = BlockAddr::from_index(rng.range_u64(0, 1 << 10));
                        (block, kind, rng.range_u16(0, 30))
                    })
                    .collect();
                record(&rec, &refs);
                rec.end_phase("p", ExecUnit::Axc(AxcId::new(0)), mlp, 100);
            }
            let wl = rec.finish("prop", Pid::new(1));
            for idx in 0..phases {
                let dp = wl.phase_refs(idx);
                let start = Cycle::new(rng.range_u64(0, 1000));
                assert_replays_agree(dp, mlp, start);
                for _ in 0..4 {
                    let lo = rng.range_usize(0, dp.len() + 1);
                    let hi = rng.range_usize(lo, dp.len() + 1);
                    let start = Cycle::new(rng.range_u64(0, 1000));
                    assert_replays_agree(dp.slice(lo, hi), mlp, start);
                }
            }
        }
    }
}

/// `run_host_phase_indexed` over `refs`.
fn host_replay(
    refs: &[Ref],
    params: OooParams,
    start: Cycle,
    access: impl FnMut(usize, Cycle) -> Cycle,
) -> PhaseTiming {
    run_host_phase_indexed(
        refs.len(),
        |i| refs[i].2,
        |i| refs[i].1.is_write(),
        params,
        start,
        access,
    )
}

/// The OOO host engine has the same bounds and never lets completions
/// precede issues.
#[test]
fn ooo_end_bounds() {
    let mut rng = Rng::new(0x0005);
    for _ in 0..CASES {
        let refs = random_refs(&mut rng, 100);
        let latency = rng.range_u64(1, 200);
        let mut max_done = Cycle::ZERO;
        let t = host_replay(&refs, OooParams::default(), Cycle::new(5), |_, now| {
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
        let refs: Vec<Ref> = (0..n as u64)
            .map(|i| (BlockAddr::from_index(i), AccessKind::Load, 0))
            .collect();
        let wide = OooParams {
            load_queue: 32,
            ..OooParams::default()
        };
        let narrow = OooParams {
            load_queue: 2,
            ..OooParams::default()
        };
        let tw = host_replay(&refs, wide, Cycle::ZERO, |_, now| now + latency);
        let tn = host_replay(&refs, narrow, Cycle::ZERO, |_, now| now + latency);
        assert!(tn.end >= tw.end, "narrow LQ finished earlier");
    }
}

/// Trace encode/decode is a lossless roundtrip for arbitrary workloads,
/// block ordinals included.
#[test]
fn trace_io_roundtrip() {
    const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.";
    const PHASE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut rng = Rng::new(0x7ACE);
    for _ in 0..CASES {
        let rec = Recorder::new();
        for _ in 0..rng.range_usize(0, 6) {
            let pname = rng.ident(PHASE_CHARS, 12);
            let unit = if rng.chance() {
                ExecUnit::Axc(AxcId::new(rng.range_u16(0, 8)))
            } else {
                ExecUnit::Host
            };
            let mut refs = random_refs(&mut rng, 50);
            // Far blocks: multi-byte and wrapping block deltas.
            for r in &mut refs {
                if rng.range_u64(0, 8) == 0 {
                    r.0 = BlockAddr::from_index(rng.next_u64() >> 6);
                }
            }
            record(&rec, &refs);
            rec.int_ops(rng.range_u64(0, 1000));
            rec.fp_ops(rng.range_u64(0, 1000));
            rec.end_phase(&pname, unit, rng.range_usize(1, 6), rng.range_u32(1, 5000));
        }
        let wl = rec.finish(&rng.ident(NAME_CHARS, 16), Pid::new(rng.range_u32(0, 100)));
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
