//! Property-based protocol invariants: the ACC lease protocol, the MESI
//! directory and the cache structures are driven with random access
//! sequences and checked against their defining invariants.
//!
//! Randomness comes from the seeded deterministic generator in
//! `common::Rng`, so every run explores the same sequences and failures
//! reproduce exactly.

#![allow(
    clippy::disallowed_types,
    reason = "a test may use std maps as a reference model"
)]

mod common;

use std::collections::HashMap;

use common::Rng;
use fusion_repro::coherence::acc::{AccAccess, AccTile, TileTiming};
use fusion_repro::coherence::{AgentId, DirectoryMesi, MesiReq};
use fusion_repro::mem::{ReplacementPolicy, SetAssocCache};
use fusion_repro::types::{
    AccessKind, AxcId, BlockAddr, CacheGeometry, Cycle, PhysAddr, Pid, WritePolicy,
};
use fusion_repro::vm::{PageTable, Tlb};

/// Random sequences explored per property.
const CASES: u64 = 64;

fn tile(axcs: usize) -> AccTile {
    AccTile::new(
        axcs,
        CacheGeometry {
            capacity_bytes: 1024,
            ways: 4,
            banks: 1,
            latency: 1,
        },
        CacheGeometry {
            capacity_bytes: 8192,
            ways: 8,
            banks: 4,
            latency: 3,
        },
        TileTiming::default(),
        WritePolicy::WriteBack,
    )
}

/// One random tile operation.
#[derive(Debug, Clone)]
enum TileOp {
    Access {
        axc: u16,
        block: u64,
        write: bool,
        dt: u16,
    },
    Downgrade {
        axc: u16,
    },
    HostForward {
        block: u64,
        dt: u16,
    },
}

/// Draws one tile operation with the 8:1:1 access/downgrade/forward mix
/// the proptest strategy used.
fn tile_op(rng: &mut Rng) -> TileOp {
    match rng.range_u64(0, 10) {
        0..=7 => TileOp::Access {
            axc: rng.range_u16(0, 3),
            block: rng.range_u64(0, 24),
            write: rng.chance(),
            dt: rng.range_u16(1, 300),
        },
        8 => TileOp::Downgrade {
            axc: rng.range_u16(0, 3),
        },
        _ => TileOp::HostForward {
            block: rng.range_u64(0, 24),
            dt: rng.range_u16(1, 300),
        },
    }
}

fn tile_ops(rng: &mut Rng) -> Vec<TileOp> {
    let len = rng.range_usize(1, 200);
    (0..len).map(|_| tile_op(rng)).collect()
}

/// ACC liveness + monotonicity: every access completes at or after its
/// issue time, and host forwards release no earlier than requested.
#[test]
fn acc_accesses_always_complete_forward() {
    let mut rng = Rng::new(0xACC1);
    for _ in 0..CASES {
        let ops = tile_ops(&mut rng);
        let mut t = tile(3);
        let pid = Pid::new(1);
        let mut now = Cycle::new(0);
        for op in ops {
            match op {
                TileOp::Access {
                    axc,
                    block,
                    write,
                    dt,
                } => {
                    now += dt as u64;
                    let kind = if write {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    let done = match t.axc_access(
                        AxcId::new(axc),
                        pid,
                        BlockAddr::from_index(block),
                        kind,
                        now,
                        100,
                    ) {
                        AccAccess::L0Hit { done_at } | AccAccess::L1Served { done_at } => done_at,
                        AccAccess::FillNeeded { request_at } => {
                            assert!(request_at >= now);
                            t.complete_fill(
                                AxcId::new(axc),
                                pid,
                                BlockAddr::from_index(block),
                                kind,
                                request_at + 40,
                                100,
                            )
                            .done_at
                        }
                    };
                    assert!(done >= now, "completion {done} before issue {now}");
                }
                TileOp::Downgrade { axc } => t.downgrade_all(AxcId::new(axc), pid, now),
                TileOp::HostForward { block, dt } => {
                    now += dt as u64;
                    let fwd = t.host_forward(pid, BlockAddr::from_index(block), now);
                    assert!(fwd.release_at >= now, "PUTX released in the past");
                }
            }
        }
    }
}

/// ACC accounting: hits + misses == accesses, and every miss sent
/// exactly one request message.
#[test]
fn acc_counter_consistency() {
    let mut rng = Rng::new(0xACC2);
    for _ in 0..CASES {
        let ops = tile_ops(&mut rng);
        let mut t = tile(3);
        let pid = Pid::new(1);
        let mut now = Cycle::new(0);
        for op in ops {
            if let TileOp::Access {
                axc,
                block,
                write,
                dt,
            } = op
            {
                now += dt as u64;
                let kind = if write {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                if let AccAccess::FillNeeded { request_at } = t.axc_access(
                    AxcId::new(axc),
                    pid,
                    BlockAddr::from_index(block),
                    kind,
                    now,
                    100,
                ) {
                    t.complete_fill(
                        AxcId::new(axc),
                        pid,
                        BlockAddr::from_index(block),
                        kind,
                        request_at + 40,
                        100,
                    );
                }
            }
        }
        let s = t.stats();
        assert_eq!(s.l0_hits + s.l0_misses, s.l0_accesses);
        assert_eq!(s.msgs_l0_to_l1, s.l0_misses);
        assert_eq!(s.l1_hits + s.l1_misses, s.l0_misses);
        assert_eq!(
            s.data_l1_to_l0, s.l0_misses,
            "every miss gets one data response"
        );
    }
}

/// After a host forward, the tile no longer caches the block at the
/// L1X, so the directory can hand ownership to the host.
#[test]
fn acc_host_forward_relinquishes() {
    let mut rng = Rng::new(0xACC3);
    for _ in 0..CASES {
        let blocks: Vec<u64> = {
            let len = rng.range_usize(1, 40);
            (0..len).map(|_| rng.range_u64(0, 16)).collect()
        };
        let mut t = tile(2);
        let pid = Pid::new(1);
        let mut now = Cycle::new(0);
        for &b in &blocks {
            now += 50;
            let block = BlockAddr::from_index(b);
            if let AccAccess::FillNeeded { request_at } =
                t.axc_access(AxcId::new(0), pid, block, AccessKind::Store, now, 100)
            {
                t.complete_fill(
                    AxcId::new(0),
                    pid,
                    block,
                    AccessKind::Store,
                    request_at + 40,
                    100,
                );
            }
        }
        for &b in &blocks {
            now += 10;
            t.host_forward(pid, BlockAddr::from_index(b), now);
            assert!(!t.l1x_caches(pid, BlockAddr::from_index(b)));
        }
    }
}

/// MESI single-owner invariant: after any request sequence, at most
/// one agent owns a block exclusively, and the directory's answer is
/// consistent with the request history.
#[test]
fn mesi_single_owner() {
    let mut rng = Rng::new(0x4E51);
    for _ in 0..CASES {
        let reqs: Vec<(u8, u64, bool)> = {
            let len = rng.range_usize(1, 100);
            (0..len)
                .map(|_| (rng.range_u8(0, 2), rng.range_u64(0, 16), rng.chance()))
                .collect()
        };
        let mut dir = DirectoryMesi::table2();
        let mut last_exclusive: HashMap<u64, u8> = HashMap::new();
        for (agent, block, is_getx) in reqs {
            let pa = PhysAddr::new(block * 64);
            let req = if is_getx {
                MesiReq::GetX
            } else {
                MesiReq::GetS
            };
            let out = dir.request(AgentId(agent), pa, req);
            // An agent never receives a forward/invalidation for its own
            // request.
            assert!(!out.forwarded_to.contains(&AgentId(agent)));
            assert!(!out.invalidated.contains(&AgentId(agent)));
            if is_getx {
                last_exclusive.insert(block, agent);
            }
            // The last GetX issuer owns the block unless someone read it
            // afterwards.
            if let Some(owner) = dir.owner(pa) {
                assert!(dir.agent_caches(owner, pa));
            }
        }
    }
}

/// The cache never exceeds its capacity and never loses a block
/// without an eviction: model-checked against a HashMap.
#[test]
fn cache_matches_map_model() {
    let mut rng = Rng::new(0xCACE);
    for _ in 0..CASES {
        let ops: Vec<u64> = {
            let len = rng.range_usize(1, 300);
            (0..len).map(|_| rng.range_u64(0, 64)).collect()
        };
        let geom = CacheGeometry {
            capacity_bytes: 1024,
            ways: 2,
            banks: 1,
            latency: 1,
        };
        let mut cache: SetAssocCache<u64> = SetAssocCache::new(geom, ReplacementPolicy::Lru);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let pid = Pid::new(1);
        for (i, block) in ops.iter().enumerate() {
            let b = BlockAddr::from_index(*block);
            if let Some(ev) = cache.insert(pid, b, i as u64, false) {
                model.remove(&ev.block.index());
            }
            model.insert(*block, i as u64);
            assert!(cache.len() <= geom.blocks());
            // Everything the cache holds agrees with the model.
            for line in cache.iter() {
                assert_eq!(model.get(&line.block.index()), Some(&line.meta));
            }
        }
    }
}

/// TLB translations always agree with the page table.
#[test]
fn tlb_agrees_with_page_table() {
    let mut rng = Rng::new(0x71B);
    for _ in 0..CASES {
        let addrs: Vec<u64> = {
            let len = rng.range_usize(1, 200);
            (0..len).map(|_| rng.range_u64(0, 1 << 20)).collect()
        };
        let mut pt = PageTable::new();
        let mut tlb = Tlb::new(8);
        let pid = Pid::new(1);
        for a in addrs {
            let va = fusion_repro::types::VirtAddr::new(a);
            let via_tlb = tlb.translate(pid, va, &mut pt);
            let direct = pt.lookup(pid, va).expect("translated page must exist");
            assert_eq!(via_tlb, direct);
            assert_eq!(via_tlb.page_offset(), va.page_offset());
        }
    }
}

/// The same liveness/accounting invariants hold with every protocol
/// extension enabled (lease renewal + interleaved prefetch installs).
#[test]
fn acc_invariants_hold_with_extensions() {
    let mut rng = Rng::new(0xE71);
    for _ in 0..CASES {
        let ops = tile_ops(&mut rng);
        let mut t = tile(3);
        t.set_lease_renewal(true);
        let pid = Pid::new(1);
        let mut now = Cycle::new(0);
        let mut op_index = 0u64;
        for op in ops {
            op_index += 1;
            // Interleave background prefetch installs like the stream
            // prefetcher would: only for blocks the L1X does not cache.
            let pb = BlockAddr::from_index(op_index % 24);
            if op_index.is_multiple_of(5) && !t.l1x_caches(pid, pb) {
                t.prefetch_install(pid, pb, now);
            }
            match op {
                TileOp::Access {
                    axc,
                    block,
                    write,
                    dt,
                } => {
                    now += dt as u64;
                    let kind = if write {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    let done = match t.axc_access(
                        AxcId::new(axc),
                        pid,
                        BlockAddr::from_index(block),
                        kind,
                        now,
                        100,
                    ) {
                        AccAccess::L0Hit { done_at } | AccAccess::L1Served { done_at } => done_at,
                        AccAccess::FillNeeded { request_at } => {
                            t.complete_fill(
                                AxcId::new(axc),
                                pid,
                                BlockAddr::from_index(block),
                                kind,
                                request_at + 40,
                                100,
                            )
                            .done_at
                        }
                    };
                    assert!(done >= now);
                }
                TileOp::Downgrade { axc } => t.downgrade_all(AxcId::new(axc), pid, now),
                TileOp::HostForward { block, dt } => {
                    now += dt as u64;
                    let fwd = t.host_forward(pid, BlockAddr::from_index(block), now);
                    assert!(fwd.release_at >= now);
                }
            }
        }
        let s = t.stats();
        assert_eq!(s.l0_hits + s.l0_misses, s.l0_accesses);
        assert!(s.prefetch_hits <= s.prefetch_installs);
        assert!(s.lease_renewals <= s.l0_lease_expiries);
    }
}

/// NUCA ring latency is symmetric and bounded by the half-ring: the bank
/// plus 0 to 4 hops of 4 cycles around the configured mean.
#[test]
fn nuca_latency_symmetric_and_bounded() {
    use fusion_repro::mem::NucaRing;
    let mut rng = Rng::new(0x20CA);
    for _ in 0..256 {
        let block = rng.range_u64(0, 10_000);
        let from = rng.range_u64(0, 8);
        let mean = rng.range_u64(NucaRing::MEAN_HOP_CYCLES, 64);
        let nuca = NucaRing::new(mean);
        let b = BlockAddr::from_index(block);
        let home = nuca.home_tile(b);
        assert_eq!(nuca.distance(home, from), nuca.distance(from, home));
        let lat = nuca.latency(b, from);
        let bank = mean - NucaRing::MEAN_HOP_CYCLES;
        assert!(
            (bank..=bank + 4 * 4).contains(&lat),
            "mean {mean}: latency {lat}"
        );
    }
}

#[test]
fn acc_write_epoch_serializes_conflicting_access() {
    // Deterministic SWMR check: a reader can never complete while a
    // foreign write epoch is active.
    let mut t = tile(2);
    let pid = Pid::new(1);
    let b = BlockAddr::from_index(3);
    let lease = 1000u32;
    if let AccAccess::FillNeeded { request_at } = t.axc_access(
        AxcId::new(0),
        pid,
        b,
        AccessKind::Store,
        Cycle::new(0),
        lease,
    ) {
        t.complete_fill(
            AxcId::new(0),
            pid,
            b,
            AccessKind::Store,
            request_at + 40,
            lease,
        );
    }
    // The write epoch runs to ~(grant + 1000); a foreign read at t=100
    // must not complete before it.
    match t.axc_access(
        AxcId::new(1),
        pid,
        b,
        AccessKind::Load,
        Cycle::new(100),
        lease,
    ) {
        AccAccess::L1Served { done_at } => assert!(
            done_at.value() > 1000,
            "reader completed at {done_at} inside the write epoch"
        ),
        other => panic!("expected L1Served, got {other:?}"),
    }
}
