//! FxHash regression suite: swapping the hot maps from `std::HashMap`
//! (SipHash + `RandomState`) to the deterministic `FxHashMap` must be a
//! pure speed change.
//!
//! The unit tests in `fusion_types::hash` already pin the hash function
//! itself (fixed vectors, so any process on any machine agrees). These
//! tests replay *recorded traces* — real key/op sequences shaped like the
//! two hottest maps in the simulator — against both map types side by
//! side and demand identical answers at every step:
//!
//! * the ACC directory's forward-rule map, keyed `(Pid, BlockAddr)` and
//!   populated from `Workload::forward_pairs` over a real workload;
//! * the AX-RMAP reverse map, keyed by physical block index (`u64`) with
//!   insert/lookup/remove churn as blocks enter and leave the L1X.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "std HashMap is the reference these tests compare Fx maps against"
)]

use std::collections::HashMap;

use fusion_types::hash::FxHashMap;
use fusion_types::{BlockAddr, Pid};
use fusion_workloads::{build_suite, Scale, SuiteId};

#[test]
fn acc_forward_rule_map_matches_std_hashmap_on_recorded_trace() {
    // Disparity is the pipeline suite: it is where FUSION-Dx actually
    // finds producer->consumer pairs, so the rule map is non-trivial.
    let wl = build_suite(SuiteId::Disparity, Scale::Tiny);
    let pairs = wl.forward_pairs(64);
    assert!(
        !pairs.is_empty(),
        "recorded trace must exercise the rule map"
    );

    // Build both maps from the same recorded pairs, exactly the way the
    // FUSION system builds its per-phase rule maps.
    let mut std_map: HashMap<(Pid, BlockAddr), Vec<usize>> = HashMap::new();
    let mut fx_map: FxHashMap<(Pid, BlockAddr), Vec<usize>> = FxHashMap::default();
    for (i, p) in pairs.iter().enumerate() {
        std_map.entry((wl.pid, p.block)).or_default().push(i);
        fx_map.entry((wl.pid, p.block)).or_default().push(i);
    }
    assert_eq!(std_map.len(), fx_map.len());

    // Probe with every block the trace touches (hits and misses alike),
    // in program order — the lookup pattern of `AccDirectory::forward_for`.
    for idx in 0..wl.phases.len() {
        for b in wl.phase_refs(idx).blocks() {
            assert_eq!(std_map.get(&(wl.pid, b)), fx_map.get(&(wl.pid, b)));
        }
    }

    // Drain both maps through removals and compare the final contents.
    let mut keys: Vec<(Pid, BlockAddr)> = std_map.keys().copied().collect();
    keys.sort_unstable();
    for k in keys {
        assert_eq!(std_map.remove(&k), fx_map.remove(&k));
    }
    assert!(fx_map.is_empty());
}

#[test]
fn ax_rmap_style_u64_churn_matches_std_hashmap() {
    // Replay an AX-RMAP-shaped op sequence recorded from a real trace:
    // insert on fill, lookup on snoop, remove on eviction (modelled here
    // as: every third distinct block gets evicted and refilled).
    let wl = build_suite(SuiteId::Fft, Scale::Tiny);

    let mut std_map: HashMap<u64, u64> = HashMap::new();
    let mut fx_map: FxHashMap<u64, u64> = FxHashMap::default();
    let mut op = 0u64;
    for idx in 0..wl.phases.len() {
        for b in wl.phase_refs(idx).blocks() {
            let key = b.index();
            op += 1;
            assert_eq!(std_map.get(&key), fx_map.get(&key), "lookup #{op}");
            if key % 3 == 0 {
                assert_eq!(std_map.remove(&key), fx_map.remove(&key));
            }
            assert_eq!(std_map.insert(key, op), fx_map.insert(key, op));
        }
    }
    assert_eq!(std_map.len(), fx_map.len());
    let mut a: Vec<(u64, u64)> = std_map.into_iter().collect();
    let mut b: Vec<(u64, u64)> = fx_map.into_iter().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}
