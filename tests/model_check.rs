//! Model-checking gate: the exhaustive explorer in `fusion-verify` must
//! (1) prove the shipped ACC and MESI transition functions clean over
//! small bounded configurations, (2) produce a minimal counterexample
//! for every plantable [`ProtocolFaultKind`], and (3) agree with the
//! timing [`DirectoryMesi`] — the verified machine and the simulated
//! machine are the same pure functions, so driving both over random
//! request sequences must yield identical message patterns.
//!
//! The CI `verify` job runs the larger cross-block spaces through
//! `sim verify`; this suite keeps tier-1 `cargo test` fast by pinning
//! the ACC models to their single-block configurations.

#![allow(
    clippy::disallowed_types,
    reason = "a test may use std maps as a reference model"
)]

mod common;

use std::collections::HashMap;

use common::Rng;
use fusion_repro::coherence::transition::{agents_of, dir_transition};
use fusion_repro::coherence::{AgentId, DirState, DirectoryMesi, MesiReq};
use fusion_repro::types::{PhysAddr, ProtocolFaultKind, CACHE_BLOCK_BYTES};
use fusion_repro::verify::{fault_matches_protocol, parse_fault, run, VerifyProtocol, VerifySpec};

/// A spec that closes quickly in debug builds: single-block ACC spaces,
/// the default capacity-1 MESI directory.
fn fast_spec(protocol: VerifyProtocol) -> VerifySpec {
    let is_acc = matches!(
        protocol,
        VerifyProtocol::Acc | VerifyProtocol::AccDx | VerifyProtocol::AccRenew
    );
    VerifySpec {
        protocol,
        blocks: is_acc.then_some(1),
        ..VerifySpec::default()
    }
}

#[test]
fn shipped_protocols_verify_clean() {
    for protocol in [
        VerifyProtocol::Acc,
        VerifyProtocol::AccDx,
        VerifyProtocol::AccRenew,
        VerifyProtocol::Mesi,
    ] {
        let report = run(&fast_spec(protocol));
        assert_eq!(report.protocols.len(), 1);
        let p = &report.protocols[0];
        assert!(
            p.exploration.complete,
            "{}: exploration truncated before closing",
            p.protocol
        );
        assert!(
            p.exploration.violation.is_none(),
            "{}: unexpected violation: {:?}",
            p.protocol,
            p.exploration.violation.as_ref().map(|c| &c.violation)
        );
        assert!(p.exploration.states > 1, "{}: degenerate space", p.protocol);
    }
}

/// Every plantable fault kind must be caught by the invariant it was
/// designed to break, with a short minimal trace.
#[test]
fn every_planted_fault_kind_yields_a_counterexample() {
    let cases = [
        ("lease-overrun@1", VerifyProtocol::Acc, "lease-containment"),
        (
            "gtime-regression@1",
            VerifyProtocol::Acc,
            "lease-containment",
        ),
        ("empty-sharers@1", VerifyProtocol::Mesi, "nonempty-sharers"),
        ("wrong-owner@0", VerifyProtocol::Mesi, "dir-accuracy"),
    ];
    for (fault, protocol, rule) in cases {
        let fault = parse_fault(fault).expect("test fault spec parses");
        assert!(fault_matches_protocol(fault.kind, protocol));
        let mut spec = fast_spec(protocol);
        spec.fault = Some(fault);
        let report = run(&spec);
        let ce = report.protocols[0]
            .exploration
            .violation
            .as_ref()
            .unwrap_or_else(|| panic!("{fault:?} was not caught"));
        assert_eq!(ce.violation.rule, rule, "{fault:?} tripped the wrong rule");
        // BFS guarantees minimality: a planted fault firing at event N
        // needs at most a handful of setup actions, never a long tour of
        // the state space.
        assert!(
            !ce.steps.is_empty() && ce.steps.len() <= 8,
            "{fault:?}: trace of {} steps is not minimal-looking",
            ce.steps.len()
        );
        assert!(!ce.initial.is_empty(), "counterexample lost initial state");
    }
}

/// `--fault` kinds aimed at the wrong machine never fire: the spec layer
/// filters them, so the run stays clean rather than silently mutating
/// the other protocol's state.
#[test]
fn mismatched_fault_kinds_leave_protocols_clean() {
    let mut spec = fast_spec(VerifyProtocol::Mesi);
    spec.fault = parse_fault("lease-overrun@0");
    assert!(!run(&spec).violated());

    let mut spec = fast_spec(VerifyProtocol::Acc);
    spec.fault = parse_fault("wrong-owner@0");
    assert!(!run(&spec).violated());
}

/// The timing directory and the pure transition function are the same
/// machine: folding [`dir_transition`] over a shadow state must predict
/// every invalidation and owner-forward the real [`DirectoryMesi`]
/// emits. The working set fits the L2, so inclusion recalls never fire
/// and the shadow state needs no eviction modeling.
#[test]
fn directory_mesi_agrees_with_pure_transition_fold() {
    const SEQUENCES: u64 = 32;
    const STEPS: usize = 200;
    const BLOCKS: u64 = 8;
    const AGENTS: u8 = 4;

    for seed in 0..SEQUENCES {
        let mut rng = Rng::new(0x0D1E_5EC7 ^ seed);
        let mut dir = DirectoryMesi::table2();
        let mut shadow: HashMap<u64, DirState> = HashMap::new();

        for step in 0..STEPS {
            let block = rng.range_u64(0, BLOCKS);
            let agent = AgentId(rng.range_u8(0, AGENTS));
            let req = if rng.chance() {
                MesiReq::GetS
            } else {
                MesiReq::GetX
            };
            let pa = PhysAddr::new(block * CACHE_BLOCK_BYTES as u64);

            let prior = shadow.get(&block).copied().unwrap_or(DirState::Idle);
            let tr = dir_transition(prior, agent, req);
            let out = dir.request(agent, pa, req);

            let predicted_inval: Vec<AgentId> = agents_of(tr.invalidate).collect();
            assert_eq!(
                out.invalidated, predicted_inval,
                "seed {seed} step {step}: invalidations diverged from {prior:?}"
            );
            let predicted_fwd: Vec<AgentId> = tr.forward_owner.into_iter().collect();
            assert_eq!(
                out.forwarded_to, predicted_fwd,
                "seed {seed} step {step}: owner forwards diverged from {prior:?}"
            );
            assert!(
                out.recalls.is_empty(),
                "seed {seed} step {step}: working set was supposed to fit the L2"
            );
            shadow.insert(block, tr.next);
        }
    }
}

/// The checker's fault vocabulary and the model checker's fault
/// vocabulary are the same enum, so each kind maps to exactly one
/// protocol family.
#[test]
fn fault_kinds_partition_between_protocol_families() {
    for kind in [
        ProtocolFaultKind::LeaseOverrun,
        ProtocolFaultKind::GtimeRegression,
        ProtocolFaultKind::EmptySharerList,
        ProtocolFaultKind::WrongOwner,
    ] {
        let acc = fault_matches_protocol(kind, VerifyProtocol::Acc);
        let mesi = fault_matches_protocol(kind, VerifyProtocol::Mesi);
        assert!(acc ^ mesi, "{kind:?} must belong to exactly one family");
    }
}
