//! Property tests for the memo's observed-config slices (DESIGN.md §12).
//!
//! Driven by the seeded splitmix64 generator in `tests/common` (same
//! convention as `engine_props.rs`): random config mutations probe the
//! two directions of the [`fusion_core::observed_config`] contract —
//!
//! * **soundness of equality**: if two configs have equal observed
//!   configs for a system, replaying a run under either produces
//!   byte-identical stats (`SimResult::to_json`);
//! * **sensitivity**: mutating any field the system observes changes the
//!   observed config (so the sweep never copies a result across it).
//!
//! A third test runs the sweep itself: a job whose config is invalid only
//! in a field its system cannot see is never copied from a valid
//! neighbour, so it still fails validation.

mod common;

use common::Rng;
use fusion_core::{observed_config, run_system, MemoMark, Sweep, SweepJob, SystemKind};
use fusion_types::error::SimError;
use fusion_types::{SystemConfig, WritePolicy};
use fusion_workloads::{build_suite, Scale, SuiteId};

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::Scratch,
    SystemKind::Shared,
    SystemKind::Fusion,
    SystemKind::FusionDx,
];

/// Applies one randomly-chosen, randomly-sized mutation from `fields`,
/// returning its index (so failures name the culprit).
fn mutate(
    cfg: &mut SystemConfig,
    rng: &mut Rng,
    fields: &[fn(&mut SystemConfig, &mut Rng)],
) -> usize {
    let pick = rng.range_usize(0, fields.len());
    fields[pick](cfg, rng);
    pick
}

/// Mutations of fields *outside* the slice of `system` — applying any of
/// them must leave the system's observed config unchanged.
fn irrelevant_fields(system: SystemKind) -> Vec<fn(&mut SystemConfig, &mut Rng)> {
    let sp: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.scratchpad.capacity_bytes = 1 << r.range_usize(10, 16);
    let l0x: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.l0x.capacity_bytes = 1 << r.range_usize(10, 16);
    let l1x: fn(&mut SystemConfig, &mut Rng) = |c, r| c.l1x.latency = r.range_u64(1, 9);
    let axc_link: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.link_axc_l1x.latency = r.range_u64(1, 9);
    let dx_link: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.link_l0x_l0x_pj_per_byte = r.range_u64(1, 20) as f64 / 100.0;
    let renewal: fn(&mut SystemConfig, &mut Rng) = |c, _| c.lease_renewal = !c.lease_renewal;
    let wp: fn(&mut SystemConfig, &mut Rng) = |c, _| {
        c.write_policy = match c.write_policy {
            WritePolicy::WriteBack => WritePolicy::WriteThrough,
            WritePolicy::WriteThrough => WritePolicy::WriteBack,
        }
    };
    let prefetch: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.l1x_prefetch_degree = r.range_usize(0, 5);
    let tag: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.timestamp_tag_overhead = r.range_u64(0, 30) as f64 / 100.0;
    let ctl: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.control_message_bytes = 8 * r.range_u64(1, 5);
    match system {
        // SCRATCH never touches the coherent-accelerator machinery.
        SystemKind::Scratch => vec![l0x, l1x, axc_link, dx_link, renewal, wp, prefetch, tag, ctl],
        // SHARED has no private L0X, scratchpad, leases or Dx link.
        SystemKind::Shared => vec![sp, l0x, dx_link, renewal, wp, prefetch],
        // FUSION ignores the scratchpad and the Dx-only link.
        SystemKind::Fusion => vec![sp, dx_link],
        // FUSION-Dx ignores only the scratchpad.
        SystemKind::FusionDx => vec![sp],
    }
}

/// Mutations of fields *inside* the slice of `system`.
fn relevant_fields(system: SystemKind) -> Vec<fn(&mut SystemConfig, &mut Rng)> {
    let l2: fn(&mut SystemConfig, &mut Rng) = |c, r| c.l2.latency = r.range_u64(10, 40);
    let host_l1: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.host_l1.capacity_bytes = 1 << r.range_usize(13, 18);
    let mem: fn(&mut SystemConfig, &mut Rng) = |c, r| c.memory_latency = r.range_u64(100, 400);
    let l2_link: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.link_l1x_l2.latency = r.range_u64(1, 20);
    let ctl: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.control_message_bytes = 8 * r.range_u64(1, 5);
    let mut fields = vec![l2, host_l1, mem, l2_link];
    let sp: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.scratchpad.capacity_bytes = 1 << r.range_usize(10, 16);
    let l1x: fn(&mut SystemConfig, &mut Rng) = |c, r| c.l1x.latency = r.range_u64(1, 9);
    let l0x: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.l0x.capacity_bytes = 1 << r.range_usize(10, 16);
    let renewal: fn(&mut SystemConfig, &mut Rng) = |c, _| c.lease_renewal = !c.lease_renewal;
    let dx_link: fn(&mut SystemConfig, &mut Rng) =
        |c, r| c.link_l0x_l0x_pj_per_byte = r.range_u64(1, 20) as f64 / 100.0;
    match system {
        SystemKind::Scratch => fields.push(sp),
        SystemKind::Shared => fields.extend([l1x, ctl]),
        SystemKind::Fusion => fields.extend([l1x, ctl, l0x, renewal]),
        SystemKind::FusionDx => fields.extend([l1x, ctl, l0x, renewal, dx_link]),
    }
    fields
}

/// Equal observed configs ⇒ byte-identical stats. 24 random irrelevant
/// mutations per system, replayed end-to-end on a tiny suite.
#[test]
fn equal_observed_configs_imply_identical_results() {
    let mut rng = Rng::new(0xF0510);
    let base = SystemConfig::small();
    for system in SYSTEMS {
        let fields = irrelevant_fields(system);
        for trial in 0..24 {
            let mut mutated = base.clone();
            // One to three stacked irrelevant mutations.
            let n = rng.range_usize(1, 4);
            let mut picked = Vec::new();
            for _ in 0..n {
                picked.push(mutate(&mut mutated, &mut rng, &fields));
            }
            assert_eq!(
                observed_config(system, &base),
                observed_config(system, &mutated),
                "{system:?} trial {trial}: irrelevant mutations {picked:?} moved the observed config"
            );
            let suite = SuiteId::ALL[rng.range_usize(0, SuiteId::ALL.len())];
            let wl = build_suite(suite, Scale::Tiny);
            let a = run_system(system, &wl, &base).expect("base run");
            let b = run_system(system, &wl, &mutated).expect("mutated run");
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{system:?}/{suite:?} trial {trial}: observed configs equal but stats differ (mutations {picked:?})"
            );
        }
    }
}

/// Any mutation of an observed field changes the observed config.
#[test]
fn relevant_mutations_change_the_observed_config() {
    let mut rng = Rng::new(0xF0511);
    let base = SystemConfig::small();
    for system in SYSTEMS {
        let fields = relevant_fields(system);
        for trial in 0..24 {
            let mut mutated = base.clone();
            let picked = mutate(&mut mutated, &mut rng, &fields);
            if mutated == base {
                // The random draw reproduced the existing value; a no-op
                // mutation legitimately leaves the observed config alone.
                continue;
            }
            assert_ne!(
                observed_config(system, &base),
                observed_config(system, &mutated),
                "{system:?} trial {trial}: relevant mutation {picked} left the observed config unchanged"
            );
        }
    }
}

/// A SCRATCH job with zero L0X banks is invalid, though SCRATCH never
/// sees the L0X. Placed right after a valid job of the same group, it
/// must still fail validation instead of receiving the valid job's result.
#[test]
fn invalid_unobserved_field_still_fails_validation() {
    let valid = SweepJob::new(SystemKind::Scratch, SuiteId::Adpcm, SystemConfig::small());
    let mut invalid = valid.clone();
    invalid.config.l0x.banks = 0;
    invalid.variant = "l0x0banks".to_string();
    assert_eq!(
        observed_config(SystemKind::Scratch, &valid.config),
        observed_config(SystemKind::Scratch, &invalid.config)
    );
    for threads in [1, 2] {
        let outcomes = Sweep::new(Scale::Tiny).threads(threads).run(vec![
            valid.clone(),
            invalid.clone(),
            valid.clone(),
        ]);
        assert!(outcomes[0].result.is_ok());
        match &outcomes[1].result {
            Err(SimError::ConfigError { detail }) => assert!(detail.contains("l0x"), "{detail}"),
            other => panic!("expected ConfigError, got {other:?}"),
        }
        assert_eq!(outcomes[1].memo.mark, MemoMark::Off);
        assert_eq!(outcomes[2].memo.mark, MemoMark::Hit);
        assert_eq!(outcomes[2].result, outcomes[0].result);
    }
}
