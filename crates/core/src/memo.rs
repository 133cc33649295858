//! Design-grid dedupe at planning time (DESIGN.md §12).
//!
//! Most points of the paper's sensitivity grid change a knob the simulated
//! system cannot see: SCRATCH has no L0X, SHARED and FUSION have no
//! scratchpad. [`observed_config`] resets every field a system cannot see
//! to its [`SystemConfig::default`] value, so two jobs of one system and
//! suite with `==` observed configs replay to identical results. `plan`
//! groups a sweep's jobs on that key before any job runs; the sweep
//! simulates the first member of each group and copies its result into
//! the others.
//!
//! Jobs with a staged fault, with the protocol checker on, or whose config
//! fails [`validate_config`] are never grouped: their outcome depends on
//! more than the observed config. A grid point resumed from the journal
//! is never run, so it neither joins nor leads a group. The guards that
//! the slice table is wide enough are the memo property test
//! (`tests/memo_props.rs`) and the memo-on vs memo-off comparison over
//! the design grid.

use fusion_types::SystemConfig;

use crate::faults::FaultPlan;
use crate::runner::{validate_config, SystemKind};
use crate::sweep::SweepJob;

/// `cfg` as `system` sees it: every field outside the system's slice is
/// overwritten with its [`SystemConfig::default`] value.
///
/// The slices (DESIGN.md §12 reproduces them):
///
/// * **all systems** — host L1 and L2 geometry, memory latency, the
///   L1X↔L2 link, control-message size and the checker config (the host
///   path reads these everywhere);
/// * **SCRATCH** — additionally the scratchpad geometry;
/// * **SHARED** — additionally the L1X geometry, the AXC↔L1X link and the
///   timestamp tag-energy overhead;
/// * **FUSION** — SHARED's fields plus the L0X geometry, write policy,
///   lease parameters and the prefetch degree;
/// * **FUSION-Dx** — FUSION's fields plus the L0X→L0X forwarding link.
///
/// Fields are reset only where a system provably ignores them, so a field
/// added to [`SystemConfig`] is observed by every system until a slice
/// says otherwise: a forgotten field costs copies, never correctness.
pub fn observed_config(system: SystemKind, cfg: &SystemConfig) -> SystemConfig {
    let unseen = SystemConfig::default();
    let mut seen = cfg.clone();
    let fusion = matches!(system, SystemKind::Fusion | SystemKind::FusionDx);
    if system != SystemKind::Scratch {
        seen.scratchpad = unseen.scratchpad;
    }
    if system == SystemKind::Scratch {
        seen.l1x = unseen.l1x;
        seen.link_axc_l1x = unseen.link_axc_l1x;
        seen.timestamp_tag_overhead = unseen.timestamp_tag_overhead;
    }
    if !fusion {
        seen.l0x = unseen.l0x;
        seen.write_policy = unseen.write_policy;
        seen.default_lease = unseen.default_lease;
        seen.lease_renewal = unseen.lease_renewal;
        seen.l1x_prefetch_degree = unseen.l1x_prefetch_degree;
    }
    if system != SystemKind::FusionDx {
        seen.link_l0x_l0x = unseen.link_l0x_l0x;
    }
    seen
}

/// What the sweep does with one grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Role {
    /// Spliced from the journal: never run, never grouped.
    Resumed,
    /// Not grouped (memo off, fault staged, checker on or invalid
    /// config): the job runs on its own.
    Alone,
    /// First member of its group: the job runs, then its result is
    /// copied into these later grid indices.
    Run(Vec<usize>),
    /// A later member of the group led by this grid index.
    Copy(usize),
}

/// Groups `jobs` in grid order by `(system, suite, observed config)`.
/// The points `resumed` marks are [`Role::Resumed`]. With `memo` on, jobs
/// with no fault in `faults`, the checker off and a config that passes
/// [`validate_config`] are grouped; the rest are [`Role::Alone`].
pub(crate) fn plan(
    jobs: &[SweepJob],
    faults: &FaultPlan,
    memo: bool,
    resumed: &[bool],
) -> Vec<Role> {
    let mut roles = Vec::with_capacity(jobs.len());
    // Group leaders with their observed configs; a linear scan keeps the
    // comparison plain `==` (the design grid has 91 groups).
    let mut leaders: Vec<(usize, SystemConfig)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        if resumed[i] {
            roles.push(Role::Resumed);
            continue;
        }
        let eligible = memo
            && faults.fault_for(i).is_none()
            && !job.config.checker.enabled
            && validate_config(&job.config).is_ok();
        if !eligible {
            roles.push(Role::Alone);
            continue;
        }
        let seen = observed_config(job.system, &job.config);
        let leader = leaders
            .iter()
            .find(|(l, cfg)| {
                jobs[*l].system == job.system && jobs[*l].suite == job.suite && *cfg == seen
            })
            .map(|(l, _)| *l);
        match leader {
            Some(l) => {
                if let Role::Run(copies) = &mut roles[l] {
                    copies.push(i);
                }
                roles.push(Role::Copy(l));
            }
            None => {
                leaders.push((i, seen));
                roles.push(Role::Run(Vec::new()));
            }
        }
    }
    roles
}

/// How the sweep served one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoMark {
    /// The memo was off or the job was not grouped (fault staged, checker
    /// enabled, invalid config).
    #[default]
    Off,
    /// The job was simulated.
    Miss,
    /// The job's result was copied from its group's first member.
    Hit,
}

impl MemoMark {
    /// Stable lowercase label (JSON rows, summaries).
    pub fn label(self) -> &'static str {
        match self {
            MemoMark::Off => "off",
            MemoMark::Miss => "miss",
            MemoMark::Hit => "hit",
        }
    }
}

/// Per-job memo accounting, echoed in every sweep row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoRow {
    /// How the sweep served this job.
    pub mark: MemoMark,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;
    use crate::sweep::design_grid;
    use fusion_types::fault::CheckerConfig;

    fn count(roles: &[Role]) -> (usize, usize, usize) {
        let runs = roles.iter().filter(|r| matches!(r, Role::Run(_))).count();
        let copies = roles.iter().filter(|r| matches!(r, Role::Copy(_))).count();
        let alone = roles.iter().filter(|r| **r == Role::Alone).count();
        (runs, copies, alone)
    }

    #[test]
    fn plan_copies_105_design_grid_points_and_never_ineligible_jobs() {
        let mut jobs = design_grid(&SystemConfig::small());
        let roles = plan(&jobs, &FaultPlan::new(), true, &[false; 196]);
        assert_eq!(count(&roles), (91, 105, 0));
        for (i, role) in roles.iter().enumerate() {
            match role {
                Role::Copy(l) => {
                    assert!(*l < 28, "every copy's first member is in the base block");
                    assert!(matches!(&roles[*l], Role::Run(c) if c.contains(&i)));
                    assert_eq!(
                        (jobs[*l].system, jobs[*l].suite),
                        (jobs[i].system, jobs[i].suite)
                    );
                }
                Role::Run(copies) => assert!(copies.iter().all(|&c| roles[c] == Role::Copy(i))),
                _ => unreachable!("every design-grid job is eligible"),
            }
        }

        // Job 0 (FFT/SC@base) gets a staged fault, job 1 (FFT/SH@base)
        // the checker, and a last job is invalid only in a field SCRATCH
        // cannot see, so its observed config equals job 0's.
        jobs[1].config = jobs[1]
            .config
            .clone()
            .with_checker(CheckerConfig::enabled());
        let mut bad = jobs[0].clone();
        bad.config.l0x.banks = 0;
        assert_eq!(
            observed_config(bad.system, &bad.config),
            observed_config(jobs[0].system, &jobs[0].config)
        );
        jobs.push(bad);
        let roles = plan(
            &jobs,
            &FaultPlan::new().inject(0, Fault::Panic),
            true,
            &[false; 197],
        );
        let last = jobs.len() - 1;
        for i in [0, 1, last] {
            assert_eq!(roles[i], Role::Alone, "job {i} must not be grouped");
        }
        // The rest of job 0's group regroups under its next member, the
        // FFT/SC job of the first L0X variant.
        assert_eq!(roles[28], Role::Run(vec![56, 84]));
        assert_eq!(count(&roles), (91, 103, 3));
    }
}
