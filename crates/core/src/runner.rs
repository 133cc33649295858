//! Experiment runner: one entry point per (system, workload) pair.

use fusion_accel::{DecodedTrace, Workload};
use fusion_types::error::SimError;
use fusion_types::{SystemConfig, CACHE_BLOCK_BYTES};

use crate::result::SimResult;

/// The four systems compared in Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Oracle-DMA scratchpads (Section 2.1).
    Scratch,
    /// Shared L1X as a plain MESI agent (Section 2.1).
    Shared,
    /// Private L0Xs + shared L1X under ACC (Section 3).
    Fusion,
    /// FUSION with write forwarding (Section 3.2).
    FusionDx,
}

impl SystemKind {
    /// Short label used in figures ("SC", "SH", "FU", "FU-Dx").
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Scratch => "SC",
            SystemKind::Shared => "SH",
            SystemKind::Fusion => "FU",
            SystemKind::FusionDx => "FU-Dx",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The simulated-cycle forward-progress budget a run polls at phase
/// boundaries (DESIGN.md §10), the protocol-livelock guard. The default
/// is unlimited: no budget, zero work on the trusted path.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunControl<'a> {
    /// Job label stamped into [`SimError::Timeout`] diagnostics.
    pub label: &'a str,
    /// Simulated-cycle budget: exceeding it at a phase boundary aborts
    /// the run with [`SimError::Timeout`].
    pub max_sim_cycles: Option<u64>,
}

impl RunControl<'_> {
    /// Checks the budget against the current simulated time. Called at
    /// phase boundaries; every phase is finite (its replay is bounded by
    /// its reference count), so boundary checks always fire eventually.
    #[inline]
    pub fn check(&self, sim_now: u64) -> Result<(), SimError> {
        if let Some(budget) = self.max_sim_cycles {
            if sim_now > budget {
                return Err(SimError::Timeout {
                    job: self.label.to_string(),
                    limit: budget,
                });
            }
        }
        Ok(())
    }
}

/// Rejects configurations that cannot describe a simulatable machine
/// before any cycle is spent on them.
pub fn validate_config(cfg: &SystemConfig) -> Result<(), SimError> {
    let geoms = [
        ("l0x", &cfg.l0x),
        ("scratchpad", &cfg.scratchpad),
        ("l1x", &cfg.l1x),
        ("host_l1", &cfg.host_l1),
        ("l2", &cfg.l2),
    ];
    for (name, g) in geoms {
        if g.capacity_bytes < CACHE_BLOCK_BYTES {
            return Err(SimError::ConfigError {
                detail: format!(
                    "{name} capacity {} is smaller than one {CACHE_BLOCK_BYTES}-byte block",
                    g.capacity_bytes
                ),
            });
        }
        if g.ways == 0 {
            return Err(SimError::ConfigError {
                detail: format!("{name} needs at least one way"),
            });
        }
        if g.banks == 0 {
            return Err(SimError::ConfigError {
                detail: format!("{name} needs at least one bank"),
            });
        }
    }
    let links = [
        ("link_axc_l1x", &cfg.link_axc_l1x),
        ("link_l1x_l2", &cfg.link_l1x_l2),
        ("link_l0x_l0x", &cfg.link_l0x_l0x),
    ];
    for (name, l) in links {
        if l.bytes_per_cycle == 0 {
            return Err(SimError::ConfigError {
                detail: format!("{name} bandwidth must be nonzero"),
            });
        }
    }
    if cfg.control_message_bytes == 0 {
        return Err(SimError::ConfigError {
            detail: "control messages cannot be zero bytes".to_string(),
        });
    }
    if !cfg.checker.enabled && (cfg.checker.acc_fault.is_some() || cfg.checker.mesi_fault.is_some())
    {
        return Err(SimError::ConfigError {
            detail: "protocol faults require the checker to be enabled".to_string(),
        });
    }
    Ok(())
}

/// Runs `workload` on the chosen system with the given configuration.
///
/// The oracle DMA windows and forwarding pairs the replay consults are
/// memoized on `workload` ([`Workload::dma_windows`],
/// [`Workload::forward_pairs`]): every system and configuration that
/// replays one workload shares them, and a sweep computes them in its
/// untimed set-up.
///
/// # Errors
///
/// Returns [`SimError::ConfigError`] for an unusable configuration and
/// [`SimError::InvariantViolation`] when the opt-in protocol checker
/// flags a transition (see DESIGN.md §10).
///
/// # Examples
///
/// ```
/// use fusion_core::runner::{run_system, SystemKind};
/// use fusion_workloads::{build_suite, Scale, SuiteId};
///
/// let wl = build_suite(SuiteId::Filter, Scale::Tiny);
/// let res = run_system(SystemKind::Shared, &wl, &Default::default()).unwrap();
/// assert_eq!(res.system, "SHARED");
/// ```
pub fn run_system(
    kind: SystemKind,
    workload: &Workload,
    cfg: &SystemConfig,
) -> Result<SimResult, SimError> {
    run_system_guarded(kind, workload, cfg, &RunControl::default())
}

/// [`run_system`], kept with the signature the `perf` harness calls
/// (ROADMAP item 3): the analyses come from `workload` itself.
///
/// # Errors
///
/// Same as [`run_system`].
pub fn run_system_decoded(
    kind: SystemKind,
    workload: &Workload,
    _decoded: &DecodedTrace,
    cfg: &SystemConfig,
) -> Result<SimResult, SimError> {
    run_system(kind, workload, cfg)
}

/// [`run_system`] under a cycle budget: the sweep engine's entry
/// point. `ctl` carries the simulated-cycle budget, polled at phase
/// boundaries.
///
/// # Errors
///
/// Same as [`run_system`], plus [`SimError::Timeout`] when the budget in
/// `ctl` is exceeded.
pub fn run_system_guarded(
    kind: SystemKind,
    workload: &Workload,
    cfg: &SystemConfig,
    ctl: &RunControl<'_>,
) -> Result<SimResult, SimError> {
    validate_config(cfg)?;
    #[expect(
        clippy::disallowed_methods,
        reason = "measures wall_nanos for throughput reporting only; no simulated state ever reads this clock (DESIGN.md §14)"
    )]
    let started = std::time::Instant::now();
    let mut res = crate::systems::simulate(kind, workload, cfg, ctl)?;
    res.metrics.wall_nanos = crate::result::duration_nanos_saturating(started.elapsed());
    res.metrics.sim_events = res.total_sim_events();
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_types::fault::{CheckerConfig, ProtocolFaultKind};
    use fusion_workloads::{build_suite, Scale, SuiteId};

    const ALL: [SystemKind; 4] = [
        SystemKind::Scratch,
        SystemKind::Shared,
        SystemKind::Fusion,
        SystemKind::FusionDx,
    ];

    #[test]
    fn labels() {
        assert_eq!(SystemKind::Scratch.label(), "SC");
        assert_eq!(SystemKind::FusionDx.to_string(), "FU-Dx");
    }

    #[test]
    fn all_four_systems_run_one_workload() {
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        for kind in ALL {
            let res = run_system(kind, &wl, &SystemConfig::small()).unwrap();
            assert!(res.total_cycles > 0, "{kind}");
            assert!(res.memory_energy().value() > 0.0, "{kind}");
        }
    }

    #[test]
    fn shared_analyses_match_a_fresh_run() {
        // `warm` keeps its memoized analyses across runs; each fresh
        // workload computes its own.
        let warm = build_suite(SuiteId::Fft, Scale::Tiny);
        for kind in ALL {
            let fresh = build_suite(SuiteId::Fft, Scale::Tiny);
            let a = run_system(kind, &fresh, &SystemConfig::small()).unwrap();
            for _ in 0..2 {
                let b = run_system(kind, &warm, &SystemConfig::small()).unwrap();
                // SimResult equality covers every stat (metrics excluded).
                assert_eq!(a, b, "{kind}");
                assert_eq!(b.metrics.refs_simulated, warm.total_refs());
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let wl = build_suite(SuiteId::Adpcm, Scale::Tiny);
        let a = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
        let b = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.energy, b.energy);
    }

    #[test]
    fn broken_configs_are_rejected_up_front() {
        let wl = build_suite(SuiteId::Filter, Scale::Tiny);
        let mut cfg = SystemConfig::small();
        cfg.l1x.banks = 0;
        match run_system(SystemKind::Fusion, &wl, &cfg) {
            Err(SimError::ConfigError { detail }) => assert!(detail.contains("l1x"), "{detail}"),
            other => panic!("expected ConfigError, got {other:?}"),
        }
        let mut cfg = SystemConfig::small();
        cfg.link_l1x_l2.bytes_per_cycle = 0;
        assert!(matches!(
            run_system(SystemKind::Shared, &wl, &cfg),
            Err(SimError::ConfigError { .. })
        ));
        let mut cfg = SystemConfig::small();
        cfg.checker.acc_fault = Some(fusion_types::fault::ProtocolFault {
            at_event: 0,
            kind: ProtocolFaultKind::LeaseOverrun,
        });
        assert!(matches!(
            run_system(SystemKind::Fusion, &wl, &cfg),
            Err(SimError::ConfigError { .. })
        ));
    }

    #[test]
    fn sim_cycle_budget_yields_timeout() {
        let wl = build_suite(SuiteId::Fft, Scale::Tiny);
        for kind in ALL {
            let label = format!("FFT/{kind}");
            let ctl = RunControl {
                label: &label,
                max_sim_cycles: Some(10),
            };
            match run_system_guarded(kind, &wl, &SystemConfig::small(), &ctl) {
                Err(SimError::Timeout { job, limit }) => {
                    assert_eq!(job, label);
                    assert_eq!(limit, 10);
                }
                other => panic!("{kind}: expected Timeout, got {other:?}"),
            }
        }
    }

    #[test]
    fn clean_checker_run_matches_checker_off() {
        let wl = build_suite(SuiteId::Fft, Scale::Tiny);
        for kind in ALL {
            let off = run_system(kind, &wl, &SystemConfig::small()).unwrap();
            let on_cfg = SystemConfig::small().with_checker(CheckerConfig::enabled());
            let on = run_system(kind, &wl, &on_cfg).unwrap();
            assert_eq!(off, on, "{kind}: checker-on run diverged");
        }
    }

    #[test]
    fn planted_acc_fault_surfaces_as_invariant_violation() {
        let wl = build_suite(SuiteId::Fft, Scale::Tiny);
        let cfg = SystemConfig::small().with_checker(CheckerConfig::with_acc_fault(
            5,
            ProtocolFaultKind::LeaseOverrun,
        ));
        match run_system(SystemKind::Fusion, &wl, &cfg) {
            Err(SimError::InvariantViolation(v)) => {
                assert_eq!(v.protocol, "ACC");
                assert_eq!(v.rule, "lease-containment");
            }
            other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }

    #[test]
    fn planted_mesi_fault_surfaces_as_invariant_violation() {
        let wl = build_suite(SuiteId::Fft, Scale::Tiny);
        let cfg = SystemConfig::small().with_checker(CheckerConfig::with_mesi_fault(
            3,
            ProtocolFaultKind::WrongOwner,
        ));
        match run_system(SystemKind::Shared, &wl, &cfg) {
            Err(SimError::InvariantViolation(v)) => assert_eq!(v.protocol, "MESI"),
            other => panic!("expected InvariantViolation, got {other:?}"),
        }
    }
}
