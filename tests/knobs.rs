//! Every `SystemConfig` knob moves the model (DESIGN.md §12).
//!
//! * **Liveness**: perturbing one settable value alone changes some
//!   (suite, system) outcome at tiny scale. The knob list is pinned to the
//!   struct by an exhaustive destructuring, so a new field fails to compile
//!   until it is listed here.
//! * **Slices**: a system whose [`observed_config`] keeps a knob's change
//!   must change its own outcome for some suite, and a system whose slice
//!   drops it must not.
//! * **Monotone latency**: total cycles never fall as one latency knob
//!   rises.

use fusion_core::{observed_config, run_system, SimResult, SystemKind};
use fusion_types::error::SimError;
use fusion_types::{
    CacheGeometry, CheckerConfig, LinkConfig, ProtocolFaultKind, ScratchpadGeometry, SystemConfig,
    WritePolicy,
};
use fusion_workloads::{build_suite, Scale, SuiteId};

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::Scratch,
    SystemKind::Shared,
    SystemKind::Fusion,
    SystemKind::FusionDx,
];

/// (knob, systems whose outcome it need not move, why).
const ALLOWED: &[(&str, &[SystemKind], &str)] = &[
    (
        "checker.enabled",
        &SYSTEMS,
        "the checker only observes: a clean checked run equals an unchecked one (DESIGN.md §10)",
    ),
    (
        "checker.acc_fault",
        &[SystemKind::Scratch, SystemKind::Shared],
        "no ACC tile to corrupt; memo::plan never groups a checker-on job, so the slice may be wide",
    ),
];

/// A named perturbation of one settable value.
type Knob = (String, Box<dyn Fn(&mut SystemConfig)>);

/// One knob per settable value of [`SystemConfig`].
fn knobs() -> Vec<Knob> {
    // Exhaustive on purpose: a field added to `SystemConfig` or to one of
    // its parts (each part type is spelt out once) fails to compile here
    // until it gets a knob below.
    let SystemConfig {
        l0x: CacheGeometry { .. },
        scratchpad:
            ScratchpadGeometry {
                capacity_bytes: _,
                latency: _,
            },
        l1x: CacheGeometry { .. },
        host_l1: CacheGeometry { .. },
        l2:
            CacheGeometry {
                capacity_bytes: _,
                ways: _,
                banks: _,
                latency: _,
            },
        memory_latency: _,
        link_axc_l1x: LinkConfig { .. },
        link_l1x_l2:
            LinkConfig {
                pj_per_byte: _,
                latency: _,
                bytes_per_cycle: _,
            },
        link_l0x_l0x_pj_per_byte: _,
        write_policy: _,
        timestamp_tag_overhead: _,
        control_message_bytes: _,
        lease_renewal: _,
        l1x_prefetch_degree: _,
        checker:
            CheckerConfig {
                enabled: _,
                acc_fault: _,
                mesi_fault: _,
            },
    } = SystemConfig::small();
    type Geometry = fn(&mut SystemConfig) -> &mut CacheGeometry;
    let caches: [(&str, Geometry); 4] = [
        ("l0x", |c| &mut c.l0x),
        ("l1x", |c| &mut c.l1x),
        ("host_l1", |c| &mut c.host_l1),
        ("l2", |c| &mut c.l2),
    ];
    type Link = fn(&mut SystemConfig) -> &mut LinkConfig;
    let links: [(&str, Link); 2] = [
        ("link_axc_l1x", |c| &mut c.link_axc_l1x),
        ("link_l1x_l2", |c| &mut c.link_l1x_l2),
    ];
    let mut knobs = Vec::new();
    for (cache, g) in caches {
        knobs.extend([
            knob(format!("{cache}.capacity_bytes"), move |c| {
                g(c).capacity_bytes /= 2
            }),
            knob(format!("{cache}.ways"), move |c| g(c).ways *= 2),
            knob(format!("{cache}.banks"), move |c| g(c).banks *= 2),
            knob(format!("{cache}.latency"), move |c| g(c).latency += 1),
        ]);
    }
    for (link, l) in links {
        knobs.extend([
            knob(format!("{link}.pj_per_byte"), move |c| {
                l(c).pj_per_byte *= 2.0
            }),
            knob(format!("{link}.latency"), move |c| l(c).latency += 1),
            knob(format!("{link}.bytes_per_cycle"), move |c| {
                l(c).bytes_per_cycle /= 2
            }),
        ]);
    }
    knobs.extend([
        knob("scratchpad.capacity_bytes", |c| {
            c.scratchpad.capacity_bytes /= 2
        }),
        knob("scratchpad.latency", |c| c.scratchpad.latency += 1),
        knob("memory_latency", |c| c.memory_latency += 50),
        knob("link_l0x_l0x_pj_per_byte", |c| {
            c.link_l0x_l0x_pj_per_byte *= 2.0
        }),
        knob("write_policy", |c| {
            c.write_policy = WritePolicy::WriteThrough
        }),
        knob("timestamp_tag_overhead", |c| {
            c.timestamp_tag_overhead *= 2.0
        }),
        knob("control_message_bytes", |c| c.control_message_bytes *= 2),
        knob("lease_renewal", |c| c.lease_renewal = true),
        knob("l1x_prefetch_degree", |c| c.l1x_prefetch_degree = 4),
        knob("checker.enabled", |c| c.checker.enabled = true),
        knob("checker.acc_fault", |c| {
            c.checker = CheckerConfig::with_acc_fault(0, ProtocolFaultKind::LeaseOverrun)
        }),
        knob("checker.mesi_fault", |c| {
            c.checker = CheckerConfig::with_mesi_fault(0, ProtocolFaultKind::EmptySharerList)
        }),
    ]);
    knobs
}

fn knob(name: impl Into<String>, perturb: impl Fn(&mut SystemConfig) + 'static) -> Knob {
    (name.into(), Box::new(perturb))
}

fn allowed(name: &str, system: SystemKind) -> bool {
    ALLOWED
        .iter()
        .any(|(k, systems, _)| *k == name && systems.contains(&system))
}

#[test]
fn every_knob_moves_some_result_and_every_slice_is_exact() {
    let base = SystemConfig::small();
    let suites: Vec<_> = SuiteId::ALL
        .iter()
        .map(|&s| build_suite(s, Scale::Tiny))
        .collect();
    let outcomes = |cfg: &SystemConfig| -> Vec<Vec<Result<SimResult, SimError>>> {
        SYSTEMS
            .iter()
            .map(|&sys| suites.iter().map(|wl| run_system(sys, wl, cfg)).collect())
            .collect()
    };
    let reference = outcomes(&base);
    let (mut dead, mut slice_too_wide, mut slice_too_narrow) = (vec![], vec![], vec![]);
    for (name, perturb) in knobs() {
        let mut cfg = base.clone();
        perturb(&mut cfg);
        assert_ne!(cfg, base, "{name}: the perturbation is a no-op");
        let moved: Vec<bool> = outcomes(&cfg)
            .iter()
            .zip(&reference)
            .map(|(got, want)| got != want)
            .collect();
        if !moved.iter().any(|&m| m) && !SYSTEMS.iter().all(|&s| allowed(&name, s)) {
            dead.push(name.clone());
        }
        for (&sys, &moved) in SYSTEMS.iter().zip(&moved) {
            let observed = observed_config(sys, &cfg) != observed_config(sys, &base);
            if observed && !moved && !allowed(&name, sys) {
                slice_too_wide.push(format!("{name} on {sys:?}"));
            }
            if !observed && moved {
                slice_too_narrow.push(format!("{name} on {sys:?}"));
            }
        }
    }
    assert!(dead.is_empty(), "knobs that move no outcome: {dead:?}");
    assert!(
        slice_too_wide.is_empty(),
        "observed_config keeps a knob the system's outcome ignores: {slice_too_wide:?}"
    );
    assert!(
        slice_too_narrow.is_empty(),
        "observed_config drops a knob that moves the system's outcome: {slice_too_narrow:?}"
    );
}

/// A latency knob and the values it steps through, lowest first.
type LatencyKnob = (&'static str, fn(&mut SystemConfig, u64), &'static [u64]);

const LATENCIES: &[LatencyKnob] = &[
    ("l0x.latency", |c, v| c.l0x.latency = v, &[0, 1, 2, 3, 5, 8]),
    (
        "scratchpad.latency",
        |c, v| c.scratchpad.latency = v,
        &[0, 1, 2, 3, 5, 8],
    ),
    ("l1x.latency", |c, v| c.l1x.latency = v, &[0, 1, 2, 3, 5, 8]),
    (
        "host_l1.latency",
        |c, v| c.host_l1.latency = v,
        &[0, 1, 2, 3, 5, 8],
    ),
    (
        "link_axc_l1x.latency",
        |c, v| c.link_axc_l1x.latency = v,
        &[0, 1, 2, 3, 5, 8],
    ),
    (
        "link_l1x_l2.latency",
        |c, v| c.link_l1x_l2.latency = v,
        &[0, 1, 2, 4, 8, 12],
    ),
    (
        "l2.latency",
        |c, v| c.l2.latency = v,
        &[8, 9, 12, 16, 20, 28, 40],
    ),
    (
        "memory_latency",
        |c, v| c.memory_latency = v,
        &[0, 1, 50, 100, 200, 201, 400],
    ),
];

#[test]
fn total_cycles_never_fall_as_a_latency_rises() {
    let suites: Vec<_> = SuiteId::ALL
        .iter()
        .map(|&s| build_suite(s, Scale::Tiny))
        .collect();
    let mut falls = Vec::new();
    for &(name, set, steps) in LATENCIES {
        for sys in SYSTEMS {
            let config = |v| {
                let mut cfg = SystemConfig::small();
                set(&mut cfg, v);
                cfg
            };
            // A system whose slice drops the knob replays identically.
            if observed_config(sys, &config(steps[0])) == observed_config(sys, &config(steps[1])) {
                continue;
            }
            for wl in &suites {
                let mut last = 0;
                for &v in steps {
                    let cycles = run_system(sys, wl, &config(v)).unwrap().total_cycles;
                    if cycles < last {
                        falls.push(format!(
                            "{name}={v} on {}/{sys:?}: {last} -> {cycles}",
                            wl.name
                        ));
                    }
                    last = cycles;
                }
            }
        }
    }
    assert!(falls.is_empty(), "total cycles fell: {falls:?}");
}
