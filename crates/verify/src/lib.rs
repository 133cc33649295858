//! `fusion-verify`: exhaustive explicit-state model checking for the
//! FUSION coherence protocols.
//!
//! The timing simulator in `fusion-coherence` and the models here drive
//! the *same* pure transition functions
//! ([`fusion_coherence::transition`]), so properties proven over the
//! abstract state spaces hold for the exact state-update logic the
//! simulator executes: the verified machine is the simulated machine.
//!
//! Three layers:
//! - [`mod@explore`] — a generic Murphi-style BFS explorer with minimal
//!   counterexample reconstruction;
//! - [`acc_model`] / [`mesi_model`] — small abstracted instantiations of
//!   the ACC lease tile and the host MESI directory;
//! - [`run`] / [`VerifySpec`] — the `sim verify` entry point: protocol
//!   selection, fault planting, and text/JSON reporting.

pub mod acc_model;
pub mod explore;
pub mod mesi_model;

use std::time::Instant;

use fusion_types::fault::{ProtocolFault, ProtocolFaultKind};

use crate::acc_model::{AccModel, AccModelConfig};
use crate::explore::{explore, CounterExample, Exploration};
use crate::mesi_model::{MesiModel, MesiModelConfig};

/// Which protocol machine(s) to explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyProtocol {
    /// Base ACC lease protocol (no forwarding, no renewal).
    Acc,
    /// ACC with FUSION-Dx write forwarding enabled.
    AccDx,
    /// ACC with lease renewal enabled.
    AccRenew,
    /// Host directory MESI.
    Mesi,
    /// All of the above.
    All,
}

impl VerifyProtocol {
    /// Parses the `--protocol` CLI value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "acc" => Some(VerifyProtocol::Acc),
            "acc-dx" => Some(VerifyProtocol::AccDx),
            "acc-renew" => Some(VerifyProtocol::AccRenew),
            "mesi" => Some(VerifyProtocol::Mesi),
            "all" => Some(VerifyProtocol::All),
            _ => None,
        }
    }

    fn members(self) -> Vec<VerifyProtocol> {
        match self {
            VerifyProtocol::All => vec![
                VerifyProtocol::Acc,
                VerifyProtocol::AccDx,
                VerifyProtocol::AccRenew,
                VerifyProtocol::Mesi,
            ],
            one => vec![one],
        }
    }

    fn name(self) -> &'static str {
        match self {
            VerifyProtocol::Acc => "acc",
            VerifyProtocol::AccDx => "acc-dx",
            VerifyProtocol::AccRenew => "acc-renew",
            VerifyProtocol::Mesi => "mesi",
            VerifyProtocol::All => "all",
        }
    }

    fn is_acc(self) -> bool {
        matches!(
            self,
            VerifyProtocol::Acc | VerifyProtocol::AccDx | VerifyProtocol::AccRenew
        )
    }
}

/// Parses a `--fault kind@event` CLI value, e.g. `lease-overrun@2`.
pub fn parse_fault(s: &str) -> Option<ProtocolFault> {
    let (kind, at) = s.split_once('@')?;
    let kind = match kind {
        "lease-overrun" => ProtocolFaultKind::LeaseOverrun,
        "gtime-regression" => ProtocolFaultKind::GtimeRegression,
        "empty-sharers" => ProtocolFaultKind::EmptySharerList,
        "wrong-owner" => ProtocolFaultKind::WrongOwner,
        _ => return None,
    };
    let at_event = at.parse().ok()?;
    Some(ProtocolFault { kind, at_event })
}

/// Returns `true` when `fault` is meaningful for `proto` (ACC faults
/// belong to the tile models, directory faults to the MESI model).
pub fn fault_matches_protocol(kind: ProtocolFaultKind, proto: VerifyProtocol) -> bool {
    match kind {
        ProtocolFaultKind::LeaseOverrun | ProtocolFaultKind::GtimeRegression => proto.is_acc(),
        ProtocolFaultKind::EmptySharerList | ProtocolFaultKind::WrongOwner => {
            proto == VerifyProtocol::Mesi
        }
    }
}

/// A full `sim verify` request. `None` fields take the per-protocol
/// defaults: the base ACC protocol explores the cross-block
/// [`AccModelConfig::two_block`] space, the dx/renewal variants the
/// lease-rich single-block [`AccModelConfig::small`] space, and MESI the
/// capacity-1 inclusive directory ([`MesiModelConfig::small`]).
#[derive(Debug, Clone)]
pub struct VerifySpec {
    /// Protocol selection (default `All`).
    pub protocol: VerifyProtocol,
    /// ACC tile agents / MESI coherence agents.
    pub agents: Option<usize>,
    /// Blocks per model.
    pub blocks: Option<usize>,
    /// ACC bounded time horizon in cycles.
    pub horizon: Option<u64>,
    /// Optional planted fault (drives `--expect-violation` runs).
    pub fault: Option<ProtocolFault>,
    /// Visited-state cap per protocol.
    pub max_states: usize,
}

impl Default for VerifySpec {
    fn default() -> Self {
        VerifySpec {
            protocol: VerifyProtocol::All,
            agents: None,
            blocks: None,
            horizon: None,
            fault: None,
            max_states: 8_000_000,
        }
    }
}

/// Exploration outcome for one protocol.
#[derive(Debug, Clone)]
pub struct ProtocolReport {
    /// Protocol name (`acc`, `acc-dx`, `acc-renew`, `mesi`).
    pub protocol: &'static str,
    /// Raw exploration statistics and (possibly) a counterexample.
    pub exploration: Exploration,
    /// Wall-clock seconds spent exploring.
    pub seconds: f64,
}

/// Outcome of a full `sim verify` run.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Per-protocol results, in the order explored.
    pub protocols: Vec<ProtocolReport>,
}

impl VerifyReport {
    /// `true` when any explored protocol produced a counterexample.
    pub fn violated(&self) -> bool {
        self.protocols
            .iter()
            .any(|p| p.exploration.violation.is_some())
    }
}

fn run_one(proto: VerifyProtocol, spec: &VerifySpec) -> ProtocolReport {
    let fault = spec.fault.filter(|f| fault_matches_protocol(f.kind, proto));
    #[expect(
        clippy::disallowed_methods,
        reason = "exploration wall time is reported to the operator only; verdicts depend solely on the explored state space"
    )]
    let start = Instant::now();
    let exploration = if proto.is_acc() {
        let mut cfg = if proto == VerifyProtocol::Acc {
            AccModelConfig::two_block()
        } else {
            AccModelConfig::small()
        };
        if let Some(agents) = spec.agents {
            cfg.agents = agents;
        }
        if let Some(blocks) = spec.blocks {
            cfg.blocks = blocks;
        }
        if let Some(horizon) = spec.horizon {
            cfg.horizon = horizon;
        }
        cfg.forwarding = proto == VerifyProtocol::AccDx;
        cfg.renewal = proto == VerifyProtocol::AccRenew;
        cfg.fault = fault;
        explore(&AccModel::new(cfg), spec.max_states)
    } else {
        let mut cfg = MesiModelConfig::small();
        if let Some(agents) = spec.agents {
            cfg.agents = agents;
        }
        if let Some(blocks) = spec.blocks {
            cfg.blocks = blocks;
        }
        cfg.fault = fault;
        explore(&MesiModel::new(cfg), spec.max_states)
    };
    ProtocolReport {
        protocol: proto.name(),
        exploration,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Runs the exhaustive check described by `spec`.
pub fn run(spec: &VerifySpec) -> VerifyReport {
    let protocols = spec.protocol.members().into_iter();
    VerifyReport {
        protocols: protocols.map(|p| run_one(p, spec)).collect(),
    }
}

fn render_counterexample(out: &mut String, ce: &CounterExample) {
    out.push_str("  counterexample (minimal):\n");
    out.push_str("    initial state:\n");
    for (field, value) in &ce.initial {
        out.push_str(&format!("      {field} = {value}\n"));
    }
    for (i, step) in ce.steps.iter().enumerate() {
        out.push_str(&format!("    {:>3}. {}\n", i + 1, step.action));
        for (field, from, to) in &step.changed {
            out.push_str(&format!("         {field}: {from} -> {to}\n"));
        }
    }
    out.push_str(&format!(
        "  VIOLATION [{}/{}]: {}\n",
        ce.violation.protocol, ce.violation.rule, ce.violation.detail
    ));
}

/// Renders the human-readable report.
pub fn render_text(report: &VerifyReport) -> String {
    let mut out = String::new();
    for p in &report.protocols {
        let e = &p.exploration;
        let status = match (&e.violation, e.complete) {
            (Some(_), _) => "VIOLATED",
            (None, true) => "ok",
            (None, false) => "INCOMPLETE (state cap hit)",
        };
        out.push_str(&format!(
            "{:<9} {:>9} states  {:>10} transitions  depth {:>3}  {:>7.2}s  {status}\n",
            p.protocol, e.states, e.transitions, e.depth, p.seconds
        ));
        if let Some(ce) = &e.violation {
            render_counterexample(&mut out, ce);
        }
    }
    let verdict = if report.violated() {
        "verification FAILED"
    } else {
        "verification passed"
    };
    out.push_str(&format!("{verdict}\n"));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report (single JSON object).
pub fn render_json(report: &VerifyReport) -> String {
    let mut out = String::from("{\"protocols\":[");
    for (i, p) in report.protocols.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let e = &p.exploration;
        out.push_str(&format!(
            "{{\"protocol\":\"{}\",\"states\":{},\"transitions\":{},\"depth\":{},\
             \"seconds\":{:.3},\"complete\":{}",
            p.protocol, e.states, e.transitions, e.depth, p.seconds, e.complete
        ));
        match &e.violation {
            None => out.push_str(",\"violation\":null"),
            Some(ce) => {
                out.push_str(&format!(
                    ",\"violation\":{{\"protocol\":\"{}\",\"rule\":\"{}\",\"detail\":\"{}\",\
                     \"trace\":[",
                    json_escape(ce.violation.protocol),
                    json_escape(ce.violation.rule),
                    json_escape(&ce.violation.detail)
                ));
                for (j, step) in ce.steps.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\"", json_escape(&step.action)));
                }
                out.push_str("]}");
            }
        }
        out.push('}');
    }
    out.push_str(&format!("],\"violated\":{}}}", report.violated()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_parse_round_trips() {
        for name in ["acc", "acc-dx", "acc-renew", "mesi", "all"] {
            let p = VerifyProtocol::parse(name).expect("known name");
            assert_eq!(p.name(), name);
        }
        assert!(VerifyProtocol::parse("bogus").is_none());
    }

    #[test]
    fn fault_parse_accepts_all_kinds() {
        for (s, kind) in [
            ("lease-overrun@0", ProtocolFaultKind::LeaseOverrun),
            ("gtime-regression@3", ProtocolFaultKind::GtimeRegression),
            ("empty-sharers@1", ProtocolFaultKind::EmptySharerList),
            ("wrong-owner@2", ProtocolFaultKind::WrongOwner),
        ] {
            let f = parse_fault(s).expect("valid fault spec");
            assert_eq!(f.kind, kind);
        }
        assert!(parse_fault("lease-overrun").is_none());
        assert!(parse_fault("nope@1").is_none());
        assert!(parse_fault("lease-overrun@x").is_none());
    }

    #[test]
    #[ignore = "sizing probe"]
    fn probe_sizes() {
        for (label, blocks, horizon, leases) in [
            ("b1 h3 l12", 1usize, 3u64, vec![1u32, 2]),
            ("b1 h3 l1", 1, 3, vec![1]),
            ("b2 h3 l1", 2, 3, vec![1]),
            ("b2 h2 l1", 2, 2, vec![1]),
        ] {
            let mut cfg = acc_model::AccModelConfig::small();
            cfg.blocks = blocks;
            cfg.horizon = horizon;
            cfg.leases = leases;
            #[expect(
                clippy::disallowed_methods,
                reason = "a sizing probe reports host time"
            )]
            let start = std::time::Instant::now();
            let exp = explore::explore(&acc_model::AccModel::new(cfg), 8_000_000);
            println!(
                "{label}: {} states, {} transitions, depth {}, complete {}, {:?}",
                exp.states,
                exp.transitions,
                exp.depth,
                exp.complete,
                start.elapsed()
            );
        }
    }

    #[test]
    fn clean_all_protocols_verify() {
        let report = run(&VerifySpec::default());
        println!("{}", render_text(&report));
        assert_eq!(report.protocols.len(), 4);
        assert!(!report.violated(), "{}", render_text(&report));
        assert!(report.protocols.iter().all(|p| p.exploration.complete));
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let mut spec = VerifySpec {
            protocol: VerifyProtocol::Mesi,
            ..VerifySpec::default()
        };
        spec.fault = Some(ProtocolFault {
            kind: ProtocolFaultKind::WrongOwner,
            at_event: 0,
        });
        let report = run(&spec);
        assert!(report.violated());
        let json = render_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"violated\":true"));
        assert!(json.contains("\"rule\":\"dir-accuracy\""));
    }
}
