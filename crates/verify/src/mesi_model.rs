//! Abstract directory-MESI model for exhaustive exploration.
//!
//! Drives the pure directory transition functions
//! ([`fusion_coherence::transition::dir_transition`] and friends — the
//! same code `DirectoryMesi::request` folds over its L2) across every
//! interleaving of GetS/GetX requests and eviction notices from a small
//! set of agents over a small set of blocks, with an inclusive L2 of
//! bounded capacity so recalls are exercised.
//!
//! Alongside the directory state the model tracks what each agent
//! *actually* caches, which turns the directory-accuracy claim ("the
//! sharer list filters host requests into the tile exactly") into a
//! checkable state invariant. The protocol layer has no silent S-state
//! drops (every replacement sends a notice), so believed and actual
//! sharer sets must agree in every reachable state.

use std::fmt;

use fusion_coherence::mesi::{AgentId, DirState, MesiReq};
use fusion_coherence::transition::{agents_of, dir_recall_targets, dir_release, dir_transition};
use fusion_types::fault::{ProtocolFault, ProtocolFaultKind};

use crate::explore::{Model, Violation};

/// Configuration of the abstract directory.
#[derive(Debug, Clone)]
pub struct MesiModelConfig {
    /// Number of coherence agents (2–3).
    pub agents: usize,
    /// Number of distinct blocks (1–2).
    pub blocks: usize,
    /// Inclusive-L2 capacity in blocks; fewer than `blocks` forces
    /// recalls. One way, LRU.
    pub l2_capacity: usize,
    /// Plant a directory fault at the `at_event`-th request.
    pub fault: Option<ProtocolFault>,
}

impl MesiModelConfig {
    /// The default small configuration: 2 agents, 2 blocks, 1-entry L2
    /// (every second fill recalls).
    pub fn small() -> Self {
        MesiModelConfig {
            agents: 2,
            blocks: 2,
            l2_capacity: 1,
            fault: None,
        }
    }
}

/// Full abstract directory state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MesiState {
    /// Per-block directory entry (`None` = not resident in L2).
    l2: Vec<Option<DirState>>,
    /// Resident blocks, most-recently-used first.
    lru: Vec<u8>,
    /// Per-agent bitmask of blocks the agent actually caches.
    cached: Vec<u8>,
    /// Request events seen, capped just past the planted fault's trigger.
    events: u64,
}

/// One protocol event of the abstract directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MesiAction {
    /// A GetS/GetX request from an agent.
    Request {
        /// Requesting agent.
        agent: u8,
        /// Target block.
        block: usize,
        /// Read-for-ownership vs read.
        exclusive: bool,
    },
    /// An eviction notice (PUTX / replacement hint) from an agent.
    Evict {
        /// The agent dropping its copy.
        agent: u8,
        /// The block being dropped.
        block: usize,
    },
}

impl fmt::Display for MesiAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MesiAction::Request {
                agent,
                block,
                exclusive,
            } => write!(
                f,
                "{}.{}(b{block})",
                AgentId(*agent),
                if *exclusive { "GetX" } else { "GetS" }
            ),
            MesiAction::Evict { agent, block } => {
                write!(f, "{}.evict(b{block})", AgentId(*agent))
            }
        }
    }
}

/// Narrows a block index to the `u8` LRU tag. Block counts are tiny
/// model parameters (1-2), but saturating keeps an oversized config from
/// silently aliasing two blocks onto one LRU slot.
fn lru_tag(block: usize) -> u8 {
    u8::try_from(block).unwrap_or(u8::MAX)
}

/// The MESI model: drives [`fusion_coherence::transition`] over
/// [`MesiState`].
pub struct MesiModel {
    cfg: MesiModelConfig,
}

impl MesiModel {
    /// Builds a model for `cfg`.
    pub fn new(cfg: MesiModelConfig) -> Self {
        MesiModel { cfg }
    }

    fn fire_fault(&self, st: &mut MesiState, agent: AgentId, block: usize) {
        let Some(fault) = self.cfg.fault else {
            return;
        };
        let fired = st.events == fault.at_event;
        st.events = st.events.saturating_add(1).min(fault.at_event + 1);
        if !fired {
            return;
        }
        match fault.kind {
            ProtocolFaultKind::EmptySharerList => {
                if matches!(st.l2[block], Some(DirState::Shared(_))) {
                    st.l2[block] = Some(DirState::Shared(0));
                }
            }
            ProtocolFaultKind::WrongOwner => {
                if matches!(st.l2[block], Some(DirState::Owned(_))) {
                    st.l2[block] = Some(DirState::Owned(AgentId(agent.0 ^ 1)));
                }
            }
            // ACC faults are planted in the tile model.
            ProtocolFaultKind::LeaseOverrun | ProtocolFaultKind::GtimeRegression => {}
        }
    }

    fn apply_request(
        &self,
        s: &MesiState,
        agent: AgentId,
        block: usize,
        exclusive: bool,
    ) -> MesiState {
        let mut st = s.clone();
        let prior = match st.l2[block] {
            Some(state) => {
                // LRU touch.
                st.lru.retain(|&b| b as usize != block);
                st.lru.insert(0, lru_tag(block));
                state
            }
            None => {
                // L2 fill; evict the LRU victim when at capacity,
                // recalling every agent the inclusive L2 tracked for it.
                if st.lru.len() >= self.cfg.l2_capacity {
                    if let Some(victim) = st.lru.pop() {
                        let victim = victim as usize;
                        if let Some(vstate) = st.l2[victim] {
                            let (targets, _owner_writeback) = dir_recall_targets(vstate);
                            for a in targets {
                                st.cached[a.0 as usize] &= !(1 << victim);
                            }
                        }
                        st.l2[victim] = None;
                    }
                }
                st.lru.insert(0, lru_tag(block));
                st.l2[block] = Some(DirState::Idle);
                DirState::Idle
            }
        };
        let req = if exclusive {
            MesiReq::GetX
        } else {
            MesiReq::GetS
        };
        let tr = dir_transition(prior, agent, req);
        for a in agents_of(tr.invalidate) {
            st.cached[a.0 as usize] &= !(1 << block);
        }
        if exclusive {
            // A Fwd-GetX makes the old owner hand over the line and
            // invalidate its copy.
            if let Some(owner) = tr.forward_owner {
                st.cached[owner.0 as usize] &= !(1 << block);
            }
        }
        st.cached[agent.0 as usize] |= 1 << block;
        st.l2[block] = Some(tr.next);
        self.fire_fault(&mut st, agent, block);
        st
    }

    fn apply_evict(&self, s: &MesiState, agent: AgentId, block: usize) -> Option<MesiState> {
        if s.cached[agent.0 as usize] & (1 << block) == 0 {
            return None; // nothing to evict
        }
        let mut st = s.clone();
        st.cached[agent.0 as usize] &= !(1 << block);
        if let Some(state) = st.l2[block] {
            st.l2[block] = Some(dir_release(state, agent));
        }
        Some(st)
    }
}

impl Model for MesiModel {
    type State = MesiState;
    type Action = MesiAction;

    fn initial(&self) -> MesiState {
        MesiState {
            l2: vec![None; self.cfg.blocks],
            lru: Vec::new(),
            cached: vec![0; self.cfg.agents],
            events: 0,
        }
    }

    fn actions(&self, _state: &MesiState, out: &mut Vec<MesiAction>) {
        // Checked: agent counts are tiny model parameters, but a wrap
        // here would silently shrink the explored action space.
        for agent in 0..u8::try_from(self.cfg.agents).unwrap_or(u8::MAX) {
            for block in 0..self.cfg.blocks {
                for exclusive in [false, true] {
                    out.push(MesiAction::Request {
                        agent,
                        block,
                        exclusive,
                    });
                }
                out.push(MesiAction::Evict { agent, block });
            }
        }
    }

    fn apply(&self, state: &MesiState, action: &MesiAction) -> Option<MesiState> {
        let next = match *action {
            MesiAction::Request {
                agent,
                block,
                exclusive,
            } => Some(self.apply_request(state, AgentId(agent), block, exclusive)),
            MesiAction::Evict { agent, block } => self.apply_evict(state, AgentId(agent), block),
        }?;
        if next == *state {
            return None; // self-loop (e.g. repeated same-owner request)
        }
        Some(next)
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the model checks 2-3 agents, so an agent index fits AgentId's u8"
    )]
    fn check(&self, st: &MesiState) -> Option<Violation> {
        for block in 0..self.cfg.blocks {
            let actual: Vec<usize> = (0..self.cfg.agents)
                .filter(|&a| st.cached[a] & (1 << block) != 0)
                .collect();
            match st.l2[block] {
                None | Some(DirState::Idle) => {
                    // Inclusion + accuracy: a block the L2 does not track
                    // is cached by nobody.
                    if let Some(&a) = actual.first() {
                        return Some(Violation {
                            protocol: "MESI",
                            rule: "inclusion",
                            detail: format!(
                                "b{block} is untracked by the L2 but cached by {}",
                                AgentId(a as u8)
                            ),
                        });
                    }
                }
                Some(DirState::Shared(mask)) => {
                    if mask == 0 {
                        return Some(Violation {
                            protocol: "MESI",
                            rule: "nonempty-sharers",
                            detail: format!("b{block} is Shared with an empty sharer list"),
                        });
                    }
                    let believed: Vec<usize> = agents_of(mask).map(|a| a.0 as usize).collect();
                    if believed != actual {
                        return Some(Violation {
                            protocol: "MESI",
                            rule: "dir-accuracy",
                            detail: format!(
                                "b{block}: directory believes sharers {believed:?} but actual \
                                 caches are {actual:?}"
                            ),
                        });
                    }
                }
                Some(DirState::Owned(owner)) => {
                    if actual != [owner.0 as usize] {
                        return Some(Violation {
                            protocol: "MESI",
                            rule: "dir-accuracy",
                            detail: format!(
                                "b{block}: directory believes owner {owner} but actual caches \
                                 are {actual:?}"
                            ),
                        });
                    }
                }
            }
        }
        None
    }

    fn is_terminal(&self, _st: &MesiState) -> bool {
        // Requests are always enabled: the machine never wedges.
        false
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the model checks 2-3 agents, so an agent index fits AgentId's u8"
    )]
    fn render(&self, st: &MesiState) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (block, state) in st.l2.iter().enumerate() {
            let value = match state {
                None => "-".to_string(),
                Some(DirState::Idle) => "Idle".to_string(),
                Some(DirState::Shared(mask)) => {
                    let names: Vec<String> = agents_of(*mask).map(|a| a.to_string()).collect();
                    format!("Shared{{{}}}", names.join(","))
                }
                Some(DirState::Owned(a)) => format!("Owned({a})"),
            };
            out.push((format!("dir[b{block}]"), value));
        }
        for agent in 0..self.cfg.agents {
            let blocks: Vec<String> = (0..self.cfg.blocks)
                .filter(|&b| st.cached[agent] & (1 << b) != 0)
                .map(|b| format!("b{b}"))
                .collect();
            out.push((
                format!("caches[{}]", AgentId(agent as u8)),
                if blocks.is_empty() {
                    "-".to_string()
                } else {
                    blocks.join(",")
                },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    #[test]
    fn small_config_verifies_clean() {
        let exp = explore(&MesiModel::new(MesiModelConfig::small()), 1_000_000);
        assert!(exp.complete);
        assert!(
            exp.violation.is_none(),
            "clean directory must verify: {:?}",
            exp.violation
        );
        // Capacity-1 inclusive L2 closes at exactly 13 states: the empty
        // state plus {Idle, Sh{A0}, Sh{A1}, Sh{A0,A1}, Own(A0), Own(A1)}
        // for each of the two blocks.
        assert!(exp.states >= 13);
    }

    #[test]
    fn planted_empty_sharer_list_yields_counterexample() {
        let mut cfg = MesiModelConfig::small();
        cfg.fault = Some(ProtocolFault {
            at_event: 1,
            kind: ProtocolFaultKind::EmptySharerList,
        });
        let exp = explore(&MesiModel::new(cfg), 1_000_000);
        let ce = exp.violation.expect("empty sharer list must be found");
        assert_eq!(ce.violation.rule, "nonempty-sharers");
    }

    #[test]
    fn planted_wrong_owner_yields_counterexample() {
        let mut cfg = MesiModelConfig::small();
        cfg.fault = Some(ProtocolFault {
            at_event: 0,
            kind: ProtocolFaultKind::WrongOwner,
        });
        let exp = explore(&MesiModel::new(cfg), 1_000_000);
        let ce = exp.violation.expect("wrong owner must be found");
        assert_eq!(ce.violation.rule, "dir-accuracy");
    }
}
