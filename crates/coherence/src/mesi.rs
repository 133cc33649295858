//! Directory-based MESI protocol at the host shared L2.
//!
//! The host multicore keeps a 3-hop directory MESI protocol with the sharer
//! list embedded in the (inclusive) L2 tags — Table 2's "Directory MESI
//! coherence". Agents are the host L1 and the accelerator tile's shared
//! L1X (which participates as an M/E/I agent: it always requests exclusive
//! ownership, paper Section 3.2 "Integrating ACC with MESI").
//!
//! The protocol is modeled at the stable-state level with explicit
//! *outcomes*: every request reports whether the L2 hit, which agents must
//! be forwarded-to/invalidated, and whether memory was accessed — the
//! system models turn those into latency, traffic and energy.

use std::fmt;

use fusion_mem::{ReplacementPolicy, SetAssocCache};
use fusion_types::error::InvariantViolation;
use fusion_types::fault::{ProtocolFault, ProtocolFaultKind};
use fusion_types::{BlockAddr, CacheGeometry, PhysAddr, Pid};

use crate::checker::ProtocolChecker;
use crate::transition::{dir_recall_targets, dir_release, dir_transition};

/// Identifies a coherence agent below the shared L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentId(pub u8);

impl AgentId {
    /// The host core's L1 data cache.
    pub const HOST_L1: AgentId = AgentId(0);
    /// The accelerator tile (shared L1X, or the DMA engine's coherent port
    /// in the SCRATCH system).
    pub const TILE: AgentId = AgentId(1);

    /// This agent's bit in a sharer bitmask.
    pub fn mask(self) -> u32 {
        1 << self.0
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AgentId::HOST_L1 => write!(f, "hostL1"),
            AgentId::TILE => write!(f, "tile"),
            AgentId(n) => write!(f, "agent{n}"),
        }
    }
}

/// Request type issued to the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MesiReq {
    /// Read (GetS): join the sharer list.
    GetS,
    /// Read-for-ownership (GetX): become exclusive owner.
    GetX,
}

/// Directory-visible state of one block.
///
/// Public so the pure transition functions in [`crate::transition`] (and
/// the `fusion-verify` model checker built on them) can speak the same
/// state language as the timing directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirState {
    /// Valid in L2, cached by no agent.
    Idle,
    /// One or more agents hold Shared copies (bitmask).
    Shared(u32),
    /// One agent holds the block in E or M.
    Owned(AgentId),
}

/// Per-L2-line directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirEntry {
    state: DirState,
}

/// What a directory request caused — the 3-hop message pattern.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MesiOutcome {
    /// L2 tag+data hit. When `false`, the block was fetched from memory.
    pub l2_hit: bool,
    /// Memory access was performed (L2 miss, or dirty-victim writeback).
    pub memory_accesses: u32,
    /// Agents sent a Fwd-GetS/Fwd-GetX (owner intervention). For requests
    /// forwarded to the accelerator tile the system model consults the
    /// AX-RMAP and the ACC lease state before the data is released.
    pub forwarded_to: Vec<AgentId>,
    /// Agents sent invalidations (GetX against a sharer list).
    pub invalidated: Vec<AgentId>,
    /// Blocks recalled from agents because the inclusive L2 evicted them
    /// (each recall is itself a forwarded message to every caching agent).
    pub recalls: Vec<(BlockAddr, AgentId)>,
    /// A dirty L2 victim was written back to memory.
    pub dirty_writeback: bool,
}

/// Directory MESI protocol state machine with an inclusive L2.
///
/// Blocks are identified by their **physical** block address.
///
/// # Examples
///
/// ```
/// use fusion_coherence::mesi::{AgentId, DirectoryMesi, MesiReq};
/// use fusion_types::PhysAddr;
///
/// let mut dir = DirectoryMesi::table2();
/// let pa = PhysAddr::new(0x1000);
/// let out = dir.request(AgentId::HOST_L1, pa, MesiReq::GetS);
/// assert!(!out.l2_hit); // cold: memory fill
/// // The sole reader held the block in E: a tile GetX forwards to it.
/// let out = dir.request(AgentId::TILE, pa, MesiReq::GetX);
/// assert_eq!(out.forwarded_to, vec![AgentId::HOST_L1]);
/// ```
#[derive(Debug, Clone)]
pub struct DirectoryMesi {
    l2: SetAssocCache<DirEntry>,
    gets: u64,
    getx: u64,
    putx: u64,
    invalidations: u64,
    forwards: u64,
    /// Opt-in runtime invariant checker (DESIGN.md §10). `None` on the
    /// trusted path: `request` pays one predictable branch.
    checker: Option<Box<ProtocolChecker>>,
}

impl DirectoryMesi {
    /// Creates a directory with the given L2 geometry.
    pub fn new(l2_geometry: CacheGeometry) -> Self {
        DirectoryMesi {
            l2: SetAssocCache::new(l2_geometry, ReplacementPolicy::Lru),
            gets: 0,
            getx: 0,
            putx: 0,
            invalidations: 0,
            forwards: 0,
            checker: None,
        }
    }

    /// Enables runtime directory invariant checking, optionally planting a
    /// deliberate protocol fault (see [`ProtocolChecker`]).
    pub fn enable_checker(&mut self, fault: Option<ProtocolFault>) {
        self.checker = Some(Box::new(ProtocolChecker::new(fault)));
    }

    /// The first MESI invariant violation the checker observed, if any.
    pub fn checker_violation(&self) -> Option<InvariantViolation> {
        self.checker.as_ref().and_then(|c| c.violation().cloned())
    }

    /// The Table 2 L2: 4 MB, 16-way.
    pub fn table2() -> Self {
        DirectoryMesi::new(CacheGeometry {
            capacity_bytes: 4 * 1024 * 1024,
            ways: 16,
            banks: 8,
            latency: 20,
        })
    }

    fn key(pa: PhysAddr) -> BlockAddr {
        BlockAddr::from_index(pa.block_base().value() / fusion_types::CACHE_BLOCK_BYTES as u64)
    }

    const PHYS: Pid = Pid(0);

    /// Issues a request from `agent` for the block containing `pa`.
    pub fn request(&mut self, agent: AgentId, pa: PhysAddr, req: MesiReq) -> MesiOutcome {
        match req {
            MesiReq::GetS => self.gets += 1,
            MesiReq::GetX => self.getx += 1,
        }
        let block = Self::key(pa);
        let mut out = MesiOutcome::default();

        let hit = self.l2.lookup_pos(Self::PHYS, block);
        let prior = match hit {
            Some((set, pos)) => {
                out.l2_hit = true;
                self.l2.line_at(set, pos).meta.state
            }
            None => {
                // L2 miss: fetch from memory, install, possibly evicting a
                // victim whose sharers must be recalled (inclusion).
                out.memory_accesses += 1;
                if let Some(victim) = self.l2.insert(
                    Self::PHYS,
                    block,
                    DirEntry {
                        state: DirState::Idle,
                    },
                    false,
                ) {
                    let (targets, owner_writeback) = dir_recall_targets(victim.meta.state);
                    for a in targets {
                        out.recalls.push((victim.block, a));
                    }
                    if owner_writeback {
                        // Owner may hold dirty data: recall writes back.
                        out.dirty_writeback = true;
                        out.memory_accesses += 1;
                    }
                }
                DirState::Idle
            }
        };

        let tr = dir_transition(prior, agent, req);
        for a in crate::transition::agents_of(tr.invalidate) {
            out.invalidated.push(a);
            self.invalidations += 1;
        }
        if let Some(owner) = tr.forward_owner {
            out.forwarded_to.push(owner);
            self.forwards += 1;
        }
        #[expect(clippy::expect_used, reason = "insert above guarantees residency")]
        let line = match hit {
            // The transition changes no set, so the hit's coordinates hold.
            Some((set, pos)) => self.l2.line_at_mut(set, pos),
            None => self
                .l2
                .probe_mut(Self::PHYS, block)
                .expect("line just installed"),
        };
        line.meta = DirEntry { state: tr.next };
        line.dirty = line.dirty || req == MesiReq::GetX;
        if self.checker.is_some() {
            self.checker_after_request(agent, block, req);
        }
        out
    }

    /// Checker-mode validation after a directory transition: counts the
    /// event, applies a planted fault if it fires now, then re-validates
    /// the stable-state invariants for the touched entry. Off the hot
    /// path — `request` guards with a single `is_some` branch — and purely
    /// observational.
    #[cold]
    fn checker_after_request(&mut self, agent: AgentId, block: BlockAddr, req: MesiReq) {
        let fired = match self.checker.as_deref_mut() {
            Some(c) => c.next_event(),
            None => return,
        };
        if let Some(kind) = fired {
            if let Some(line) = self.l2.probe_mut(Self::PHYS, block) {
                match kind {
                    ProtocolFaultKind::EmptySharerList => {
                        // Leave the illegal Shared(∅) state behind.
                        line.meta.state = DirState::Shared(0);
                    }
                    ProtocolFaultKind::WrongOwner => {
                        // Hand ownership to an agent the protocol never
                        // granted it to.
                        line.meta.state = DirState::Owned(AgentId(agent.0 ^ 1));
                    }
                    // ACC faults are planted in the tile, not here.
                    ProtocolFaultKind::LeaseOverrun | ProtocolFaultKind::GtimeRegression => {}
                }
            }
        }
        let Some(state) = self.l2.probe(Self::PHYS, block).map(|l| l.meta.state) else {
            return;
        };
        let viol: Option<(&'static str, String)> = match state {
            // Invariant: a Shared entry names at least one sharer — an
            // empty list is Idle, and the difference decides whether host
            // requests cross into the tile.
            DirState::Shared(0) => Some((
                "nonempty-sharers",
                format!("block {block:?} is Shared with an empty sharer list"),
            )),
            // Invariant: a GetX leaves the requester as the sole owner.
            _ if req == MesiReq::GetX && state != DirState::Owned(agent) => Some((
                "getx-ownership",
                format!("block {block:?}: GetX by {agent} left state {state:?}"),
            )),
            _ => None,
        };
        if let Some((rule, detail)) = viol {
            if let Some(c) = self.checker.as_deref_mut() {
                c.record("MESI", rule, detail);
            }
        }
    }

    /// Handles an eviction notice (PUTX / clean replacement hint) from an
    /// agent: the agent no longer caches the block. `dirty` marks whether
    /// data came back with the notice.
    ///
    /// The ACC tile never silently drops S-state blocks (the L1X is M/E/I
    /// only), so the directory's sharer information stays exact for the
    /// tile — the property Section 3.2 relies on to filter forwards.
    pub fn eviction_notice(&mut self, agent: AgentId, pa: PhysAddr, dirty: bool) {
        self.putx += 1;
        let block = Self::key(pa);
        if let Some(line) = self.l2.probe_mut(Self::PHYS, block) {
            line.dirty = line.dirty || dirty;
            line.meta.state = dir_release(line.meta.state, agent);
        }
    }

    /// `true` if the directory currently believes `agent` caches `pa`.
    /// The L2 sharer list acts as the filter that keeps host requests from
    /// needlessly crossing into the accelerator tile.
    pub fn agent_caches(&self, agent: AgentId, pa: PhysAddr) -> bool {
        let block = Self::key(pa);
        match self.l2.probe(Self::PHYS, block).map(|l| l.meta.state) {
            Some(DirState::Owned(a)) => a == agent,
            Some(DirState::Shared(mask)) => mask & agent.mask() != 0,
            _ => false,
        }
    }

    /// Directory-visible owner of `pa`, if any agent owns it exclusively.
    pub fn owner(&self, pa: PhysAddr) -> Option<AgentId> {
        match self
            .l2
            .probe(Self::PHYS, Self::key(pa))
            .map(|l| l.meta.state)
        {
            Some(DirState::Owned(a)) => Some(a),
            _ => None,
        }
    }

    /// GetS requests served.
    pub fn gets_count(&self) -> u64 {
        self.gets
    }

    /// GetX requests served.
    pub fn getx_count(&self) -> u64 {
        self.getx
    }

    /// Eviction notices received.
    pub fn putx_count(&self) -> u64 {
        self.putx
    }

    /// Invalidations sent.
    pub fn invalidations_sent(&self) -> u64 {
        self.invalidations
    }

    /// Owner interventions (Fwd messages) sent.
    pub fn forwards_sent(&self) -> u64 {
        self.forwards
    }

    /// L2 lookup hits (for miss-rate stats).
    pub fn l2_hits(&self) -> u64 {
        self.l2.hits()
    }

    /// L2 lookup misses.
    pub fn l2_misses(&self) -> u64 {
        self.l2.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(i: u64) -> PhysAddr {
        PhysAddr::new(i * 64)
    }

    #[test]
    fn cold_gets_installs_exclusive() {
        let mut dir = DirectoryMesi::table2();
        let out = dir.request(AgentId::HOST_L1, pa(1), MesiReq::GetS);
        assert!(!out.l2_hit);
        assert_eq!(out.memory_accesses, 1);
        assert!(out.forwarded_to.is_empty());
        assert_eq!(dir.owner(pa(1)), Some(AgentId::HOST_L1));
    }

    #[test]
    fn second_reader_triggers_owner_intervention() {
        let mut dir = DirectoryMesi::table2();
        dir.request(AgentId::HOST_L1, pa(1), MesiReq::GetS);
        let out = dir.request(AgentId::TILE, pa(1), MesiReq::GetS);
        assert!(out.l2_hit);
        assert_eq!(out.forwarded_to, vec![AgentId::HOST_L1]);
        assert!(dir.agent_caches(AgentId::HOST_L1, pa(1)));
        assert!(dir.agent_caches(AgentId::TILE, pa(1)));
        assert_eq!(dir.owner(pa(1)), None); // degraded to Shared
    }

    #[test]
    fn getx_invalidates_sharers() {
        let mut dir = DirectoryMesi::table2();
        dir.request(AgentId::HOST_L1, pa(2), MesiReq::GetS);
        dir.request(AgentId::TILE, pa(2), MesiReq::GetS);
        let out = dir.request(AgentId::HOST_L1, pa(2), MesiReq::GetX);
        assert_eq!(out.invalidated, vec![AgentId::TILE]);
        assert_eq!(dir.owner(pa(2)), Some(AgentId::HOST_L1));
        assert!(!dir.agent_caches(AgentId::TILE, pa(2)));
    }

    #[test]
    fn getx_against_owner_forwards() {
        let mut dir = DirectoryMesi::table2();
        dir.request(AgentId::TILE, pa(3), MesiReq::GetX);
        let out = dir.request(AgentId::HOST_L1, pa(3), MesiReq::GetX);
        assert_eq!(out.forwarded_to, vec![AgentId::TILE]);
        assert_eq!(dir.owner(pa(3)), Some(AgentId::HOST_L1));
    }

    #[test]
    fn same_agent_upgrade_needs_no_messages() {
        let mut dir = DirectoryMesi::table2();
        dir.request(AgentId::TILE, pa(4), MesiReq::GetS); // E state
        let out = dir.request(AgentId::TILE, pa(4), MesiReq::GetX);
        assert!(out.forwarded_to.is_empty());
        assert!(out.invalidated.is_empty());
        assert_eq!(dir.owner(pa(4)), Some(AgentId::TILE));
    }

    #[test]
    fn eviction_notice_clears_sharer() {
        let mut dir = DirectoryMesi::table2();
        dir.request(AgentId::TILE, pa(5), MesiReq::GetX);
        dir.eviction_notice(AgentId::TILE, pa(5), true);
        assert!(!dir.agent_caches(AgentId::TILE, pa(5)));
        // Next host access needs no forward to the tile.
        let out = dir.request(AgentId::HOST_L1, pa(5), MesiReq::GetX);
        assert!(out.forwarded_to.is_empty());
        assert_eq!(dir.putx_count(), 1);
    }

    #[test]
    fn inclusion_recalls_on_l2_eviction() {
        // Tiny L2: 2 blocks, 1 way -> 2 sets.
        let mut dir = DirectoryMesi::new(CacheGeometry {
            capacity_bytes: 128,
            ways: 1,
            banks: 1,
            latency: 1,
        });
        dir.request(AgentId::TILE, pa(0), MesiReq::GetX); // set 0
        let out = dir.request(AgentId::HOST_L1, pa(2), MesiReq::GetS); // set 0 again
        assert_eq!(out.recalls.len(), 1);
        assert_eq!(out.recalls[0].1, AgentId::TILE);
        assert!(out.dirty_writeback);
    }

    #[test]
    fn sharer_list_filters_tile_forwards() {
        let mut dir = DirectoryMesi::table2();
        dir.request(AgentId::HOST_L1, pa(6), MesiReq::GetX);
        // Tile never cached pa(6): no forward is generated toward it.
        let out = dir.request(AgentId::HOST_L1, pa(6), MesiReq::GetX);
        assert!(out.forwarded_to.is_empty());
        assert!(!dir.agent_caches(AgentId::TILE, pa(6)));
    }

    #[test]
    fn shared_line_eviction_notice_keeps_other_sharers() {
        let mut dir = DirectoryMesi::table2();
        dir.request(AgentId::HOST_L1, pa(8), MesiReq::GetS);
        dir.request(AgentId::TILE, pa(8), MesiReq::GetS);
        dir.eviction_notice(AgentId::TILE, pa(8), false);
        assert!(dir.agent_caches(AgentId::HOST_L1, pa(8)));
        assert!(!dir.agent_caches(AgentId::TILE, pa(8)));
        // The remaining sharer's eviction empties the list.
        dir.eviction_notice(AgentId::HOST_L1, pa(8), false);
        assert!(!dir.agent_caches(AgentId::HOST_L1, pa(8)));
    }

    #[test]
    fn eviction_notice_for_untracked_block_is_benign() {
        let mut dir = DirectoryMesi::table2();
        dir.eviction_notice(AgentId::TILE, pa(9), true);
        assert_eq!(dir.putx_count(), 1);
        assert!(!dir.agent_caches(AgentId::TILE, pa(9)));
    }

    #[test]
    fn third_agent_participates() {
        // The directory tracks any number of agents (the model checker
        // explores N-agent configurations) and treats them uniformly.
        let tile2 = AgentId(2);
        let mut dir = DirectoryMesi::table2();
        dir.request(tile2, pa(10), MesiReq::GetX);
        assert_eq!(dir.owner(pa(10)), Some(tile2));
        let out = dir.request(AgentId::TILE, pa(10), MesiReq::GetX);
        assert_eq!(out.forwarded_to, vec![tile2]);
    }

    #[test]
    fn clean_checker_run_is_silent() {
        let mut dir = DirectoryMesi::table2();
        dir.enable_checker(None);
        dir.request(AgentId::HOST_L1, pa(20), MesiReq::GetS);
        dir.request(AgentId::TILE, pa(20), MesiReq::GetS);
        dir.request(AgentId::HOST_L1, pa(20), MesiReq::GetX);
        dir.eviction_notice(AgentId::HOST_L1, pa(20), true);
        assert_eq!(dir.checker_violation(), None);
    }

    #[test]
    fn checker_does_not_change_outcomes() {
        let mut plain = DirectoryMesi::table2();
        let mut checked = DirectoryMesi::table2();
        checked.enable_checker(None);
        for (agent, block, req) in [
            (AgentId::HOST_L1, 21, MesiReq::GetS),
            (AgentId::TILE, 21, MesiReq::GetX),
            (AgentId::HOST_L1, 22, MesiReq::GetX),
            (AgentId::TILE, 22, MesiReq::GetS),
        ] {
            assert_eq!(
                plain.request(agent, pa(block), req),
                checked.request(agent, pa(block), req)
            );
        }
    }

    #[test]
    fn planted_empty_sharer_list_is_caught() {
        let mut dir = DirectoryMesi::table2();
        dir.enable_checker(Some(ProtocolFault {
            at_event: 1,
            kind: ProtocolFaultKind::EmptySharerList,
        }));
        dir.request(AgentId::HOST_L1, pa(23), MesiReq::GetS);
        assert_eq!(dir.checker_violation(), None, "fault not planted yet");
        dir.request(AgentId::TILE, pa(23), MesiReq::GetS);
        let v = dir.checker_violation().expect("empty list must be flagged");
        assert_eq!(v.protocol, "MESI");
        assert_eq!(v.rule, "nonempty-sharers");
    }

    #[test]
    fn planted_wrong_owner_is_caught() {
        let mut dir = DirectoryMesi::table2();
        dir.enable_checker(Some(ProtocolFault {
            at_event: 0,
            kind: ProtocolFaultKind::WrongOwner,
        }));
        dir.request(AgentId::TILE, pa(24), MesiReq::GetX);
        let v = dir
            .checker_violation()
            .expect("wrong owner must be flagged");
        assert_eq!(v.protocol, "MESI");
        assert_eq!(v.rule, "getx-ownership");
    }

    #[test]
    fn stats_accumulate() {
        let mut dir = DirectoryMesi::table2();
        dir.request(AgentId::HOST_L1, pa(7), MesiReq::GetS);
        dir.request(AgentId::TILE, pa(7), MesiReq::GetS);
        dir.request(AgentId::HOST_L1, pa(7), MesiReq::GetX);
        assert_eq!(dir.gets_count(), 2);
        assert_eq!(dir.getx_count(), 1);
        assert_eq!(dir.forwards_sent(), 1);
        assert_eq!(dir.invalidations_sent(), 1);
    }
}
