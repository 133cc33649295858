//! Abstract ACC tile model for exhaustive exploration.
//!
//! The model drives the *same* pure transition functions the timing
//! simulator uses ([`fusion_coherence::transition`]) over a small,
//! bounded configuration: N agents, K blocks, a clock that runs from 0 to
//! a `horizon`, and a fixed set of lease quanta. Everything the timing
//! layer adds on top — latencies, stats, fill gates, capacity victims — is
//! abstracted away: a host fill is atomic, messages are free, and the
//! only time that passes is the explicit `tick` action. What remains is
//! exactly the protocol state the invariants speak about: L1X metadata
//! (GTIME, write locks, writeback horizons) and per-agent L0X copies
//! (lease interval, write/dirty bits).
//!
//! Soundness caveats (see DESIGN.md §11): exploration is bounded by the
//! clock horizon and by a value bound `horizon + max_lease + 2` on every
//! timestamp (same-cycle grant chains can otherwise push GTIME forever);
//! L1X capacity eviction is not modeled (the host-forward action covers
//! the invalidate-while-leases-live hazard the refetch barrier exists
//! for); and the checked configurations are small (the standard
//! small-scope argument for protocol bugs).

use std::fmt;

use fusion_coherence::acc::L1Meta;
use fusion_coherence::transition::{
    acc_fill_meta, acc_forward, acc_grant, acc_host_release, acc_release_lease,
    acc_truncate_write_epoch, acc_writeback, GrantMode,
};
use fusion_types::fault::{ProtocolFault, ProtocolFaultKind};
use fusion_types::{AxcId, Cycle};

use crate::explore::{Model, Violation};

/// Block-to-block data transfer cost inside the model (cycles). Kept at 1
/// so writeback horizons and post-lock stalls stay distinguishable from
/// zero-latency events without inflating the clock range.
const DATA_CYCLES: u64 = 1;

/// Configuration of the abstract tile.
#[derive(Debug, Clone)]
pub struct AccModelConfig {
    /// Number of L0X agents (2–3 is exhaustive territory).
    pub agents: usize,
    /// Number of distinct blocks (1–2).
    pub blocks: usize,
    /// Clock horizon: `tick` stops at this value.
    pub horizon: u64,
    /// Lease quanta an access may request.
    pub leases: Vec<u32>,
    /// Enable the data-free lease-renewal extension.
    pub renewal: bool,
    /// Enable FUSION-Dx write forwarding (agent 0 → agent 1 on block 0,
    /// consumer lease = smallest configured lease).
    pub forwarding: bool,
    /// Plant a protocol fault at the `at_event`-th epoch grant.
    pub fault: Option<ProtocolFault>,
}

impl AccModelConfig {
    /// The default small configuration: 2 agents, 1 block, leases {1,2}.
    /// Single-block is where the lease/epoch machinery lives (forwarding
    /// is single-block by construction), so this is the config the
    /// protocol variants explore with both lease quanta.
    pub fn small() -> Self {
        AccModelConfig {
            agents: 2,
            blocks: 1,
            horizon: 3,
            leases: vec![1, 2],
            renewal: false,
            forwarding: false,
            fault: None,
        }
    }

    /// The cross-block configuration: 2 agents, 2 blocks, one lease
    /// quantum. Blocks only couple through the shared clock and the
    /// multi-block downgrade sweep, so the joint space is near the
    /// product of the per-block spaces — a single quantum keeps it
    /// closable.
    pub fn two_block() -> Self {
        AccModelConfig {
            blocks: 2,
            leases: vec![1],
            ..AccModelConfig::small()
        }
    }

    fn max_lease(&self) -> u64 {
        self.leases.iter().copied().max().unwrap_or(1) as u64
    }

    /// Upper bound on every timestamp in a reachable state; successors
    /// exceeding it are pruned (bounded-horizon exploration). The slack
    /// covers the writeback/forward data transfer past the last tick.
    fn value_bound(&self) -> Cycle {
        Cycle::new(self.horizon + self.max_lease() + DATA_CYCLES)
    }

    fn forward_consumer_lease(&self) -> u32 {
        self.leases.iter().copied().min().unwrap_or(1)
    }
}

/// One agent's L0X copy of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct L0Copy {
    lease_end: Cycle,
    write_lease: bool,
    dirty: bool,
    acquired: Cycle,
}

/// One L1X line: protocol metadata + the data-dirty bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct L1Line {
    meta: L1Meta,
    dirty: bool,
}

/// Full abstract tile state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AccState {
    now: Cycle,
    /// Per-block L1X line.
    l1: Vec<Option<L1Line>>,
    /// Agent-major `[agent * blocks + block]` L0X copies.
    l0: Vec<Option<L0Copy>>,
    /// Per-block refill barrier after a host forward: the tile may not
    /// refetch the block before the PUTX release time (MESI serializes the
    /// PUTX before the next GetX can be answered).
    refetch_after: Vec<Cycle>,
    /// Shadow (non-hardware) state: the live write epoch's granted start
    /// and writer, for the interval-exclusivity invariant.
    epoch: Vec<Option<(Cycle, AxcId)>>,
    /// Grant events seen, capped just past the planted fault's trigger
    /// (stays 0 when no fault is configured, so it never splits states).
    events: u64,
}

/// One protocol event of the abstract tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccAction {
    /// Advance the tile clock by one cycle.
    Tick,
    /// One load/store by `agent` on `block` requesting `lease`.
    Access {
        /// Requesting agent.
        agent: u16,
        /// Target block.
        block: usize,
        /// Store (write epoch) vs load.
        write: bool,
        /// Requested lease quantum.
        lease: u32,
    },
    /// Phase-end self-downgrade of every line `agent` holds.
    Downgrade {
        /// The agent whose invocation completed.
        agent: u16,
    },
    /// A forwarded host MESI request for `block` (the tile relinquishes
    /// the line under the GTIME rule).
    HostForward {
        /// Target block.
        block: usize,
    },
}

impl fmt::Display for AccAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccAction::Tick => write!(f, "tick"),
            AccAction::Access {
                agent,
                block,
                write,
                lease,
            } => write!(
                f,
                "A{agent}.{}(b{block}, lease={lease})",
                if *write { "store" } else { "load" }
            ),
            AccAction::Downgrade { agent } => write!(f, "A{agent}.downgrade"),
            AccAction::HostForward { block } => write!(f, "host_forward(b{block})"),
        }
    }
}

/// Every permutation of `0..n` (new index -> old index), for the tiny
/// `n` the models use; identity only beyond 3.
fn index_permutations(n: usize) -> Vec<Vec<usize>> {
    match n {
        0 | 1 => vec![(0..n).collect()],
        2 => vec![vec![0, 1], vec![1, 0]],
        3 => vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ],
        _ => vec![(0..n).collect()],
    }
}

/// Inverts a permutation: `invert(p)[p[i]] == i`.
fn invert(p: &[usize]) -> Vec<usize> {
    let mut inv = vec![0; p.len()];
    for (new, &old) in p.iter().enumerate() {
        inv[old] = new;
    }
    inv
}

/// The ACC model: drives [`fusion_coherence::transition`] over
/// [`AccState`].
pub struct AccModel {
    cfg: AccModelConfig,
}

impl AccModel {
    /// Builds a model for `cfg`.
    pub fn new(cfg: AccModelConfig) -> Self {
        AccModel { cfg }
    }

    fn slot(&self, agent: AxcId, block: usize) -> usize {
        agent.index() * self.cfg.blocks + block
    }

    /// Counts a grant event and applies the planted fault when it fires.
    fn after_grant(&self, st: &mut AccState, agent: AxcId, block: usize) {
        let Some(fault) = self.cfg.fault else {
            return;
        };
        let fired = st.events == fault.at_event;
        st.events = st.events.saturating_add(1).min(fault.at_event + 1);
        if !fired {
            return;
        }
        match fault.kind {
            ProtocolFaultKind::LeaseOverrun => {
                // Extend the granted copy past the L1X's lease horizon.
                if let (Some(copy), Some(line)) = (
                    st.l0[self.slot(agent, block)].as_mut(),
                    st.l1[block].as_ref(),
                ) {
                    copy.lease_end = line.meta.gtime + 1;
                }
            }
            ProtocolFaultKind::GtimeRegression => {
                if let Some(line) = st.l1[block].as_mut() {
                    line.meta.gtime = Cycle::ZERO;
                }
            }
            // MESI faults are planted in the directory model.
            ProtocolFaultKind::EmptySharerList | ProtocolFaultKind::WrongOwner => {}
        }
    }

    /// Mirrors `AccTile::writeback`: forward under FUSION-Dx at a
    /// self-downgrade, otherwise land the data at the L1X.
    fn writeback(&self, st: &mut AccState, agent: AxcId, block: usize, at: Cycle, downgrade: bool) {
        if self.cfg.forwarding && downgrade && block == 0 && agent == AxcId::new(0) {
            // Forwarding needs the resident L1X line to fold the
            // consumer's lease into GTIME; when the host holds the block
            // the writeback continues to the L2 like the base protocol.
            if let Some(line) = st.l1[block].as_mut() {
                let lease_end = at + DATA_CYCLES + self.cfg.forward_consumer_lease() as u64;
                line.meta = acc_forward(line.meta, agent, AxcId::new(1), lease_end);
                st.epoch[block] = None; // the write lock moved with the data
                st.l0[self.slot(AxcId::new(1), block)] = Some(L0Copy {
                    lease_end,
                    write_lease: true,
                    dirty: true,
                    acquired: at,
                });
                return;
            }
        }
        let wb_ready = at + DATA_CYCLES;
        if let Some(line) = st.l1[block].as_mut() {
            line.dirty = true;
            line.meta = acc_writeback(line.meta, agent, at, wb_ready);
        }
        // Absent line: the writeback continues to the host L2 (no tile
        // state changes).
    }

    /// Epoch request after an L0X miss: grant from the L1X, filling from
    /// the host first when the line is absent (gated by the refill
    /// barrier).
    fn request_epoch(
        &self,
        mut st: AccState,
        agent: AxcId,
        block: usize,
        write: bool,
        lease: u32,
    ) -> Option<AccState> {
        let now = st.now;
        if st.l1[block].is_none() {
            if now < st.refetch_after[block] {
                return None; // PUTX not yet released: the fill must wait
            }
            st.l1[block] = Some(L1Line {
                meta: acc_fill_meta(now, false),
                dirty: write,
            });
        }
        let line = st.l1[block].as_mut()?;
        let grant = acc_grant(
            line.meta,
            agent,
            write,
            now,
            lease,
            DATA_CYCLES,
            GrantMode::Fresh,
        );
        line.meta = grant.meta;
        if write {
            st.epoch[block] = Some((grant.start, agent));
        }
        st.l0[self.slot(agent, block)] = Some(L0Copy {
            lease_end: grant.lease_end,
            write_lease: write,
            dirty: write,
            acquired: grant.start,
        });
        self.after_grant(&mut st, agent, block);
        Some(st)
    }

    /// Data-free renewal of an expired-but-current copy.
    fn renew(
        &self,
        mut st: AccState,
        agent: AxcId,
        block: usize,
        write: bool,
        lease: u32,
        was_dirty: bool,
    ) -> Option<AccState> {
        let line = st.l1[block].as_mut()?;
        let grant = acc_grant(
            line.meta,
            agent,
            write,
            st.now,
            lease,
            DATA_CYCLES,
            GrantMode::Renewal,
        );
        line.meta = grant.meta;
        if write {
            st.epoch[block] = Some((grant.start, agent));
        }
        st.l0[self.slot(agent, block)] = Some(L0Copy {
            lease_end: grant.lease_end,
            write_lease: write || was_dirty,
            dirty: was_dirty || write,
            acquired: grant.start,
        });
        self.after_grant(&mut st, agent, block);
        Some(st)
    }

    fn apply_access(
        &self,
        s: &AccState,
        agent: AxcId,
        block: usize,
        write: bool,
        lease: u32,
    ) -> Option<AccState> {
        let mut st = s.clone();
        let now = st.now;
        let slot = self.slot(agent, block);
        if let Some(copy) = st.l0[slot] {
            if copy.lease_end >= now {
                if !write || copy.write_lease {
                    // L0 hit: only the dirty bit can change.
                    if write {
                        st.l0[slot] = Some(L0Copy {
                            dirty: true,
                            ..copy
                        });
                    }
                    return Some(self.canonical(st));
                }
                // Write upgrade of a read lease: new epoch request; the
                // grant overwrites the copy in place.
                return self
                    .request_epoch(st, agent, block, write, lease)
                    .map(|st| self.canonical(st));
            }
            // Lease expired: renew if provably current, else invalidate
            // (writing back dirty data) and refetch.
            let renewable = self.cfg.renewal
                && st.l1[block].is_some_and(|l| copy.dirty || l.meta.last_write <= copy.acquired);
            if renewable {
                return self
                    .renew(st, agent, block, write, lease, copy.dirty)
                    .map(|st| self.canonical(st));
            }
            st.l0[slot] = None;
            if copy.dirty {
                self.writeback(&mut st, agent, block, now, false);
            }
        }
        self.request_epoch(st, agent, block, write, lease)
            .map(|st| self.canonical(st))
    }

    fn apply_downgrade(&self, s: &AccState, agent: AxcId) -> AccState {
        let mut st = s.clone();
        let now = st.now;
        // Dirty sweep: truncate the write epoch, then write back (or
        // forward, under FUSION-Dx).
        for block in 0..self.cfg.blocks {
            let slot = self.slot(agent, block);
            let Some(copy) = st.l0[slot] else { continue };
            if !copy.dirty {
                continue;
            }
            st.l0[slot] = Some(L0Copy {
                dirty: false,
                write_lease: false,
                ..copy
            });
            if let Some(line) = st.l1[block].as_mut() {
                line.meta = acc_truncate_write_epoch(line.meta, agent, now);
            }
            self.writeback(&mut st, agent, block, now, true);
        }
        // Early release of every still-live lease this agent holds.
        for block in 0..self.cfg.blocks {
            let slot = self.slot(agent, block);
            let Some(copy) = st.l0[slot] else { continue };
            if copy.lease_end <= now {
                continue;
            }
            st.l0[slot] = Some(L0Copy {
                lease_end: now,
                write_lease: false,
                ..copy
            });
            if let Some(line) = st.l1[block].as_mut() {
                line.meta = acc_release_lease(line.meta, agent, now);
            }
        }
        self.canonical(st)
    }

    fn apply_host_forward(&self, s: &AccState, block: usize) -> Option<AccState> {
        let line = s.l1[block]?;
        let mut st = s.clone();
        let rel = acc_host_release(&line.meta, line.dirty, st.now, DATA_CYCLES);
        // L0 dirty data is collected with the response; the copies stay
        // resident and self-invalidate at lease end.
        for agent in 0..self.cfg.agents {
            let slot = agent * self.cfg.blocks + block;
            if let Some(copy) = st.l0[slot].as_mut() {
                copy.dirty = false;
            }
        }
        st.l1[block] = None;
        st.epoch[block] = None;
        st.refetch_after[block] = rel.release_at;
        Some(self.canonical(st))
    }

    /// Behavior-preserving state canonicalization, so equivalent states
    /// dedup: stale writeback horizons are dropped (the data has landed
    /// and the line is already dirty), `last_write` is scrubbed when the
    /// renewal extension is off (nothing reads it), and expired clean
    /// copies are dropped in non-renewal mode (a miss treats them exactly
    /// like an absent line).
    fn canonical(&self, mut st: AccState) -> AccState {
        let now = st.now;
        for line in st.l1.iter_mut().flatten() {
            if line.meta.wb_ready_at.is_some_and(|wb| wb < now) {
                line.meta.wb_ready_at = None;
            }
            if !self.cfg.renewal {
                line.meta.last_write = Cycle::ZERO;
            }
            // A dead lease horizon (GTIME in the past) can never stall,
            // wait, or clear anything again — every consumer compares it
            // against times >= now — and sole-holder is unreadable before
            // the next grant's stale-clear resets it. Normalizing both
            // collapses the expired tails of otherwise-distinct histories.
            // (Dead write locks are NOT normalized: the epoch-exclusivity
            // invariant still reads their exact end.)
            if line.meta.gtime < now {
                line.meta.gtime = Cycle::ZERO;
                line.meta.sole_holder = None;
            }
        }
        if !self.cfg.renewal {
            for copy in st.l0.iter_mut() {
                if copy.is_some_and(|c| c.lease_end < now && !c.dirty) {
                    *copy = None;
                }
            }
        }
        // An elapsed refill barrier never gates anything again.
        for barrier in st.refetch_after.iter_mut() {
            if *barrier <= now {
                *barrier = Cycle::ZERO;
            }
        }
        // Murphi-style symmetry reduction: with forwarding off and no
        // planted fault, every transition rule and invariant is blind to
        // agent and block identity, so states related by an index
        // permutation are bisimilar — keep only the lexicographically
        // smallest representative of each orbit. (Forwarding pins
        // A0 -> A1 on block 0 and fault planting addresses `agent ^ 1`,
        // so both break the automorphism and disable the reduction.)
        if self.cfg.fault.is_none() && !self.cfg.forwarding {
            self.reduce_symmetry(&mut st);
        }
        st
    }

    /// Rewrites `st` to the minimal representative of its symmetry orbit
    /// under agent and block permutations.
    fn reduce_symmetry(&self, st: &mut AccState) {
        let aperms = index_permutations(self.cfg.agents);
        let bperms = index_permutations(self.cfg.blocks);
        if aperms.len() <= 1 && bperms.len() <= 1 {
            return;
        }
        let mut best_key = Vec::new();
        let mut key = Vec::new();
        let mut best: Option<(&[usize], &[usize])> = None;
        for pa in &aperms {
            for pb in &bperms {
                self.encode_permuted(st, pa, pb, &mut key);
                if best.is_none() || key < best_key {
                    std::mem::swap(&mut best_key, &mut key);
                    best = Some((pa, pb));
                }
            }
        }
        if let Some((pa, pb)) = best {
            let identity = pa.iter().enumerate().all(|(i, &o)| i == o)
                && pb.iter().enumerate().all(|(i, &o)| i == o);
            if !identity {
                *st = self.permuted(st, pa, pb);
            }
        }
    }

    /// Encodes the state as seen through the permutation (`pa`/`pb` map
    /// new index -> old index) into a flat `u64` key for orbit comparison.
    fn encode_permuted(&self, st: &AccState, pa: &[usize], pb: &[usize], out: &mut Vec<u64>) {
        let inv = invert(pa);
        let agent = |a: AxcId| inv[a.index()] as u64;
        let opt_cycle = |c: Option<Cycle>| c.map_or(u64::MAX, |c| c.value());
        out.clear();
        for &ob in pb {
            match &st.l1[ob] {
                None => out.push(u64::MAX),
                Some(line) => {
                    out.push(line.meta.gtime.value());
                    out.push(opt_cycle(line.meta.write_locked_until));
                    out.push(line.meta.writer.map_or(u64::MAX, agent));
                    out.push(opt_cycle(line.meta.wb_ready_at));
                    out.push(line.meta.sole_holder.map_or(u64::MAX, agent));
                    out.push(line.meta.last_write.value());
                    out.push(u64::from(line.meta.prefetched) << 1 | u64::from(line.dirty));
                }
            }
            out.push(st.refetch_after[ob].value());
            match st.epoch[ob] {
                None => out.push(u64::MAX),
                Some((start, writer)) => {
                    out.push(start.value());
                    out.push(agent(writer));
                }
            }
        }
        for &oa in pa {
            for &ob in pb {
                match &st.l0[oa * self.cfg.blocks + ob] {
                    None => out.push(u64::MAX),
                    Some(copy) => {
                        out.push(copy.lease_end.value());
                        out.push(copy.acquired.value());
                        out.push(u64::from(copy.write_lease) << 1 | u64::from(copy.dirty));
                    }
                }
            }
        }
    }

    /// Builds the state permuted by `pa`/`pb` (new index -> old index),
    /// renaming agent ids embedded in the metadata accordingly.
    fn permuted(&self, st: &AccState, pa: &[usize], pb: &[usize]) -> AccState {
        let inv = invert(pa);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a permutation of the model's few agents, which are u16 ids"
        )]
        let rename = |a: AxcId| AxcId::new(inv[a.index()] as u16);
        AccState {
            now: st.now,
            l1: pb
                .iter()
                .map(|&ob| {
                    st.l1[ob].map(|mut line| {
                        line.meta.writer = line.meta.writer.map(rename);
                        line.meta.sole_holder = line.meta.sole_holder.map(rename);
                        line
                    })
                })
                .collect(),
            l0: pa
                .iter()
                .flat_map(|&oa| pb.iter().map(move |&ob| st.l0[oa * self.cfg.blocks + ob]))
                .collect(),
            refetch_after: pb.iter().map(|&ob| st.refetch_after[ob]).collect(),
            epoch: pb
                .iter()
                .map(|&ob| st.epoch[ob].map(|(start, writer)| (start, rename(writer))))
                .collect(),
            events: st.events,
        }
    }

    fn exceeds_bound(&self, st: &AccState) -> bool {
        let bound = self.cfg.value_bound();
        let mut max = st.now;
        for line in st.l1.iter().flatten() {
            max = max.max(line.meta.gtime).max(line.meta.last_write);
            if let Some(t) = line.meta.write_locked_until {
                max = max.max(t);
            }
            if let Some(t) = line.meta.wb_ready_at {
                max = max.max(t);
            }
        }
        for copy in st.l0.iter().flatten() {
            max = max.max(copy.lease_end).max(copy.acquired);
        }
        for &t in &st.refetch_after {
            max = max.max(t);
        }
        max > bound
    }
}

impl Model for AccModel {
    type State = AccState;
    type Action = AccAction;

    fn initial(&self) -> AccState {
        AccState {
            now: Cycle::ZERO,
            l1: vec![None; self.cfg.blocks],
            l0: vec![None; self.cfg.agents * self.cfg.blocks],
            refetch_after: vec![Cycle::ZERO; self.cfg.blocks],
            epoch: vec![None; self.cfg.blocks],
            events: 0,
        }
    }

    fn actions(&self, _state: &AccState, out: &mut Vec<AccAction>) {
        out.push(AccAction::Tick);
        // Checked: agent counts are tiny model parameters, but a wrap
        // here would silently shrink the explored action space.
        for agent in 0..u16::try_from(self.cfg.agents).unwrap_or(u16::MAX) {
            for block in 0..self.cfg.blocks {
                for &lease in &self.cfg.leases {
                    for write in [false, true] {
                        out.push(AccAction::Access {
                            agent,
                            block,
                            write,
                            lease,
                        });
                    }
                }
            }
            out.push(AccAction::Downgrade { agent });
        }
        for block in 0..self.cfg.blocks {
            out.push(AccAction::HostForward { block });
        }
    }

    fn apply(&self, state: &AccState, action: &AccAction) -> Option<AccState> {
        let next = match *action {
            AccAction::Tick => {
                if state.now.value() >= self.cfg.horizon {
                    return None;
                }
                let mut st = state.clone();
                st.now += 1;
                Some(self.canonical(st))
            }
            AccAction::Access {
                agent,
                block,
                write,
                lease,
            } => self.apply_access(state, AxcId::new(agent), block, write, lease),
            AccAction::Downgrade { agent } => Some(self.apply_downgrade(state, AxcId::new(agent))),
            AccAction::HostForward { block } => self.apply_host_forward(state, block),
        }?;
        if next == *state || self.exceeds_bound(&next) {
            return None; // self-loops and out-of-bound states are pruned
        }
        Some(next)
    }

    fn check(&self, st: &AccState) -> Option<Violation> {
        let now = st.now;
        for block in 0..self.cfg.blocks {
            let Some(line) = st.l1[block] else { continue };
            let meta = line.meta;
            // A write-locked line must name its writer.
            if meta.write_locked_until.is_some() && meta.writer.is_none() {
                return Some(Violation {
                    protocol: "ACC",
                    rule: "write-lock-writer",
                    detail: format!("b{block} is write-locked with no writer recorded"),
                });
            }
            for agent in 0..self.cfg.agents {
                let Some(copy) = st.l0[agent * self.cfg.blocks + block] else {
                    continue;
                };
                // Lease containment: every live L0 lease is covered by
                // GTIME, or a host forward could release the line while an
                // L0X still considers its copy valid.
                if copy.lease_end >= now && copy.lease_end > meta.gtime {
                    return Some(Violation {
                        protocol: "ACC",
                        rule: "lease-containment",
                        detail: format!(
                            "b{block}: A{agent} lease_end {} exceeds L1X gtime {}",
                            copy.lease_end, meta.gtime
                        ),
                    });
                }
            }
            // Write-epoch exclusivity (SWMR): no other agent's lease
            // interval may overlap the live write epoch [start, lock_end].
            if let (Some(lock_end), Some(writer), Some((start, shadow_writer))) =
                (meta.write_locked_until, meta.writer, st.epoch[block])
            {
                if writer == shadow_writer {
                    for agent in 0..self.cfg.agents {
                        if agent == writer.index() {
                            continue;
                        }
                        let Some(copy) = st.l0[agent * self.cfg.blocks + block] else {
                            continue;
                        };
                        if copy.acquired < lock_end && start < copy.lease_end {
                            return Some(Violation {
                                protocol: "ACC",
                                rule: "write-epoch-exclusivity",
                                detail: format!(
                                    "b{block}: A{agent} lease [{}, {}] overlaps write epoch \
                                     [{}, {}] of A{}",
                                    copy.acquired,
                                    copy.lease_end,
                                    start,
                                    lock_end,
                                    writer.index()
                                ),
                            });
                        }
                    }
                }
            }
        }
        None
    }

    fn is_terminal(&self, st: &AccState) -> bool {
        // Below the horizon `tick` is always enabled, so a deadlock can
        // only be reported there — which is exactly the claim: every
        // pre-horizon state admits progress.
        st.now.value() >= self.cfg.horizon
    }

    fn render(&self, st: &AccState) -> Vec<(String, String)> {
        let mut out = vec![("now".to_string(), st.now.value().to_string())];
        for (block, line) in st.l1.iter().enumerate() {
            let value = match line {
                None => {
                    let barrier = st.refetch_after[block];
                    if barrier > st.now {
                        format!("- (refetch@{barrier})")
                    } else {
                        "-".to_string()
                    }
                }
                Some(l) => {
                    let mut v = format!("gtime={}", l.meta.gtime.value());
                    if let (Some(t), Some(w)) = (l.meta.write_locked_until, l.meta.writer) {
                        v.push_str(&format!(" lock={}@A{}", t.value(), w.index()));
                    }
                    if let Some(t) = l.meta.wb_ready_at {
                        v.push_str(&format!(" wb={}", t.value()));
                    }
                    if let Some(a) = l.meta.sole_holder {
                        v.push_str(&format!(" sole=A{}", a.index()));
                    }
                    if l.dirty {
                        v.push_str(" dirty");
                    }
                    v
                }
            };
            out.push((format!("l1[b{block}]"), value));
        }
        for agent in 0..self.cfg.agents {
            for block in 0..self.cfg.blocks {
                let value = match st.l0[agent * self.cfg.blocks + block] {
                    None => "-".to_string(),
                    Some(c) => format!(
                        "[{}, {}]{}{}",
                        c.acquired.value(),
                        c.lease_end.value(),
                        if c.write_lease { " W" } else { "" },
                        if c.dirty { " dirty" } else { "" }
                    ),
                };
                out.push((format!("l0[A{agent}, b{block}]"), value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;

    #[test]
    fn tiny_config_verifies_clean() {
        let model = AccModel::new(AccModelConfig {
            agents: 2,
            blocks: 1,
            horizon: 3,
            leases: vec![1],
            renewal: false,
            forwarding: false,
            fault: None,
        });
        let exp = explore(&model, 5_000_000);
        assert!(exp.complete, "state space must close");
        assert!(
            exp.violation.is_none(),
            "clean protocol must verify: {:?}",
            exp.violation
        );
        assert!(exp.states > 100, "exploration is non-trivial");
    }

    #[test]
    fn planted_lease_overrun_yields_counterexample() {
        let model = AccModel::new(AccModelConfig {
            agents: 2,
            blocks: 1,
            horizon: 3,
            leases: vec![1],
            renewal: false,
            forwarding: false,
            fault: Some(ProtocolFault {
                at_event: 0,
                kind: ProtocolFaultKind::LeaseOverrun,
            }),
        });
        let exp = explore(&model, 5_000_000);
        let ce = exp.violation.expect("overrun must be found");
        assert_eq!(ce.violation.rule, "lease-containment");
        assert!(!ce.steps.is_empty());
    }
}
