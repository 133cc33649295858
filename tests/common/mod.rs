//! Shared test utilities: a small deterministic PRNG replacing the
//! `proptest` dependency (the build must work with no network access, so
//! the property tests drive the same random exploration from a seeded
//! splitmix64 generator instead).
//!
//! The generator's own test lives in `engine_props.rs`, so it runs once
//! rather than in every binary that declares `mod common`.

#![allow(dead_code)] // each integration-test binary uses a subset
#![allow(
    clippy::cast_possible_truncation,
    reason = "each range_* draw is below its upper bound, so it fits the bound's type"
)]

use fusion_core::journal::{self, JournalHeader};
use fusion_types::SplitMix64;

/// Deterministic generator: the workspace's [`SplitMix64`] with
/// range helpers.
pub struct Rng(SplitMix64);

impl Rng {
    /// Creates a generator from a fixed seed; the same seed always yields
    /// the same sequence, so failures are reproducible.
    pub fn new(seed: u64) -> Rng {
        Rng(SplitMix64(seed.wrapping_add(0x9e37_79b9_7f4a_7c15)))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range_u64(lo as u64, hi as u64) as u32
    }

    /// Uniform `u16` in `[lo, hi)`.
    pub fn range_u16(&mut self, lo: u16, hi: u16) -> u16 {
        self.range_u64(lo as u64, hi as u64) as u16
    }

    /// Uniform `u8` in `[lo, hi)`.
    pub fn range_u8(&mut self, lo: u8, hi: u8) -> u8 {
        self.range_u64(lo as u64, hi as u64) as u8
    }

    /// Fair coin flip.
    pub fn chance(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Random ASCII identifier of length `[1, max_len]` drawn from
    /// `charset`.
    pub fn ident(&mut self, charset: &[u8], max_len: usize) -> String {
        let len = self.range_usize(1, max_len + 1);
        (0..len)
            .map(|_| charset[self.range_usize(0, charset.len())] as char)
            .collect()
    }
}

/// The header of a `Scale::Tiny` journal over a `grid`-point sweep.
pub fn wal_header(grid: usize) -> JournalHeader {
    JournalHeader {
        scale: "tiny".to_string(),
        code_version: journal::code_version(),
        grid,
    }
}

/// The grid indices of a one-worker sweep's outcomes, grouped as the
/// worker claimed and published them: each group's first member (in grid
/// order), then the members whose results were copied from it.
pub fn claim_groups(outcomes: &[fusion_core::SweepOutcome]) -> Vec<Vec<usize>> {
    use fusion_core::{observed_config, MemoMark, SweepOutcome};
    let key = |o: &SweepOutcome| {
        (
            o.job.system,
            o.job.suite,
            observed_config(o.job.system, &o.job.config),
        )
    };
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, o) in outcomes.iter().enumerate() {
        let leader = (o.memo.mark == MemoMark::Hit)
            .then(|| groups.iter_mut().find(|g| key(&outcomes[g[0]]) == key(o)))
            .flatten();
        match leader {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}
