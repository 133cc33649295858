//! One module per determinism rule (DESIGN.md §14): `dirty.rs` holds the
//! patterns the rule rejects, `clean.rs` the sanctioned forms. Clippy,
//! configured by the root `clippy.toml`, must flag every line listed in
//! `expected.txt` and nothing else; `scripts/lint_fixtures.sh` checks it.

/// Fx maps only: std's SipHash maps iterate in a per-process order.
pub mod std_map {
    pub mod clean;
    pub mod dirty;
}

/// No order-dependent hash iteration.
pub mod nondet_iter {
    pub mod clean;
    pub mod dirty;
}

/// No unwrap or expect in library code.
pub mod unwrap {
    pub mod clean;
    pub mod dirty;
}

/// No wall-clock reads.
pub mod wall_clock {
    pub mod clean;
    pub mod dirty;
}

/// Checked narrowing.
pub mod cast_truncate {
    pub mod clean;
    pub mod dirty;
}
