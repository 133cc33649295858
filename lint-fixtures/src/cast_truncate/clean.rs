// Fixture: the sanctioned narrowing shapes — saturating conversions,
// widening casts, same-width casts, and a reasoned expectation.
pub fn wall_ms(millis: u128) -> u64 {
    u64::try_from(millis).unwrap_or(u64::MAX)
}

pub fn widen(n: u32) -> u64 {
    n as u64
}

pub fn tag(v: &[u8]) -> u64 {
    v.len() as u64
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "mlp is bounded by MAX_MLP < 256"
)]
pub fn mlp_code(mlp: u64) -> u16 {
    mlp as u16
}
