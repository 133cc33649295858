// Fixture: panicking extractors in non-test library code.
pub fn parse_pair(s: &str) -> (u64, u64) {
    let (a, b) = s.split_once(',').unwrap();
    let a = a.parse::<u64>().unwrap();
    let b = b.parse::<u64>().expect("numeric rhs");
    (a, b)
}

// A stale exception: nothing below unwraps, so the expectation is
// unfulfilled and rustc reports it, as a stale allowlist entry failed.
#[expect(clippy::unwrap_used, reason = "nothing here unwraps any more")]
pub fn parse_one(s: &str) -> Option<u64> {
    s.parse().ok()
}
