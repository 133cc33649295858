// Fixture: the sanctioned deterministic containers, plus a test module
// that opts out with a reason.
use fusion_types::{FxHashMap, FxHashSet};

pub fn counts(xs: &[u64]) -> FxHashMap<u64, u32> {
    let mut m = FxHashMap::default();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let _doc = "std::collections::HashMap"; // string literal, not a path
    for &x in xs {
        seen.insert(x);
        *m.entry(x).or_insert(0) += 1;
    }
    m
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test-only scaffolding may use std maps"
)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn std_ok_in_tests() {
        let mut m = HashMap::new();
        m.insert(1u64, 2u64);
        assert_eq!(m.len(), 1);
    }
}
