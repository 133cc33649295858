// Fixture: the sanctioned ways to consume an Fx container: order-free
// queries, the sorted snapshot helpers, and a reasoned expectation for
// an order-insensitive reduction.
use fusion_types::{sorted_entries, sorted_keys, FxHashMap, FxHashSet};

pub fn digest(m: &FxHashMap<u64, u64>) -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum does not depend on iteration order"
    )]
    let total: u64 = m.values().sum();
    let ordered = sorted_entries(m);
    let dedup: FxHashSet<u64> = ordered.iter().map(|&(_, v)| v).collect();
    let ks = sorted_keys(&dedup);
    let has_zero = u64::from(m.contains_key(&0));
    total + ordered.len() as u64 + ks.len() as u64 + has_zero
}
