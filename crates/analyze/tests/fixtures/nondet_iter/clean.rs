// Fixture: every sanctioned consumption of Fx iteration order —
// reductions, collect-then-sort, keyed re-collection, and the sorted
// snapshot helpers.
fn digest(m: FxHashMap<u64, u64>) -> u64 {
    let total: u64 = m.values().sum();
    let mut ks: Vec<u64> = m.keys().copied().collect();
    ks.sort_unstable();
    let dedup: FxHashSet<u64> = m.values().copied().collect();
    let ordered = fusion_types::sorted_entries(&m);
    total + ks.len() as u64 + dedup.len() as u64 + ordered.len() as u64
}
