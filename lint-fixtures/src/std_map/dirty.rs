// Fixture: std hash containers in library code (nondeterministic
// iteration order, SipHash cost).
use std::collections::HashMap;
use std::collections::{BTreeMap, HashSet};

pub fn counts(xs: &[u64]) -> HashMap<u64, u32> {
    let mut m = HashMap::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let ordered: BTreeMap<u64, u64> = BTreeMap::new();
    for &x in xs {
        seen.insert(x);
        *m.entry(x).or_insert(0) += 1;
    }
    drop(ordered);
    m
}
