use fusion_types::FxHashMap; // Fixture: Fx iteration feeding ordered output.
pub fn render(m: FxHashMap<u64, u64>, out: &mut Vec<u64>) {
    for (&k, &v) in &m {
        out.push(k ^ v);
    }
    let vals: Vec<u64> = m.values().copied().collect();
    out.extend(vals);
}
