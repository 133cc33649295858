// Fixture: host wall-clock reads in simulation logic — these couple
// results to scheduler timing and break replay/journal byte-identity.
use std::time::Instant;

pub fn run_phase(work: &[u64]) -> u64 {
    let started = Instant::now();
    let mut acc = 0u64;
    for &w in work {
        acc = acc.wrapping_add(w);
    }
    let _ = started.elapsed();
    acc
}

pub fn epoch_seed() -> u64 {
    let t = std::time::SystemTime::now();
    match t.duration_since(std::time::UNIX_EPOCH) {
        Ok(d) => d.as_secs(),
        Err(_) => 0,
    }
}
