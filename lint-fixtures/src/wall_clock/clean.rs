// Fixture: simulated time plus a reasoned host-timing site.
use std::time::Instant;

pub fn run_phase(work: &[u64], sim_now: u64) -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "operator-facing throughput probe; the simulated result below never reads this clock"
    )]
    let started = Instant::now();
    let mut acc = sim_now;
    for &w in work {
        acc = acc.wrapping_add(w);
    }
    let _ = started.elapsed();
    acc
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests may time themselves")]
mod tests {
    #[test]
    fn timing_ok_in_tests() {
        let t = std::time::Instant::now();
        assert!(t.elapsed().as_nanos() < u128::MAX);
    }
}
