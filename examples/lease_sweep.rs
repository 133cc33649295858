//! Lease-length sensitivity study.
//!
//! The ACC protocol's central knob is the epoch length (Table 3 assigns
//! 200–1700 cycles per function). Short leases expire mid-locality and
//! force refetches; long leases make later writers and host forwarded
//! requests wait out dead epochs. This sweep overrides every function's
//! lease and reports the tension, with and without the lease-renewal
//! extension.
//!
//! ```sh
//! cargo run --release --example lease_sweep [fft|adpcm|...]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example stops on a failed run"
)]

use fusion_repro::core::runner::{run_system, SystemKind};
use fusion_repro::types::SystemConfig;
use fusion_repro::workloads::{build_suite, Scale, SuiteId};

fn main() {
    let suite = match std::env::args().nth(1).as_deref() {
        Some("adpcm") => SuiteId::Adpcm,
        Some("disp") => SuiteId::Disparity,
        Some("track") => SuiteId::Tracking,
        Some("susan") => SuiteId::Susan,
        Some("filt") => SuiteId::Filter,
        Some("hist") => SuiteId::Histogram,
        _ => SuiteId::Fft,
    };
    let base = build_suite(suite, Scale::Small);
    println!(
        "lease sweep on {} ({} refs)\n",
        base.name,
        base.total_refs()
    );
    println!(
        "{:>7} {:>12} {:>12} {:>10} {:>10} | {:>12} {:>10}",
        "lease", "cycles", "cache pJ", "expiries", "stalls", "renew cyc", "renewals"
    );

    for lease in [50u32, 100, 200, 500, 1000, 2000, 5000] {
        let mut wl = base.clone();
        for p in &mut wl.phases {
            p.lease = lease;
        }
        let plain = run_system(SystemKind::Fusion, &wl, &SystemConfig::small()).unwrap();
        let renew = run_system(
            SystemKind::Fusion,
            &wl,
            &SystemConfig::small().with_lease_renewal(true),
        )
        .unwrap();
        let t = plain.tile.expect("tile stats");
        let tr = renew.tile.expect("tile stats");
        println!(
            "{:>7} {:>12} {:>12.0} {:>10} {:>10} | {:>12} {:>10}",
            lease,
            plain.total_cycles,
            plain.cache_energy().value(),
            t.l0_lease_expiries,
            t.stall_cycles,
            renew.total_cycles,
            tr.lease_renewals,
        );
    }
    println!(
        "\nShort leases inflate expiries (refetch energy); long leases inflate\n\
         write/forward stalls. The renewal extension flattens the left side of\n\
         the curve by revalidating current data without moving it."
    );
}
