//! Regenerates every table and figure of the FUSION (ISCA 2015)
//! evaluation.
//!
//! Usage: `tables [all|csv|table1|table2|table3|fig6a|fig6b|fig6c|fig6d|
//! table4|table5|fig7|table6] [tiny|small|paper] [threads]`
//!
//! The simulations run over the shared-trace worker pool of
//! [`fusion_core::sweep`]; the optional third argument pins the worker
//! count (default: all available cores). An unknown section or scale is a
//! usage error (exit 2), reported before anything is simulated.

use fusion_bench::*;
use fusion_workloads::{all_suites, Scale};

type Render = fn(&[SuiteRun]) -> String;

/// The printable sections, in `all` order.
const SECTIONS: [(&str, Render); 12] = [
    ("csv", render_csv),
    ("table1", render_table1),
    ("table2", |_| render_table2()),
    ("table3", render_table3),
    ("fig6a", render_fig6a),
    ("fig6b", render_fig6b),
    ("fig6c", render_fig6c),
    ("fig6d", render_fig6d),
    ("table4", render_table4),
    ("table5", render_table5),
    ("fig7", render_fig7),
    ("table6", render_table6),
];

fn usage_error(msg: &str) -> ! {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "{msg}\nusage: tables [all|{}] [tiny|small|paper] [threads]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    if which != "all" && !SECTIONS.iter().any(|(name, _)| *name == which) {
        usage_error(&format!("unknown section '{which}'"));
    }
    let scale = match args.get(1).map(String::as_str) {
        Some("tiny") => Scale::Tiny,
        Some("small") => Scale::Small,
        None | Some("paper") => Scale::Paper,
        Some(other) => usage_error(&format!("unknown scale '{other}'")),
    };
    let threads = match args.get(2).map(|v| v.parse::<usize>()) {
        None => None,
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => usage_error(&format!(
            "threads must be a non-negative integer, got '{}'",
            args[2]
        )),
    };

    if which == "table2" {
        print!("{}", render_table2());
        return;
    }

    eprintln!("simulating all systems at {scale:?} scale...");
    let runs = SuiteRun::simulate_suites(&all_suites(), scale, threads);
    for (name, render) in SECTIONS {
        if which == "all" || which == name {
            println!("{}", render(&runs));
        }
    }
}
