//! Store conflicts — the paper's Challenge #1 end to end.
//!
//! Profiles each workload's load→store→load conflicts (Figure 1), then
//! shows the two DLVP mechanisms that deal with them:
//!
//! * conflicts with **committed** stores vanish because DLVP reads the data
//!   cache (aifirf: high conflict rate, yet ~100% prediction accuracy);
//! * conflicts with **in-flight** stores would poison the probe — the LSCD
//!   filter suppresses those loads (libquantum), and turning it off
//!   demonstrably multiplies value-misprediction flushes.
//!
//! ```text
//! cargo run --release --example store_conflicts
//! ```

use dlvp::{Dlvp, DlvpConfig, Pap};
use lvp_trace::ConflictProfiler;
use lvp_uarch::{simulate, Core, CoreConfig};

fn main() {
    let budget = 120_000;

    println!("-- Figure 1 view: who conflicts with stores ---------------------");
    println!("{:<12} {:>10} {:>10}", "workload", "committed", "in-flight");
    for name in ["aifirf", "h264ref", "libquantum", "gzip", "mcf"] {
        let mut p = ConflictProfiler::new(96);
        for rec in lvp_workloads::by_name(name).unwrap().records(budget) {
            p.push(&rec);
        }
        let p = p.finish();
        println!(
            "{:<12} {:>9.1}% {:>9.1}%",
            name,
            p.committed_fraction() * 100.0,
            p.inflight_fraction() * 100.0
        );
    }

    println!("\n-- committed conflicts: the cache is already up to date ----------");
    let t = lvp_workloads::by_name("aifirf").unwrap().trace(budget);
    let d = simulate(&t, dlvp::dlvp_default());
    println!(
        "aifirf under DLVP: coverage {:.1}%, accuracy {:.2}% — the delay-line",
        d.coverage() * 100.0,
        d.accuracy() * 100.0
    );
    println!("loads re-read locations whose stores committed long ago, so the");
    println!("probed values are fresh. A last-value predictor would mispredict");
    println!("every one of them (the values shift each sample).");

    println!("\n-- in-flight conflicts: LSCD earns its 4 entries ------------------");
    let t = lvp_workloads::by_name("libquantum").unwrap().trace(budget);
    let with = Core::new(CoreConfig::default(), dlvp::dlvp_default());
    let (s_with, scheme) = with.run_with_scheme(&t);
    let without = simulate(
        &t,
        Dlvp::new(
            DlvpConfig {
                use_lscd: false,
                ..DlvpConfig::default()
            },
            Pap::paper_default(),
        ),
    );
    let (inserts, suppressions) = scheme.lscd_counters();
    println!("libquantum value-misprediction flushes:");
    println!(
        "  with LSCD    : {:>6}   (LSCD captured {} loads, suppressed {} predictions)",
        s_with.vp_flushes, inserts, suppressions
    );
    println!("  without LSCD : {:>6}", without.vp_flushes);
    println!(
        "  accuracy     : {:.2}% vs {:.2}%",
        s_with.accuracy() * 100.0,
        without.accuracy() * 100.0
    );
}
