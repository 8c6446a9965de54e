//! Quickstart: build a 64-node E-RAPID, run it under uniform traffic at
//! half load in the paper's P-B (power-aware, bandwidth-reconfigured)
//! configuration, and print the three headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::experiment::default_plan;
use erapid_suite::erapid_core::runner::RunPoint;
use erapid_suite::traffic::pattern::TrafficPattern;
use std::num::NonZeroUsize;

fn main() {
    // 1. Pick a configuration. `paper64` is the evaluation system of the
    //    paper: R(1, 8, 8) — one cluster, 8 boards, 8 nodes per board —
    //    with Table 1's router and optical-link parameters.
    let cfg = SystemConfig::paper64(NetworkMode::PB);
    println!(
        "system: R({},{},{}) = {} nodes, {} wavelengths, R_w = {} cycles",
        cfg.clusters,
        cfg.boards,
        cfg.nodes_per_board,
        cfg.nodes(),
        cfg.wavelengths(),
        cfg.schedule.window
    );
    println!(
        "uniform capacity N_c = {:.5} packets/node/cycle",
        cfg.capacity().uniform_capacity()
    );

    // 2. Pick a workload: Bernoulli injection at 50% of capacity, uniform
    //    random destinations (the paper's §4 methodology).
    let pattern = TrafficPattern::Uniform;
    let load = 0.5;

    // 3. Run: warm-up, labelled measurement interval, drain.
    let plan = default_plan(cfg.schedule.window);
    let r = RunPoint::new(cfg, pattern, load, plan)
        .execute(NonZeroUsize::MIN)
        .result;

    // 4. Report.
    println!("\nresults at load {:.1}:", r.load);
    println!(
        "  accepted throughput : {:.4} packets/node/cycle ({:.0}% of N_c)",
        r.throughput,
        r.throughput_norm * 100.0
    );
    println!(
        "  mean latency        : {:.1} cycles ({:.0} ns at 400 MHz)",
        r.latency,
        r.latency * 2.5
    );
    println!("  p95 latency         : {:.0} cycles", r.latency_p95);
    println!("  optical power       : {:.1} mW", r.power_mw);
    println!("  DPM retunes         : {}", r.retunes);
    println!("  DBR grants          : {}", r.grants);
    println!("  simulated cycles    : {}", r.cycles);
    assert_eq!(
        r.undrained, 0,
        "all measured packets must drain at this load"
    );
}
