//! Power-policy tuning: how the DPM thresholds trade power against latency.
//!
//! The paper fixes `L_min = 0.7`, `L_max = 0.9`, `B_max = 0.3` for P-B
//! (§3.1, §4.2) after arguing that aggressive thresholds "push the link
//! utilization to the limit". This example sweeps the threshold band on
//! uniform traffic at a mid load where DPM has headroom, using the
//! `dpm_override` configuration knob.
//!
//! ```text
//! cargo run --release --example power_tuning
//! ```

use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::experiment::default_plan;
use erapid_suite::erapid_core::runner::RunPoint;
use erapid_suite::netstats::table::Table;
use erapid_suite::photonics::bitrate::RateLadder;
use erapid_suite::photonics::power::LinkPowerModel;
use erapid_suite::powermgmt::policy::DpmPolicy;
use erapid_suite::traffic::pattern::TrafficPattern;

fn main() {
    let load = 0.4;

    println!("=== DPM threshold sweep (P-B system, uniform traffic, load {load}) ===\n");
    let mut t = Table::new(vec![
        "L_min",
        "L_max",
        "B_max",
        "thr",
        "lat (cyc)",
        "power (mW)",
        "retunes",
    ])
    .with_title("64-node E-RAPID; the paper's setting is (0.7, 0.9, 0.3)");
    for (l_min, l_max, b_max) in [
        (0.3, 0.5, 0.3),
        (0.5, 0.7, 0.3),
        (0.7, 0.9, 0.3), // the paper's P-B setting
        (0.7, 0.9, 0.0), // scale up on any queueing (the P-NB criterion)
        (0.9, 0.95, 0.3),
    ] {
        let mut cfg = SystemConfig::paper64(NetworkMode::PB);
        cfg.dpm_override = Some(DpmPolicy::new(l_min, l_max, b_max));
        let plan = default_plan(cfg.schedule.window);
        let r = RunPoint::new(cfg, TrafficPattern::Uniform, load, plan)
            .execute()
            .result;
        t.row(vec![
            format!("{l_min}"),
            format!("{l_max}"),
            format!("{b_max}"),
            format!("{:.4}", r.throughput),
            format!("{:.1}", r.latency),
            format!("{:.1}", r.power_mw),
            format!("{}", r.retunes),
        ]);
    }
    println!("{}", t.render());
    println!("Lower bands keep links at high bit rates (more power, less");
    println!("latency); higher bands squeeze the links to the slowest rate");
    println!("that sustains the load. The paper's (0.7, 0.9, 0.3) sits where");
    println!("power collapses but latency grows only modestly.\n");

    // Why this works: the energy-per-bit ladder.
    let ladder = RateLadder::paper();
    let model = LinkPowerModel::paper_table();
    println!("energy per bit on the paper ladder:");
    for (level, rate) in ladder.iter() {
        println!(
            "  {:>8}: {:.2} pJ/bit  ({:.2} mW active)",
            format!("{} Gbps", rate.gbps),
            model.energy_per_bit_pj(level),
            model.active_mw(level),
        );
    }
    println!("\nA link kept busy at 2.5 Gbps moves the same bits for 2.5x less");
    println!("energy than an underutilised 5 Gbps link — that is the entire");
    println!("DPM story, and why the thresholds aim to saturate slow links.");
}
