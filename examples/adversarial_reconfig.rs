//! Adversarial-traffic reconfiguration demo — the paper's headline story.
//!
//! Complement traffic sends every node of board `b` to board `B-1-b`, so a
//! statically-assigned E-RAPID funnels each board's entire load through a
//! single wavelength while six others idle. This example runs the same
//! workload on the static network (NP-NB) and the reconfigured one (P-B),
//! shows the wavelength ownership map before and after Lock-Step kicks in,
//! and compares throughput/latency/power.
//!
//! ```text
//! cargo run --release --example adversarial_reconfig
//! ```

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::system::System;
use erapid_suite::traffic::pattern::TrafficPattern;

fn ownership_row(sys: &System, dest: u16) -> String {
    let mut s = format!("dest board {dest}: ");
    for w in 1..sys.srs().wavelengths() {
        match sys.srs().owner(dest, w) {
            Some(o) => s.push_str(&format!("λ{w}←B{o} ")),
            None => s.push_str(&format!("λ{w}←–– ")),
        }
    }
    s
}

fn main() {
    let load = 0.6;
    let plan = PhasePlan::new(6000, 12_000).with_max_cycles(80_000);

    println!("=== complement traffic on a 64-node E-RAPID, load {load} ===\n");

    let mut results = Vec::new();
    for mode in [NetworkMode::NpNb, NetworkMode::PB] {
        let cfg = SystemConfig::paper64(mode);
        let mut sys = System::new(cfg, TrafficPattern::Complement, load, plan);

        if mode == NetworkMode::PB {
            println!("wavelength ownership toward board 7 at boot (static RWA):");
            println!("  {}\n", ownership_row(&sys, 7));
            // Run past two LS bandwidth windows so DBR engages.
            while sys.now() < 6000 {
                sys.step();
            }
            println!("after the first Lock-Step bandwidth cycles (t = 6000):");
            println!("  {}", ownership_row(&sys, 7));
            println!("  (board 0 — the only board sending to board 7 — has been");
            println!("   granted the idle wavelengths of the other boards)\n");
        }
        sys.run(&mut |_| {});
        let m = sys.metrics();
        let (grants, retunes) = sys.srs().reconfig_counts();
        println!(
            "{:6}  throughput {:.4} pkt/node/cyc   latency {:9.1} cyc   power {:7.1} mW   grants {:3}  retunes {:3}",
            mode.name(),
            m.throughput_ppc(),
            m.mean_latency(),
            m.average_power_mw(),
            grants,
            retunes,
        );
        results.push((mode, m.throughput_ppc(), m.average_power_mw()));
    }

    let (_, t_static, _) = results[0];
    let (_, t_reconf, _) = results[1];
    println!(
        "\nLock-Step reconfiguration multiplied complement throughput by {:.1}x",
        t_reconf / t_static
    );
    println!("(the paper reports ~4x for its testbed parameters, §4.2)");
}
