//! Electrical-baseline comparison (§4.1: "The performance of E-RAPID was
//! compared to other electrical networks"): the same 64 nodes and offered
//! traffic through an 8×8 electrical mesh of the identical VC routers vs
//! the E-RAPID P-B optical interconnect. Each load's (E-RAPID, mesh) pair
//! runs as one job on the worker pool (`ERAPID_THREADS`).
//!
//! ```text
//! cargo run --release -p erapid-bench --bin baseline
//! ```

use emesh::{run_mesh, MeshConfig};
use erapid_bench::BenchConfig;
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::default_plan;
use erapid_core::runner::parallel_map;
use erapid_core::runner::RunPoint;
use netstats::table::Table;
use std::num::NonZeroUsize;
use traffic::pattern::TrafficPattern;

fn main() {
    let bench = BenchConfig::from_env();
    println!("=== E-RAPID (P-B) vs 8x8 electrical mesh, 64 nodes ===\n");
    for (name, pattern) in [
        ("uniform", TrafficPattern::Uniform),
        ("complement", TrafficPattern::Complement),
    ] {
        let mut t = Table::new(vec![
            "load",
            "rate (pkt/n/c)",
            "erapid thr",
            "erapid lat",
            "erapid pwr (mW)",
            "mesh thr",
            "mesh lat",
            "mesh pwr (mW)",
        ])
        .with_title(format!(
            "{name}: identical offered traffic (load normalised to E-RAPID N_c)"
        ));
        let rows = parallel_map(bench.threads, bench.load_axis(), |load| {
            let cfg = SystemConfig::paper64(NetworkMode::PB);
            let rate = cfg.capacity().injection_rate(load);
            let plan = default_plan(cfg.schedule.window);
            let er = RunPoint::new(cfg, pattern.clone(), load, plan)
                .execute(NonZeroUsize::MIN)
                .result;
            let mesh = run_mesh(MeshConfig::paper64(), pattern.clone(), rate, plan);
            vec![
                format!("{load:.1}"),
                format!("{rate:.5}"),
                format!("{:.4}", er.throughput),
                format!("{:.1}", er.latency),
                format!("{:.1}", er.power_mw),
                format!("{:.4}", mesh.throughput),
                format!("{:.1}", mesh.latency),
                format!("{:.1}", mesh.power_mw),
            ]
        });
        for row in rows {
            t.row(row);
        }
        println!("{}", t.render());
    }
    println!("Reading: at this small radix, with idealised 1-cycle electrical");
    println!("hops, the mesh matches or beats E-RAPID — its bisection is wide");
    println!("relative to E-RAPID's per-board-pair wavelengths, and E-RAPID");
    println!("pays whole-packet optical serialization (48 cycles at 5 Gbps).");
    println!("The paper's case for optics is at *scale*: electrical links at");
    println!("board-to-board/rack-to-rack distances cannot run at one cycle");
    println!("per hop (§1 — \"increasing bandwidth demands at higher bit");
    println!("rates and longer communication distances are constraining the");
    println!("performance of electrical interconnects\"), and the mesh has no");
    println!("equivalent of wavelength re-allocation or per-link bit-rate");
    println!("scaling — note the complement column, where E-RAPID's P-B");
    println!("overtakes the saturating static assignment at mid loads. The");
    println!("mesh power column (Orion-style per-hop energies + per-router");
    println!("static draw) shows the structural difference: every electrical");
    println!("packet pays ~7 router traversals and the 64 routers leak even");
    println!("when idle, while E-RAPID's optical power tracks lit lasers.");
}
