//! Generic sweep CLI: run any (pattern, mode, load) combination on the
//! paper's 64-node system, or a custom R(1,B,D) geometry.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin sweep -- \
//!     --pattern complement --mode P-B --loads 0.1,0.5,0.9 --boards 8 --nodes 8
//! ```

use erapid_bench::BenchConfig;
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::default_plan;
use erapid_core::runner::{run_points, RunPoint};
use netstats::table::Table;
use reconfig::stages::ProtocolTiming;
use traffic::pattern::TrafficPattern;

fn parse_pattern(s: &str) -> TrafficPattern {
    match s {
        "uniform" => TrafficPattern::Uniform,
        "complement" => TrafficPattern::Complement,
        "butterfly" => TrafficPattern::Butterfly,
        "perfect_shuffle" | "shuffle" => TrafficPattern::PerfectShuffle,
        "transpose" => TrafficPattern::Transpose,
        "bit_reversal" => TrafficPattern::BitReversal,
        "tornado" => TrafficPattern::Tornado,
        "neighbour" | "neighbor" => TrafficPattern::Neighbour,
        "hotspot" => TrafficPattern::Hotspot {
            fraction: 0.5,
            exponent: 1.2,
        },
        other => panic!(
            "unknown pattern '{other}' (try uniform, complement, butterfly, \
             perfect_shuffle, transpose, bit_reversal, tornado, neighbour, hotspot)"
        ),
    }
}

fn parse_mode(s: &str) -> NetworkMode {
    match s.to_uppercase().as_str() {
        "NP-NB" | "NPNB" => NetworkMode::NpNb,
        "P-NB" | "PNB" => NetworkMode::PNb,
        "NP-B" | "NPB" => NetworkMode::NpB,
        "P-B" | "PB" => NetworkMode::PB,
        other => panic!("unknown mode '{other}' (NP-NB, P-NB, NP-B, P-B)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let pattern = parse_pattern(&get("--pattern", "uniform"));
    let modes: Vec<NetworkMode> = {
        let m = get("--mode", "all");
        if m == "all" {
            NetworkMode::all().to_vec()
        } else {
            m.split(',').map(parse_mode).collect()
        }
    };
    let loads: Vec<f64> = get("--loads", "0.1,0.3,0.5,0.7,0.9")
        .split(',')
        .map(|s| s.parse().expect("load must be a number"))
        .collect();
    let boards: u16 = get("--boards", "8").parse().expect("--boards");
    let nodes: u16 = get("--nodes", "8").parse().expect("--nodes");
    let seed: u64 = get("--seed", "0").parse().expect("--seed");
    let window: u64 = get("--window", "2000").parse().expect("--window");

    let mut t = Table::new(vec![
        "mode",
        "load",
        "thr (pkt/n/c)",
        "thr/Nc",
        "lat (cyc)",
        "p95",
        "power (mW)",
        "grants",
        "retunes",
        "undrained",
    ])
    .with_title(format!(
        "sweep: pattern={} R(1,{boards},{nodes}) R_w={window}",
        pattern.name()
    ));
    // Build the grid in display order, fan it out, print in the same order.
    let bench = BenchConfig::from_env();
    let points: Vec<(NetworkMode, f64, RunPoint)> = modes
        .iter()
        .flat_map(|&mode| loads.iter().map(move |&load| (mode, load)))
        .map(|(mode, load)| {
            let mut cfg = SystemConfig::paper64(mode);
            cfg.boards = boards;
            cfg.nodes_per_board = nodes;
            cfg.timing = ProtocolTiming {
                boards,
                lcs_per_board: nodes,
                ..ProtocolTiming::paper64()
            };
            cfg.schedule = reconfig::lockstep::LockStepSchedule::new(window);
            if seed != 0 {
                cfg.seed = seed;
            }
            let plan = default_plan(cfg.schedule.window);
            (mode, load, RunPoint::new(cfg, pattern.clone(), load, plan))
        })
        .collect();
    let labels: Vec<(NetworkMode, f64)> = points.iter().map(|(m, l, _)| (*m, *l)).collect();
    let results = run_points(
        bench.threads,
        points.into_iter().map(|(_, _, p)| p).collect(),
    );
    for ((mode, load), r) in labels.into_iter().zip(results.iter().map(|o| o.result)) {
        t.row(vec![
            mode.name().to_string(),
            format!("{load:.2}"),
            format!("{:.4}", r.throughput),
            format!("{:.3}", r.throughput_norm),
            format!("{:.1}", r.latency),
            format!("{:.0}", r.latency_p95),
            format!("{:.1}", r.power_mw),
            format!("{}", r.grants),
            format!("{}", r.retunes),
            format!("{}", r.undrained),
        ]);
    }
    println!("{}", t.render());
}
