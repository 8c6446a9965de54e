//! Policy survival under production-shaped workloads.
//!
//! The paper evaluates E-RAPID on stationary synthetic patterns; this
//! matrix asks what DPM/DBR do under the traffic shapes a deployment
//! actually faces — the four `erapid-workloads` scenarios (Zipf hotspot,
//! diurnal wave, incast/outcast storm, phased all-to-all collective), each
//! run in all four network modes on the paper's 64-node system.
//!
//! Reported per (scenario, mode): whole-run delivered fraction, mean and
//! p95 latency, power, and the per-window reconfiguration activity
//! (`dpm_retunes`, `dbr_grants`, `buffer_crossings`) joined from the
//! telemetry export. Results land in `SCENARIO_<git-sha>.json`, including
//! the two worst-offender scenarios by P-B delivered fraction — the
//! `resilience` bin layers its fault matrix onto those.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin scenarios
//! ERAPID_QUICK=1 cargo run --release -p erapid-bench --bin scenarios
//! ERAPID_SCENARIO=incast cargo run --release -p erapid-bench --bin scenarios
//! cargo run --release -p erapid-bench --bin scenarios -- --smoke
//! ```
//!
//! Extra knobs (on top of the shared harness set):
//! * `ERAPID_SCENARIO=<name>` — run only that scenario
//!   (hotspot/diurnal/incast/collective).
//! * `ERAPID_SCENARIO_SEED=<n>` — override the config seed for scenario
//!   streams.
//! * `--smoke` — CI gate: one small P-B point per scenario; asserts
//!   nonzero delivery and sequential == run-level-fanned results, exits
//!   nonzero on any mismatch.

use erapid_bench::{git_sha, rank_worst_offenders, BenchConfig};
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::runner::{run_points, RunPoint};
use erapid_telemetry::{counter_column, TraceConfig};
use erapid_workloads::ScenarioSpec;
use netstats::table::Table;
use std::num::NonZeroUsize;
use traffic::pattern::TrafficPattern;

const LOAD: f64 = 0.6;

/// The scenario suite, honouring the `ERAPID_SCENARIO` filter.
fn suite() -> Vec<ScenarioSpec> {
    match std::env::var("ERAPID_SCENARIO") {
        Ok(name) if !name.trim().is_empty() => match ScenarioSpec::from_name(&name) {
            Some(spec) => vec![spec],
            None => {
                eprintln!(
                    "unknown ERAPID_SCENARIO {name:?} (want hotspot/diurnal/incast/collective)"
                );
                std::process::exit(2);
            }
        },
        _ => ScenarioSpec::paper_suite(),
    }
}

fn seed_override() -> Option<u64> {
    std::env::var("ERAPID_SCENARIO_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
}

fn point(bench: &BenchConfig, spec: &ScenarioSpec, mode: NetworkMode, small: bool) -> RunPoint {
    let mut cfg = if small {
        SystemConfig::small(mode)
    } else {
        SystemConfig::paper64(mode)
    };
    cfg.scenario = Some(spec.clone());
    cfg.trace = TraceConfig::with_capacity(1024);
    if let Some(seed) = seed_override() {
        cfg.seed = seed;
    }
    let plan = bench.plan(cfg.schedule.window);
    // The pattern is inert under a scenario (the engine preempts the
    // generators); Uniform keeps construction cheap.
    RunPoint::new(cfg, TrafficPattern::Uniform, LOAD, plan)
}

/// `--smoke`: the CI gate. One small P-B point per scenario, two ways:
/// sequential and fanned out across a 2-worker point pool — delivery must
/// be nonzero and both byte-identical.
fn smoke(bench: &BenchConfig) -> ! {
    let specs = suite();
    let two = NonZeroUsize::new(2).unwrap();
    let points: Vec<RunPoint> = specs
        .iter()
        .map(|s| point(bench, s, NetworkMode::PB, true))
        .collect();
    let fanned = run_points(two, points.clone());
    let mut failures = 0;
    for (spec, (p, fan)) in specs.iter().zip(points.into_iter().zip(fanned)) {
        let fan_r = fan.result;
        let seq_r = p.execute().result;
        let mut fail = |msg: &str| {
            eprintln!("FAIL [{}]: {msg}", spec.name());
            failures += 1;
        };
        if seq_r.delivered == 0 {
            fail("delivered no packets");
        }
        if seq_r != fan_r {
            fail("sequential != fanned-out result");
        }
        if failures == 0 {
            println!(
                "ok [{}]: delivered {}/{} injected, seq == fanned",
                spec.name(),
                seq_r.delivered,
                seq_r.injected
            );
        }
    }
    if failures > 0 {
        eprintln!("scenarios --smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("scenarios --smoke: all {} scenarios pass", specs.len());
    std::process::exit(0);
}

/// Per-window join of one counter, with a compact (total, peak) digest.
fn window_digest(
    names: &[String],
    windows: &[erapid_telemetry::WindowSnapshot],
    counter: &str,
) -> (Vec<u64>, u64, u64) {
    let col = counter_column(names, windows, counter).unwrap_or_default();
    let total = col.iter().sum();
    let peak = col.iter().copied().max().unwrap_or(0);
    (col, total, peak)
}

fn json_u64s(v: &[u64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// JSON has no Infinity/NaN literal; a saturated percentile (histogram
/// overflow) serializes as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let bench = BenchConfig::from_env();
    if std::env::args().skip(1).any(|a| a == "--smoke") {
        smoke(&bench);
    }
    let sha = git_sha();
    let specs = suite();
    let modes = NetworkMode::all();
    println!(
        "=== scenario matrix @ {sha}: paper64, load {LOAD}, {} scenarios x {} modes on {} threads ===\n",
        specs.len(),
        modes.len(),
        bench.threads
    );

    let points: Vec<RunPoint> = specs
        .iter()
        .flat_map(|s| modes.iter().map(move |&m| (s, m)))
        .map(|(s, m)| point(&bench, s, m, false))
        .collect();
    let results = run_points(bench.threads, points);

    let mut scenario_json: Vec<String> = Vec::new();
    let mut pb_survival: Vec<(f64, &'static str)> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let rows = &results[si * modes.len()..(si + 1) * modes.len()];
        let mut t = Table::new(vec![
            "mode",
            "delivered",
            "thr (pkt/n/c)",
            "latency",
            "p95",
            "power (mW)",
            "grants",
            "retunes",
            "peak bufx/win",
        ])
        .with_title(format!("[{}] {:?}", spec.name(), spec.kind));
        let mut mode_json: Vec<String> = Vec::new();
        for (mi, out) in rows.iter().enumerate() {
            let (r, trace) = (&out.result, &out.trace);
            let mode = modes[mi];
            let (retunes_w, _, _) =
                window_digest(&trace.counter_names, &trace.windows, "dpm_retunes");
            let (grants_w, _, _) =
                window_digest(&trace.counter_names, &trace.windows, "dbr_grants");
            let (bufx_w, bufx_total, bufx_peak) =
                window_digest(&trace.counter_names, &trace.windows, "buffer_crossings");
            if mode == NetworkMode::PB {
                pb_survival.push((r.delivered_fraction(), spec.name()));
            }
            t.row(vec![
                mode.name().to_string(),
                format!("{:.1}%", 100.0 * r.delivered_fraction()),
                format!("{:.4}", r.throughput),
                format!("{:.0}", r.latency),
                format!("{:.0}", r.latency_p95),
                format!("{:.1}", r.power_mw),
                format!("{}", r.grants),
                format!("{}", r.retunes),
                format!("{bufx_peak}"),
            ]);
            mode_json.push(format!(
                "        {{\"mode\": \"{}\", \"delivered_fraction\": {}, \"injected\": {}, \
                 \"delivered\": {}, \"throughput\": {}, \"latency\": {}, \
                 \"latency_p95\": {}, \"power_mw\": {}, \"grants\": {}, \"retunes\": {}, \
                 \"buffer_crossings_total\": {bufx_total},\n         \"windows\": {{\
                 \"dpm_retunes\": {}, \"dbr_grants\": {}, \"buffer_crossings\": {}}}}}",
                mode.name(),
                json_num(r.delivered_fraction()),
                r.injected,
                r.delivered,
                json_num(r.throughput),
                json_num(r.latency),
                json_num(r.latency_p95),
                json_num(r.power_mw),
                r.grants,
                r.retunes,
                json_u64s(&retunes_w),
                json_u64s(&grants_w),
                json_u64s(&bufx_w),
            ));
        }
        println!("{}", t.render());
        scenario_json.push(format!(
            "    {{\"name\": \"{}\", \"spec\": \"{:?}\",\n      \"modes\": [\n{}\n      ]}}",
            spec.name(),
            spec.kind,
            mode_json.join(",\n"),
        ));
    }

    // The two scenarios P-B survives worst seed the resilience matrix's
    // hostile-traffic axis (faults x worst workloads).
    let worst = rank_worst_offenders(&pb_survival, 2);
    if !worst.is_empty() {
        println!(
            "worst P-B survival: {} — the resilience bin picks these up as its hostile workloads",
            worst.join(", ")
        );
    }

    let seed = seed_override().unwrap_or_else(|| SystemConfig::paper64(NetworkMode::PB).seed);
    let worst_json: Vec<String> = worst.iter().map(|n| format!("\"{n}\"")).collect();
    let json = format!(
        "{{\n  \"git_sha\": \"{sha}\",\n  \"workload\": {{\"system\": \"paper64\", \"load\": {LOAD}, \"seed\": {seed}, \"quick\": {quick}}},\n  \"threads\": {threads},\n  \"worst_offenders\": [{worst}],\n  \"scenarios\": [\n{scenarios}\n  ]\n}}\n",
        quick = bench.quick,
        threads = bench.threads,
        worst = worst_json.join(", "),
        scenarios = scenario_json.join(",\n"),
    );
    let path = format!("SCENARIO_{sha}.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
