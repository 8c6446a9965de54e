//! Fault-resilience matrix: what does each failure mode cost, and how much
//! does reconfigurability buy back?
//!
//! Four scenarios on the paper's 64-node system (complement traffic,
//! load 0.5), each run in all four network modes and compared against a
//! fault-free baseline of the same mode and control plane:
//!
//! * `rx_outage` — the hot flow's receiver (board 7, λ1) dies mid-run and
//!   is repaired two windows later. Static ownership must be restored and
//!   DBR must re-admit the wavelength.
//! * `lc_stuck` — the LC of channel (0 → 7, λ1) wedges at its current bit
//!   rate; DPM retunes are dropped until the repair event.
//! * `cdr_relock_storm` — a seed-reproducible burst of extended CDR
//!   relocks on random live channels (each darkens its channel for the
//!   relock penalty).
//! * `ls_token_loss` — board 3's LS control token vanishes from the RC
//!   ring just after consecutive bandwidth boundaries; the round watchdog
//!   must detect each loss and relaunch (message-level control plane).
//!
//! Every scenario is a plain [`FaultPlan`] riding inside the
//! [`SystemConfig`], so all runs fan out over
//! [`erapid_core::runner::run_points`] and are byte-identical for any
//! thread count. Results land in `RESILIENCE_<git-sha>.json` next to the
//! console tables.
//!
//! A second matrix layers the same fault plans onto *hostile traffic*: the
//! two worst-offender workload scenarios (lowest P-B delivered fraction)
//! reported by the `scenarios` bin's newest `SCENARIO_<sha>.json`, run in
//! P-B mode against a fault-free baseline under the same workload. Without
//! that artifact the matrix falls back to the incast + collective
//! scenarios.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin resilience
//! ERAPID_QUICK=1 cargo run --release -p erapid-bench --bin resilience
//! ```

use erapid_bench::{git_sha, BenchConfig};
use erapid_core::config::{ControlPlane, NetworkMode, SystemConfig};
use erapid_core::experiment::RunResult;
use erapid_core::faults::{FaultKind, FaultPlan};
use erapid_core::runner::{run_points, RunPoint};
use erapid_workloads::ScenarioSpec;
use netstats::table::Table;
use traffic::pattern::TrafficPattern;

const LOAD: f64 = 0.5;
const STORM_SEED: u64 = 42;
const RELOCK_PENALTY: u64 = 500;

struct Scenario {
    name: &'static str,
    what: &'static str,
    control: ControlPlane,
    faults: FaultPlan,
}

/// The four-scenario matrix, with fault times scaled to the phase plan in
/// use (`quick` shortens the run, so the outage window moves forward).
fn scenarios(window: u64, quick: bool) -> Vec<Scenario> {
    let (down, up) = if quick {
        (3 * window / 2, 5 * window / 2)
    } else {
        (4 * window, 6 * window)
    };
    // Complement traffic's hot flow out of board 0 lands on board 7; its
    // static wavelength is λ(0→7) = (0 - 7) mod 8 = 1.
    let rx = FaultPlan::new().receiver_outage(7, 1, down, up);
    let lc = FaultPlan::new()
        .at(
            down,
            FaultKind::LcStuck {
                board: 0,
                dest: 7,
                wavelength: 1,
            },
        )
        .at(
            up,
            FaultKind::LcRepair {
                board: 0,
                dest: 7,
                wavelength: 1,
            },
        );
    let storm_count = if quick { 8 } else { 32 };
    let storm = FaultPlan::relock_storm(STORM_SEED, 8, down, up, storm_count, RELOCK_PENALTY);
    // Bandwidth boundaries fall at even window multiples; strike 10 cycles
    // into each round (token mid-flight on the RC ring).
    let mut token = FaultPlan::new();
    let boundaries = if quick { 1 } else { 3 };
    for i in 0..boundaries {
        token.push(
            2 * window * (i + 1) + 10,
            FaultKind::TokenLoss { victim: 3 },
        );
    }
    vec![
        Scenario {
            name: "rx_outage",
            what: "receiver (board 7, λ1) down then repaired",
            control: ControlPlane::AnalyticLatency,
            faults: rx,
        },
        Scenario {
            name: "lc_stuck",
            what: "LC (0→7, λ1) wedged; DPM retunes dropped",
            control: ControlPlane::AnalyticLatency,
            faults: lc,
        },
        Scenario {
            name: "cdr_relock_storm",
            what: "seeded burst of extended CDR relocks",
            control: ControlPlane::AnalyticLatency,
            faults: storm,
        },
        Scenario {
            name: "ls_token_loss",
            what: "LS token lost after bandwidth boundaries",
            control: ControlPlane::MessageLevel,
            faults: token,
        },
    ]
}

fn point(
    bench: &BenchConfig,
    mode: NetworkMode,
    control: ControlPlane,
    faults: FaultPlan,
) -> RunPoint {
    let mut cfg = SystemConfig::paper64(mode);
    cfg.control_plane = control;
    cfg.faults = faults;
    let plan = bench.plan(cfg.schedule.window);
    RunPoint::new(cfg, TrafficPattern::Complement, LOAD, plan)
}

/// As [`point`], but injecting a hostile workload scenario instead of the
/// complement pattern (the pattern is inert under a scenario).
fn hostile_point(
    bench: &BenchConfig,
    spec: &ScenarioSpec,
    control: ControlPlane,
    faults: FaultPlan,
) -> RunPoint {
    let mut p = point(bench, NetworkMode::PB, control, faults);
    p.cfg.scenario = Some(spec.clone());
    p.pattern = TrafficPattern::Uniform;
    p
}

/// The two worst-offender workloads from the newest `SCENARIO_<sha>.json`
/// the `scenarios` bin wrote in the working directory, falling back to
/// incast + collective when no artifact (or no recognisable name) exists.
fn worst_offenders() -> Vec<ScenarioSpec> {
    let fallback = || vec![ScenarioSpec::incast(), ScenarioSpec::collective()];
    let mut newest: Option<(std::time::SystemTime, std::path::PathBuf)> = None;
    let Ok(dir) = std::fs::read_dir(".") else {
        return fallback();
    };
    for entry in dir.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if !(name.starts_with("SCENARIO_") && name.ends_with(".json")) {
            continue;
        }
        let Ok(mtime) = entry.metadata().and_then(|m| m.modified()) else {
            continue;
        };
        let newer = match &newest {
            Some((t, _)) => mtime > *t,
            None => true,
        };
        if newer {
            newest = Some((mtime, entry.path()));
        }
    }
    let Some((_, path)) = newest else {
        return fallback();
    };
    let Ok(text) = std::fs::read_to_string(&path) else {
        return fallback();
    };
    // Minimal extraction of `"worst_offenders": ["a", "b"]` — the artifact
    // is machine-written single-level JSON, not arbitrary input.
    let Some(start) = text.find("\"worst_offenders\"") else {
        return fallback();
    };
    let Some(open) = text[start..].find('[') else {
        return fallback();
    };
    let Some(close) = text[start + open..].find(']') else {
        return fallback();
    };
    let inner = &text[start + open + 1..start + open + close];
    let specs: Vec<ScenarioSpec> = inner
        .split(',')
        .filter_map(|s| ScenarioSpec::from_name(s.trim().trim_matches('"')))
        .collect();
    if specs.is_empty() {
        fallback()
    } else {
        eprintln!(
            "hostile workloads from {}: {}",
            path.display(),
            specs
                .iter()
                .map(|s| s.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        specs
    }
}

fn main() {
    let bench = BenchConfig::from_env();
    let sha = git_sha();
    let window = SystemConfig::paper64(NetworkMode::NpNb).schedule.window;
    let scenarios = scenarios(window, bench.quick);
    let modes = NetworkMode::all();
    let planes = [ControlPlane::AnalyticLatency, ControlPlane::MessageLevel];

    println!(
        "=== resilience matrix @ {sha}: paper64, complement, load {LOAD}, {} scenarios x {} modes on {} threads ===\n",
        scenarios.len(),
        modes.len(),
        bench.threads
    );

    // One flat batch: fault-free baselines (per control plane x mode) first,
    // then every scenario x mode — maximum fan-out, deterministic order.
    let mut points: Vec<RunPoint> = Vec::new();
    for &plane in &planes {
        for &mode in &modes {
            points.push(point(&bench, mode, plane, FaultPlan::new()));
        }
    }
    for s in &scenarios {
        for &mode in &modes {
            points.push(point(&bench, mode, s.control, s.faults.clone()));
        }
    }
    let results: Vec<RunResult> = run_points(bench.threads, points)
        .into_iter()
        .map(|o| o.result)
        .collect();
    let (baselines, faulted) = results.split_at(planes.len() * modes.len());
    let baseline_for = |control: ControlPlane, mode_idx: usize| -> &RunResult {
        let plane_idx = match control {
            ControlPlane::AnalyticLatency => 0,
            ControlPlane::MessageLevel => 1,
        };
        &baselines[plane_idx * modes.len() + mode_idx]
    };

    let mut scenario_json: Vec<String> = Vec::new();
    for (si, s) in scenarios.iter().enumerate() {
        let rows = &faulted[si * modes.len()..(si + 1) * modes.len()];
        let mut t = Table::new(vec![
            "mode",
            "thr (pkt/n/c)",
            "baseline",
            "recovery",
            "latency",
            "undrained",
            "grants",
            "retunes",
            "ls_retries",
            "ls_aborts",
        ])
        .with_title(format!(
            "[{}] {} ({} fault events)",
            s.name,
            s.what,
            s.faults.len()
        ));
        let mut mode_json: Vec<String> = Vec::new();
        for (mi, r) in rows.iter().enumerate() {
            let base = baseline_for(s.control, mi);
            let recovery = r.throughput / base.throughput.max(1e-12);
            t.row(vec![
                modes[mi].name().to_string(),
                format!("{:.4}", r.throughput),
                format!("{:.4}", base.throughput),
                format!("{:.1}%", 100.0 * recovery),
                format!("{:.0}", r.latency),
                format!("{}", r.undrained),
                format!("{}", r.grants),
                format!("{}", r.retunes),
                format!("{}", r.ls_retries),
                format!("{}", r.ls_aborts),
            ]);
            mode_json.push(format!(
                "        {{\"mode\": \"{}\", \"throughput\": {:.6}, \"baseline_throughput\": {:.6}, \
                 \"recovery\": {:.4}, \"latency\": {:.2}, \"undrained\": {}, \"grants\": {}, \
                 \"retunes\": {}, \"ls_retries\": {}, \"ls_aborts\": {}}}",
                modes[mi].name(),
                r.throughput,
                base.throughput,
                recovery,
                r.latency,
                r.undrained,
                r.grants,
                r.retunes,
                r.ls_retries,
                r.ls_aborts,
            ));
        }
        println!("{}", t.render());
        scenario_json.push(format!(
            "    {{\"name\": \"{}\", \"control_plane\": \"{}\", \"fault_events\": {},\n      \"modes\": [\n{}\n      ]}}",
            s.name,
            match s.control {
                ControlPlane::AnalyticLatency => "analytic",
                ControlPlane::MessageLevel => "message",
            },
            s.faults.len(),
            mode_json.join(",\n"),
        ));
    }

    // --- hostile-workload matrix: the same fault plans layered onto the
    // worst-offender scenarios, P-B mode, vs a fault-free baseline under
    // the identical workload. ---
    let hostile = worst_offenders();
    let mut hpoints: Vec<RunPoint> = Vec::new();
    for w in &hostile {
        for &plane in &planes {
            hpoints.push(hostile_point(&bench, w, plane, FaultPlan::new()));
        }
    }
    for s in &scenarios {
        for w in &hostile {
            hpoints.push(hostile_point(&bench, w, s.control, s.faults.clone()));
        }
    }
    let hresults: Vec<RunResult> = run_points(bench.threads, hpoints)
        .into_iter()
        .map(|o| o.result)
        .collect();
    let (hbase, hfaulted) = hresults.split_at(hostile.len() * planes.len());
    let hbaseline = |wi: usize, control: ControlPlane| -> &RunResult {
        let plane_idx = match control {
            ControlPlane::AnalyticLatency => 0,
            ControlPlane::MessageLevel => 1,
        };
        &hbase[wi * planes.len() + plane_idx]
    };
    let mut headers = vec!["fault".to_string()];
    for w in &hostile {
        headers.push(format!("{} thr", w.name()));
        headers.push(format!("{} recovery", w.name()));
        headers.push(format!("{} delivered", w.name()));
    }
    let mut ht = Table::new(headers)
        .with_title("[hostile] faults x worst-offender workloads (P-B mode)".to_string());
    let mut hostile_json: Vec<String> = Vec::new();
    for (si, s) in scenarios.iter().enumerate() {
        let mut row = vec![s.name.to_string()];
        for (wi, w) in hostile.iter().enumerate() {
            let r = &hfaulted[si * hostile.len() + wi];
            let base = hbaseline(wi, s.control);
            let recovery = r.throughput / base.throughput.max(1e-12);
            row.push(format!("{:.4}", r.throughput));
            row.push(format!("{:.1}%", 100.0 * recovery));
            row.push(format!("{:.1}%", 100.0 * r.delivered_fraction()));
            hostile_json.push(format!(
                "    {{\"fault\": \"{}\", \"workload\": \"{}\", \"throughput\": {:.6}, \
                 \"baseline_throughput\": {:.6}, \"recovery\": {:.4}, \
                 \"delivered_fraction\": {:.6}, \"undrained\": {}, \"grants\": {}, \
                 \"ls_retries\": {}}}",
                s.name,
                w.name(),
                r.throughput,
                base.throughput,
                recovery,
                r.delivered_fraction(),
                r.undrained,
                r.grants,
                r.ls_retries,
            ));
        }
        ht.row(row);
    }
    println!("{}", ht.render());

    println!("Reading: DBR absorbs the rx outage (the orphaned flow's demand");
    println!("re-acquires bandwidth at the next bandwidth cycle, and repair");
    println!("hands the wavelength back to its static owner); a stuck LC only");
    println!("costs power-aware modes their DPM savings; the relock storm is");
    println!("transient capacity loss every mode rides out; token loss is");
    println!("recovered by the round watchdog (see ls_retries) with no aborts.");

    let json = format!(
        "{{\n  \"git_sha\": \"{sha}\",\n  \"workload\": {{\"system\": \"paper64\", \"pattern\": \"complement\", \"load\": {LOAD}, \"quick\": {quick}}},\n  \"threads\": {threads},\n  \"scenarios\": [\n{scenarios}\n  ],\n  \"hostile\": [\n{hostile}\n  ]\n}}\n",
        quick = bench.quick,
        threads = bench.threads,
        scenarios = scenario_json.join(",\n"),
        hostile = hostile_json.join(",\n"),
    );
    let path = format!("RESILIENCE_{sha}.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
