//! Telemetry showcase: runs a faulted P-B workload with tracing on and
//! renders where every cycle went — a per-window DPM/DBR/fault timeline on
//! the console, the full event stream as JSONL, and a Chrome trace-event
//! file that Perfetto (<https://ui.perfetto.dev>) opens directly with one
//! track per destination board and one row per wavelength.
//!
//! The workload is the paper's 64-node system under complement traffic
//! with a deterministic fault plan (a receiver outage that DBR must route
//! around, a CDR relock burst, an LS token loss), so the trace shows all
//! three reconfiguration stories at once.
//!
//! Every point also runs twice — once on the env-selected worker pool and
//! once sequentially — and the two JSONL serializations are compared
//! byte-for-byte, making the determinism contract (same seed → same
//! trace, any thread count) an executable claim rather than a comment.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin tracereport
//! ERAPID_TRACE=/tmp/erapid.jsonl ERAPID_QUICK=1 \
//!     cargo run --release -p erapid-bench --bin tracereport
//! ```
//!
//! Outputs: `ERAPID_TRACE` path (default `results/trace.jsonl`) plus a
//! `<stem>.trace.json` Chrome trace next to it.

use erapid_bench::BenchConfig;
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::RunTrace;
use erapid_core::faults::{FaultKind, FaultPlan};
use erapid_core::runner::{run_points, RunPoint};
use erapid_telemetry::{jsonl, TraceConfig, TraceEvent};
use netstats::table::Table;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use traffic::pattern::TrafficPattern;

const RELOCK_PENALTY: u64 = 500;
const STORM_SEED: u64 = 42;

/// The showcase fault plan: one of each reconfiguration story.
fn fault_plan(window: u64, quick: bool) -> FaultPlan {
    let (down, up) = if quick {
        (3 * window / 2, 5 * window / 2)
    } else {
        (4 * window, 6 * window)
    };
    let storm_count = if quick { 4 } else { 16 };
    let mut plan = FaultPlan::relock_storm(STORM_SEED, 8, down, up, storm_count, RELOCK_PENALTY);
    // Complement's hot flow 0→7 rides λ1; kill its receiver for two windows.
    plan.push(
        down,
        FaultKind::ReceiverDown {
            board: 7,
            wavelength: 1,
        },
    );
    plan.push(
        up,
        FaultKind::ReceiverRepair {
            board: 7,
            wavelength: 1,
        },
    );
    plan.push(2 * window + 10, FaultKind::TokenLoss { victim: 3 });
    plan
}

fn point(bench: &BenchConfig, load: f64) -> RunPoint {
    let mut cfg = SystemConfig::paper64(NetworkMode::PB);
    cfg.trace = TraceConfig::on();
    cfg.faults = fault_plan(cfg.schedule.window, bench.quick);
    let plan = bench.plan(cfg.schedule.window);
    RunPoint::new(cfg, TrafficPattern::Complement, load, plan)
}

/// Serializes a batch of per-point traces as one JSONL document: a header
/// line per point, then its records.
fn batch_jsonl(loads: &[f64], traces: &[RunTrace]) -> String {
    let mut out = String::new();
    for (load, trace) in loads.iter().zip(traces) {
        out.push_str(&format!(
            "{{\"point\":{{\"mode\":\"P-B\",\"pattern\":\"complement\",\"load\":{load},\"events\":{},\"dropped\":{}}}}}\n",
            trace.records.len(),
            trace.dropped
        ));
        out.push_str(&jsonl(&trace.records));
    }
    out
}

fn chrome_path(jsonl_path: &Path) -> PathBuf {
    let stem = jsonl_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace");
    jsonl_path.with_file_name(format!("{stem}.trace.json"))
}

fn main() {
    let bench = BenchConfig::from_env();
    let loads: Vec<f64> = if bench.quick {
        vec![0.5]
    } else {
        vec![0.3, 0.5, 0.7]
    };
    println!(
        "=== tracereport: paper64 P-B, complement, faulted, loads {loads:?} on {} threads ===\n",
        bench.threads
    );

    let points: Vec<RunPoint> = loads.iter().map(|&l| point(&bench, l)).collect();
    let seq_points = points.clone();
    let traced = run_points(bench.threads, points);
    let results: Vec<_> = traced.iter().map(|o| o.result).collect();
    let traces: Vec<_> = traced.into_iter().map(|o| o.trace).collect();
    let par_doc = batch_jsonl(&loads, &traces);

    // Determinism check: the same points on one worker must serialize to
    // the same bytes.
    let one = NonZeroUsize::MIN;
    let seq_traced = run_points(one, seq_points);
    let seq_traces: Vec<_> = seq_traced.into_iter().map(|o| o.trace).collect();
    let seq_doc = batch_jsonl(&loads, &seq_traces);
    assert_eq!(
        par_doc, seq_doc,
        "trace must be byte-identical across thread counts"
    );
    println!(
        "determinism check: {} threads vs sequential -> byte-identical ({} bytes)\n",
        bench.threads,
        par_doc.len()
    );

    // Headline point: the middle load.
    let hi = loads.len() / 2;
    let (head_load, head_trace, head_result) = (loads[hi], &traces[hi], &results[hi]);

    // Per-window timeline from the metric registry.
    let mut cols = vec!["window".to_string()];
    cols.extend(head_trace.counter_names.iter().cloned());
    cols.extend(head_trace.gauge_names.iter().cloned());
    let mut t = Table::new(cols).with_title(format!(
        "[P-B complement load {head_load}] per-window telemetry ({} events, {} dropped)",
        head_trace.records.len(),
        head_trace.dropped
    ));
    for w in &head_trace.windows {
        let mut row = vec![format!("{}", w.window)];
        row.extend(w.counters.iter().map(|c| format!("{c}")));
        row.extend(w.gauges.iter().map(|g| format!("{g:.1}")));
        t.row(row);
    }
    println!("{}", t.render());

    // Fault timeline: every injected fault with its cycle and target.
    let mut ft = Table::new(vec!["cycle", "fault", "board", "dest", "λ"])
        .with_title("fault timeline".to_string());
    for rec in &head_trace.records {
        if let TraceEvent::Fault {
            label,
            board,
            dest,
            wavelength,
        } = rec.event
        {
            let lam = if wavelength == 0 {
                "-".to_string()
            } else {
                format!("{wavelength}")
            };
            let repair = if label.is_repair() { " (repair)" } else { "" };
            ft.row(vec![
                format!("{}", rec.at),
                format!("{}{repair}", label.name()),
                format!("{board}"),
                format!("{dest}"),
                lam,
            ]);
        }
    }
    println!("{}", ft.render());
    println!(
        "headline run: thr {:.4} pkt/n/c, latency {:.1}, power {:.1} mW, {} grants, {} retunes, {} ls_retries",
        head_result.throughput,
        head_result.latency,
        head_result.power_mw,
        head_result.grants,
        head_result.retunes,
        head_result.ls_retries
    );

    // Files: JSONL of every point, Chrome trace of the headline point.
    let jsonl_path = bench
        .trace
        .clone()
        .unwrap_or_else(|| bench.results_dir().join("trace.jsonl"));
    if let Some(dir) = jsonl_path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&jsonl_path, &par_doc) {
        Ok(()) => println!("\nwrote {}", jsonl_path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", jsonl_path.display()),
    }
    let chrome = chrome_path(&jsonl_path);
    match std::fs::write(&chrome, erapid_telemetry::chrome_trace(&head_trace.records)) {
        Ok(()) => println!(
            "wrote {} (open at https://ui.perfetto.dev)",
            chrome.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", chrome.display()),
    }

    // A dropped event is a silently incomplete trace — every downstream
    // artifact (JSONL, Chrome trace, window tables) would be missing
    // data without saying so. Surface it loudly and fail the run.
    let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        for (load, trace) in loads.iter().zip(&traces) {
            if trace.dropped > 0 {
                eprintln!(
                    "ERROR: load {load}: {} trace events dropped (ring capacity exceeded)",
                    trace.dropped
                );
            }
        }
        eprintln!(
            "ERROR: {dropped} events dropped total — raise TraceConfig capacity or stream the trace (see marathon)"
        );
        std::process::exit(1);
    }
    println!("dropped events: 0 across all points");
}
