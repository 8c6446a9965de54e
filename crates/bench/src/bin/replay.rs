//! Trace-driven replay harness: packet-for-packet conformance across the
//! four network configurations.
//!
//! The figure benches compare configurations distribution-wise — each mode
//! sees a *statistically* identical Bernoulli workload, not the same
//! packets. This bin closes that gap:
//!
//! 1. **record** one NP-NB run with injection recording on, stamping the
//!    trace with its provenance (seed, pattern, load, B×D, git sha),
//! 2. **persist** it in both on-disk formats (compact binary `.ertr` +
//!    JSONL interchange), load it back and verify the checksummed
//!    round trip,
//! 3. **conform**: replay the trace against the recording configuration
//!    and assert the original `RunResult` is reproduced byte-identically —
//!    and that the parallel executor replays byte-identically to the
//!    sequential one,
//! 4. **diff**: replay the identical workload across NP-NB, P-NB, NP-B
//!    and P-B with per-packet delivery logging, and report per-packet
//!    latency deltas against the NP-NB baseline plus per-window divergence
//!    keyed to the DPM/DBR activity telemetry recorded in each window.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin replay
//! ERAPID_QUICK=1 cargo run --release -p erapid-bench --bin replay
//! ```
//!
//! Outputs under `ERAPID_RESULTS` (default `results/`):
//! `workload_<sha>.ertr`, `workload_<sha>.trace.jsonl` and
//! `REPLAY_<sha>.json`.

use erapid_bench::{git_sha, BenchConfig};
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::{RunResult, RunTrace};
use erapid_core::metrics::PacketDelivery;
use erapid_core::runner::{run_points, RunPoint};
use erapid_telemetry::TraceConfig;
use netstats::table::Table;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::sync::Arc;
use traffic::pattern::TrafficPattern;
use traffic::trace::InjectionTrace;

/// The workload every mode replays: uniform at mid load, where DPM has
/// headroom to scale down and DBR still sees imbalance worth chasing.
const LOAD: f64 = 0.5;
const PATTERN: TrafficPattern = TrafficPattern::Uniform;
/// Largest per-packet deltas listed in the report.
const TOP_DELTAS: usize = 10;

fn recording_config() -> SystemConfig {
    SystemConfig::paper64(NetworkMode::NpNb)
}

/// A replay point for `mode`: same geometry and seed as the recording,
/// packet logging and telemetry on.
fn replay_point(bench: &BenchConfig, trace: &Arc<InjectionTrace>, mode: NetworkMode) -> RunPoint {
    let mut cfg = SystemConfig::paper64(mode);
    cfg.packet_log = true;
    cfg.trace = TraceConfig::on();
    let plan = bench.plan(cfg.schedule.window);
    RunPoint::replay(cfg, Arc::clone(trace), plan)
}

/// Per-packet latency of every delivered packet, indexed by packet id.
fn latency_by_id(packets: &[PacketDelivery]) -> Vec<Option<(u64, u64)>> {
    let max_id = packets.iter().map(|p| p.id).max().map_or(0, |m| m + 1);
    let mut out = vec![None; max_id as usize];
    for p in packets {
        out[p.id as usize] = Some((p.injected_at, p.delivered_at - p.injected_at));
    }
    out
}

/// One mode's packet-for-packet comparison against the baseline.
struct ModeDiff {
    mode: NetworkMode,
    result: RunResult,
    matched: u64,
    missing: u64,
    extra: u64,
    mean_delta: f64,
    max_abs_delta: i64,
    p95_abs_delta: i64,
    /// `(id, injected_at, base_latency, mode_latency)` of the largest
    /// absolute deltas, worst first.
    top: Vec<(u64, u64, u64, u64)>,
    /// Per-window rows: `(window, packets, mean_delta, dpm_retunes,
    /// dbr_grants)` keyed by the *injection* window of each packet.
    windows: Vec<(u64, u64, f64, u64, u64)>,
}

fn diff_mode(
    mode: NetworkMode,
    result: RunResult,
    base: &[Option<(u64, u64)>],
    trace: &RunTrace,
    window: u64,
) -> ModeDiff {
    let ours = latency_by_id(&trace.packets);
    let mut matched = 0u64;
    let mut missing = 0u64;
    let mut extra = 0u64;
    let mut deltas: Vec<(i64, u64, u64, u64, u64)> = Vec::new(); // (delta, id, injected, base_lat, our_lat)
    for id in 0..base.len().max(ours.len()) {
        let b = base.get(id).copied().flatten();
        let o = ours.get(id).copied().flatten();
        match (b, o) {
            (Some((inj, bl)), Some((_, ol))) => {
                matched += 1;
                deltas.push((ol as i64 - bl as i64, id as u64, inj, bl, ol));
            }
            (Some(_), None) => missing += 1,
            (None, Some(_)) => extra += 1,
            (None, None) => {}
        }
    }
    let mean_delta = if deltas.is_empty() {
        0.0
    } else {
        deltas.iter().map(|d| d.0 as f64).sum::<f64>() / deltas.len() as f64
    };
    let mut by_abs: Vec<i64> = deltas.iter().map(|d| d.0.abs()).collect();
    by_abs.sort_unstable();
    let max_abs_delta = by_abs.last().copied().unwrap_or(0);
    let p95_abs_delta = if by_abs.is_empty() {
        0
    } else {
        by_abs[(by_abs.len() - 1) * 95 / 100]
    };
    let mut worst = deltas.clone();
    // Deterministic order: by |delta| descending, id ascending as the tie
    // breaker.
    worst.sort_by(|a, b| b.0.abs().cmp(&a.0.abs()).then(a.1.cmp(&b.1)));
    let top = worst
        .iter()
        .take(TOP_DELTAS)
        .map(|&(_, id, inj, bl, ol)| (id, inj, bl, ol))
        .collect();

    // Per-window divergence: bucket matched packets by injection window,
    // then join the mode's DPM/DBR counter deltas for the same window.
    let max_win = deltas.iter().map(|d| d.2 / window).max().unwrap_or(0);
    let mut sums = vec![(0u64, 0i64); max_win as usize + 1];
    for &(delta, _, inj, _, _) in &deltas {
        let w = (inj / window) as usize;
        sums[w].0 += 1;
        sums[w].1 += delta;
    }
    let counter_col = |name: &str| trace.counter_names.iter().position(|n| n == name);
    let retune_col = counter_col("dpm_retunes");
    let grant_col = counter_col("dbr_grants");
    let windows = sums
        .iter()
        .enumerate()
        .filter(|(_, (n, _))| *n > 0)
        .map(|(w, &(n, sum))| {
            // WindowSnapshot indices count boundaries from 1; boundary k
            // closes the window covering cycles [(k-1)·R_w, k·R_w).
            let snap = trace.windows.iter().find(|s| s.window == w as u64 + 1);
            let col = |c: Option<usize>| snap.and_then(|s| c.map(|i| s.counters[i])).unwrap_or(0);
            (
                w as u64,
                n,
                sum as f64 / n as f64,
                col(retune_col),
                col(grant_col),
            )
        })
        .collect();
    ModeDiff {
        mode,
        result,
        matched,
        missing,
        extra,
        mean_delta,
        max_abs_delta,
        p95_abs_delta,
        top,
        windows,
    }
}

fn result_json(r: &RunResult) -> String {
    format!(
        "{{\"load\":{},\"throughput\":{},\"latency\":{},\"latency_p95\":{},\"power_mw\":{},\"undrained\":{},\"grants\":{},\"retunes\":{},\"cycles\":{}}}",
        r.load,
        r.throughput,
        r.latency,
        r.latency_p95,
        r.power_mw,
        r.undrained,
        r.grants,
        r.retunes,
        r.cycles
    )
}

/// Renders the full report (also the byte-string compared between the
/// parallel and sequential replays).
fn report_json(sha: &str, quick: bool, trace: &InjectionTrace, diffs: &[ModeDiff]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"git_sha\": \"{sha}\",\n  \"quick\": {quick},\n  \"workload\": {{\"pattern\": \"{}\", \"load\": {}, \"seed\": {}, \"boards\": {}, \"nodes_per_board\": {}, \"entries\": {}, \"checksum\": \"{:016x}\"}},\n  \"baseline_mode\": \"NP-NB\",\n  \"modes\": [",
        trace.meta.pattern,
        trace.meta.load,
        trace.meta.seed,
        trace.meta.boards,
        trace.meta.nodes_per_board,
        trace.entries.len(),
        trace.checksum(),
    );
    for (i, d) in diffs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"mode\": \"{}\", \"result\": {}, \"diff\": {{\"matched\": {}, \"missing_vs_baseline\": {}, \"extra_vs_baseline\": {}, \"mean_latency_delta\": {}, \"max_abs_delta\": {}, \"p95_abs_delta\": {}, \"top_deltas\": [",
            d.mode.name(),
            result_json(&d.result),
            d.matched,
            d.missing,
            d.extra,
            d.mean_delta,
            d.max_abs_delta,
            d.p95_abs_delta,
        );
        for (j, &(id, inj, bl, ol)) in d.top.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            // Packet ids are injection-order, so id k is entry k of the
            // trace: recover the packet's src/dst from its provenance.
            let (src, dst) = trace
                .entries
                .get(id as usize)
                .map_or((0, 0), |e| (e.src, e.dst));
            let _ = write!(
                out,
                "{sep}{{\"id\": {id}, \"src\": {src}, \"dst\": {dst}, \"injected_at\": {inj}, \"baseline_latency\": {bl}, \"latency\": {ol}, \"delta\": {}}}",
                ol as i64 - bl as i64
            );
        }
        out.push_str("], \"windows\": [");
        for (j, &(w, n, mean, retunes, grants)) in d.windows.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"window\": {w}, \"packets\": {n}, \"mean_latency_delta\": {mean}, \"dpm_retunes\": {retunes}, \"dbr_grants\": {grants}}}"
            );
        }
        out.push_str("]}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn main() {
    let bench = BenchConfig::from_env();
    let sha = git_sha();
    println!(
        "=== replay: record paper64 NP-NB uniform load {LOAD}, replay across 4 modes on {} threads ===\n",
        bench.threads
    );

    // 1. Record the workload.
    let mut cfg = recording_config();
    cfg.record_injections = true;
    let plan = bench.plan(cfg.schedule.window);
    let recorded = RunPoint::new(cfg, PATTERN, LOAD, plan).execute();
    let recorded_result = recorded.result;
    let mut trace = recorded.recording.expect("recording is on");
    trace.meta.git_sha = sha.clone();
    println!(
        "recorded {} injections over {} cycles (checksum {:016x})",
        trace.entries.len(),
        recorded_result.cycles,
        trace.checksum()
    );

    // 2. Persist both formats and verify the round trip.
    let dir = bench.results_dir();
    let bin_path = dir.join(format!("workload_{sha}.ertr"));
    let jsonl_path = dir.join(format!("workload_{sha}.trace.jsonl"));
    if let Err(e) = trace.save(&bin_path) {
        eprintln!("could not write {}: {e}", bin_path.display());
    }
    if let Err(e) = trace.save_jsonl(&jsonl_path) {
        eprintln!("could not write {}: {e}", jsonl_path.display());
    }
    let reloaded = InjectionTrace::load(&bin_path).expect("binary trace round trip");
    assert_eq!(reloaded, trace, "binary round trip must be lossless");
    let reloaded_jsonl = InjectionTrace::load_jsonl(&jsonl_path).expect("JSONL trace round trip");
    assert_eq!(reloaded_jsonl, trace, "JSONL round trip must be lossless");
    println!(
        "persisted + reloaded both formats: {} and {}",
        bin_path.display(),
        jsonl_path.display()
    );

    // 3. Conformance: self-replay reproduces the recording byte-identically.
    let trace = Arc::new(reloaded);
    let self_replay = RunPoint::replay(recording_config(), Arc::clone(&trace), plan)
        .execute()
        .result;
    assert_eq!(
        self_replay, recorded_result,
        "replay against the recording configuration must reproduce the RunResult byte-identically"
    );
    println!("self-replay conformance: RunResult byte-identical to the recording\n");

    // 4. Replay across all four modes, parallel and sequential.
    let points: Vec<RunPoint> = NetworkMode::all()
        .iter()
        .map(|&m| replay_point(&bench, &trace, m))
        .collect();
    let seq_points = points.clone();
    let window = recording_config().schedule.window;
    let one = NonZeroUsize::MIN;
    let replayed = run_points(bench.threads, points);
    let diffs = {
        let base = latency_by_id(&replayed[0].trace.packets);
        NetworkMode::all()
            .iter()
            .zip(&replayed)
            .map(|(&m, o)| diff_mode(m, o.result, &base, &o.trace, window))
            .collect::<Vec<_>>()
    };
    let report = report_json(&sha, bench.quick, &trace, &diffs);

    let seq_replayed = run_points(one, seq_points);
    let seq_diffs = {
        let base = latency_by_id(&seq_replayed[0].trace.packets);
        NetworkMode::all()
            .iter()
            .zip(&seq_replayed)
            .map(|(&m, o)| diff_mode(m, o.result, &base, &o.trace, window))
            .collect::<Vec<_>>()
    };
    let seq_report = report_json(&sha, bench.quick, &trace, &seq_diffs);
    assert_eq!(
        report, seq_report,
        "replay report must be byte-identical across thread counts"
    );
    println!(
        "determinism check: {} threads vs sequential -> byte-identical report ({} bytes)\n",
        bench.threads,
        report.len()
    );

    // Console summary.
    let mut t = Table::new(vec![
        "mode",
        "delivered",
        "latency",
        "power mW",
        "mean Δlat",
        "p95 |Δ|",
        "max |Δ|",
        "missing",
    ])
    .with_title(format!(
        "packet-for-packet replay vs NP-NB baseline ({} packets recorded)",
        trace.entries.len()
    ));
    for d in &diffs {
        t.row(vec![
            d.mode.name().to_string(),
            format!("{}", d.matched + d.extra),
            format!("{:.1}", d.result.latency),
            format!("{:.1}", d.result.power_mw),
            format!("{:+.2}", d.mean_delta),
            format!("{}", d.p95_abs_delta),
            format!("{}", d.max_abs_delta),
            format!("{}", d.missing),
        ]);
    }
    println!("{}", t.render());

    // The baseline diffed against itself must be empty — the executable
    // form of "record → replay → diff is empty on the identical config".
    let self_diff = &diffs[0];
    assert_eq!(
        (self_diff.missing, self_diff.extra, self_diff.max_abs_delta),
        (0, 0, 0),
        "identical-configuration replay must diff empty"
    );
    println!("baseline self-diff: empty (0 missing, 0 extra, max |Δ| = 0)");

    let report_path = dir.join(format!("REPLAY_{sha}.json"));
    match std::fs::write(&report_path, &report) {
        Ok(()) => println!("\nwrote {}", report_path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", report_path.display()),
    }
}
