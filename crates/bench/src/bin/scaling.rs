//! Scaling study: how E-RAPID's reconfiguration gains and control-plane
//! overhead grow with board count — the dimension the paper's conclusion
//! cares about ("the dynamic bandwidth reallocation techniques proposed in
//! this paper provides complete flexibility to re-allocate all system
//! bandwidth").
//!
//! Sweeps B ∈ {4, 8, 16, 32} boards (D = 8 nodes each), complement traffic
//! (DBR's best case) and uniform (its no-op case), comparing NP-NB and
//! P-B, and reporting the five-stage protocol latency as a fraction of
//! `R_w`. All 16 runs fan out over the worker pool (`ERAPID_THREADS`).
//!
//! Besides the table, the run writes `SCALING_<git-sha>.json` with per-B
//! wall times, a per-phase breakdown (one profiled P-B complement run per
//! B), memory figures (analytic per-system footprint + process peak
//! RSS) and a per-B sharded-vs-sequential speedup column (one P-B
//! complement point timed with the board-sharded engine, DESIGN.md §12,
//! against the sequential engine — identical results asserted), so the
//! O(B²) state and O(B³) channel-bank growth *and* the intra-point
//! parallel yield are tracked across commits. A `route_comparison` object
//! additionally pins this run's B=32 route-phase cycles/sec against the
//! best committed artifact, so router hot-path speedups (e.g. the bitset
//! rewrite, DESIGN.md §16) are visible in the artifact trajectory. The JSON records the actual
//! run-level and point-level worker counts in use plus the machine's
//! hardware thread count, so a figure from a 1-core CI box is
//! distinguishable from a workstation run.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin scaling
//! ```

use erapid_bench::{git_sha, BenchConfig};
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::default_plan;
use erapid_core::runner::{available_threads, run_points, RunPoint};
use erapid_core::system::PhaseTimers;
use erapid_core::System;
use netstats::table::Table;
use reconfig::stages::ProtocolTiming;
use std::num::NonZeroUsize;
use traffic::pattern::TrafficPattern;

const BOARDS: [u16; 4] = [4, 8, 16, 32];
const LOAD: f64 = 0.6;

fn config(boards: u16, mode: NetworkMode) -> SystemConfig {
    let mut cfg = SystemConfig::paper64(mode);
    cfg.boards = boards;
    cfg.nodes_per_board = 8;
    cfg.timing = ProtocolTiming {
        boards,
        lcs_per_board: 8,
        ..ProtocolTiming::paper64()
    };
    cfg
}

fn point(boards: u16, mode: NetworkMode, pattern: &TrafficPattern, load: f64) -> RunPoint {
    let cfg = config(boards, mode);
    let plan = default_plan(cfg.schedule.window);
    RunPoint::new(cfg, pattern.clone(), load, plan)
}

/// Peak resident set size in kB (`VmHWM` from /proc, Linux only; 0
/// elsewhere).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Extracts `"<key>": <number>` from a JSON fragment (no serde in the
/// workspace — the artifact format is ours, a string scan is exact
/// enough).
fn parse_num(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Best committed B=32 route-phase rate: scans `SCALING_*.json` artifacts
/// in the working directory for the B=32 phase profile and returns
/// (file, route-phase cycles/sec). This is the "before" of the route
/// comparison row — the current run supplies the "after", making router
/// hot-path speedups visible in the committed artifact trajectory.
fn committed_route_rate() -> Option<(String, f64)> {
    let mut best: Option<(String, f64)> = None;
    for entry in std::fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("SCALING_") && name.ends_with(".json")) {
            continue;
        }
        let Ok(json) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        // The B=32 entry under "phase_profiles" (the "rows" array above it
        // also mentions boards 32, so anchor past the key first).
        let Some(profs) = json.find("\"phase_profiles\"") else {
            continue;
        };
        let tail = &json[profs..];
        let Some(b32) = tail.find("\"boards\": 32") else {
            continue;
        };
        let seg = match tail[b32..].find('}') {
            Some(e) => &tail[b32..b32 + e],
            None => &tail[b32..],
        };
        let (Some(cycles), Some(route_s)) = (parse_num(seg, "cycles"), parse_num(seg, "route_s"))
        else {
            continue;
        };
        if route_s <= 0.0 {
            continue;
        }
        let rate = cycles / route_s;
        if best.as_ref().is_none_or(|(_, r)| rate > *r) {
            best = Some((name, rate));
        }
    }
    best
}

/// Per-B profile: one P-B complement run stepped with phase timers, plus
/// the system's analytic memory footprint.
struct BoardProfile {
    boards: u16,
    cycles: u64,
    timers: PhaseTimers,
    memory_bytes: usize,
}

/// One P-B complement point timed with the sequential engine and again
/// with the board-sharded engine on `workers` workers, results asserted
/// identical.
struct Speedup {
    boards: u16,
    workers: usize,
    seq_wall_s: f64,
    sharded_wall_s: f64,
}

impl Speedup {
    fn ratio(&self) -> f64 {
        self.seq_wall_s / self.sharded_wall_s.max(1e-9)
    }
}

fn speedup(boards: u16, workers: NonZeroUsize) -> Speedup {
    let run = |pt: NonZeroUsize| {
        let out = point(boards, NetworkMode::PB, &TrafficPattern::Complement, LOAD).execute(pt);
        (out.result, out.wall.as_secs_f64())
    };
    let (seq, seq_wall_s) = run(NonZeroUsize::MIN);
    let (sharded, sharded_wall_s) = run(workers);
    assert_eq!(
        seq, sharded,
        "B={boards}: sharded run diverged from sequential"
    );
    Speedup {
        boards,
        workers: workers.get(),
        seq_wall_s,
        sharded_wall_s,
    }
}

fn profile(boards: u16) -> BoardProfile {
    let cfg = config(boards, NetworkMode::PB);
    let plan = default_plan(cfg.schedule.window);
    let mut sys = System::new(cfg, TrafficPattern::Complement, LOAD, plan);
    let memory_bytes = sys.approx_memory_bytes();
    let mut timers = PhaseTimers::default();
    while sys.now() < plan.max_cycles && !sys.metrics().tracker.complete(&plan, sys.now()) {
        sys.step_profiled(&mut timers);
    }
    let cycles = sys.now();
    BoardProfile {
        boards,
        cycles,
        timers,
        memory_bytes,
    }
}

fn main() {
    let bench = BenchConfig::from_env();
    let sha = git_sha();
    println!("=== scaling with board count (D = 8, load {LOAD}) @ {sha} ===\n");

    // One (NP-NB, P-B) pair per (boards, pattern) row, flattened in row
    // order so the parallel results zip straight back onto the table.
    let grid: Vec<(u16, TrafficPattern)> = BOARDS
        .iter()
        .flat_map(|&b| {
            [TrafficPattern::Complement, TrafficPattern::Uniform]
                .into_iter()
                .map(move |p| (b, p))
        })
        .collect();
    let points: Vec<RunPoint> = grid
        .iter()
        .flat_map(|(boards, pattern)| {
            [NetworkMode::NpNb, NetworkMode::PB]
                .into_iter()
                .map(|mode| point(*boards, mode, pattern, LOAD))
        })
        .collect();
    let timed: Vec<_> = run_points(bench.threads, bench.point_threads, points)
        .into_iter()
        .map(|o| (o.result, o.wall))
        .collect();

    let mut t = Table::new(vec![
        "boards",
        "nodes",
        "pattern",
        "NP-NB thr",
        "P-B thr",
        "gain",
        "NP-NB pwr",
        "P-B pwr",
        "grants",
        "dbr latency",
        "of R_w",
        "wall",
    ])
    .with_title("complement gains grow with the wavelengths available to borrow");
    for (i, (boards, pattern)) in grid.iter().enumerate() {
        let (base, base_wall) = &timed[2 * i];
        let (pb, pb_wall) = &timed[2 * i + 1];
        let timing = config(*boards, NetworkMode::PB).timing;
        t.row(vec![
            format!("{boards}"),
            format!("{}", *boards as u32 * 8),
            pattern.name().to_string(),
            format!("{:.4}", base.throughput),
            format!("{:.4}", pb.throughput),
            format!("{:.2}x", pb.throughput / base.throughput.max(1e-12)),
            format!("{:.0}", base.power_mw),
            format!("{:.0}", pb.power_mw),
            format!("{}", pb.grants),
            format!("{} cyc", timing.dbr_latency()),
            format!("{:.1}%", timing.dbr_latency() as f64 / 2000.0 * 100.0),
            format!("{:.2}s", base_wall.as_secs_f64() + pb_wall.as_secs_f64()),
        ]);
    }
    println!("{}", t.render());
    println!("Reading: under complement, a B-board system leaves B-2 idle");
    println!("wavelengths per destination for DBR to hand to the hot flow, so");
    println!("the P-B gain grows with B (2.7x at 4 boards, ~6x at 8) until");
    println!("the destination board's electrical ingress becomes the new");
    println!("bottleneck (the 16-board gain plateaus — all reconfigured");
    println!("wavelengths funnel into one board's IBI). The control-plane");
    println!("cost grows linearly in B but stays a few percent of the fixed");
    println!("2000-cycle window. Uniform stays a no-op at every scale.");

    println!("\nper-B phase profile (P-B complement, one run each):");
    let profiles: Vec<BoardProfile> = BOARDS.iter().map(|&b| profile(b)).collect();
    for p in &profiles {
        let total = p.timers.total().as_secs_f64().max(1e-9);
        let pct = |d: std::time::Duration| 100.0 * d.as_secs_f64() / total;
        println!(
            "  B={:<3} {:>8} cycles  {:>7.2}s  mem ~{:>6.1} MiB  \
             reconfig {:>4.1}%  inject {:>4.1}%  route {:>4.1}%  optical {:>4.1}%  stats {:>4.1}%",
            p.boards,
            p.cycles,
            total,
            p.memory_bytes as f64 / (1024.0 * 1024.0),
            pct(p.timers.reconfig),
            pct(p.timers.inject),
            pct(p.timers.route),
            pct(p.timers.optical),
            pct(p.timers.stats),
        );
    }
    let rss = peak_rss_kb();
    println!("  peak RSS: {rss} kB");

    // Route-phase before/after at B=32: this run's route rate against the
    // best committed SCALING artifact (read before this run's file is
    // written, so "before" is always a prior commit's number).
    let b32 = profiles
        .last()
        .expect("BOARDS sweep is non-empty, ends at B=32");
    let b32_route_s = b32.timers.route.as_secs_f64();
    let after_rate = b32.cycles as f64 / b32_route_s.max(1e-9);
    let before = committed_route_rate();
    let route_cmp_json = match &before {
        Some((file, before_rate)) => {
            println!(
                "\nroute-phase comparison (B=32, P-B complement): \
                 {before_rate:.0} -> {after_rate:.0} route cycles/sec \
                 ({:.2}x vs {file})",
                after_rate / before_rate.max(1e-9)
            );
            format!(
                "  \"route_comparison\": {{\"boards\": 32, \"cycles\": {}, \"route_s\": {:.6}, \"route_cycles_per_sec\": {:.0}, \"baseline_file\": \"{}\", \"baseline_route_cycles_per_sec\": {:.0}, \"speedup_vs_baseline\": {:.3}}},\n",
                b32.cycles,
                b32_route_s,
                after_rate,
                file,
                before_rate,
                after_rate / before_rate.max(1e-9),
            )
        }
        None => {
            println!(
                "\nroute-phase comparison (B=32): {after_rate:.0} route cycles/sec \
                 (no committed SCALING baseline found)"
            );
            format!(
                "  \"route_comparison\": {{\"boards\": 32, \"cycles\": {}, \"route_s\": {:.6}, \"route_cycles_per_sec\": {:.0}, \"baseline_file\": null}},\n",
                b32.cycles, b32_route_s, after_rate,
            )
        }
    };

    // Per-B intra-point yield: the board-sharded engine against the
    // sequential one, same point, identical results asserted. Worker
    // count: the ERAPID_POINT_THREADS knob when set above 1, else up to 4
    // hardware threads (a 1-core box honestly reports ~1x).
    let shard_workers = if bench.point_threads.get() > 1 {
        bench.point_threads
    } else {
        NonZeroUsize::new(available_threads().get().min(4)).unwrap_or(NonZeroUsize::MIN)
    };
    println!(
        "\nper-B sharded-vs-sequential speedup (P-B complement, {} workers):",
        shard_workers
    );
    let speedups: Vec<Speedup> = BOARDS.iter().map(|&b| speedup(b, shard_workers)).collect();
    for s in &speedups {
        println!(
            "  B={:<3} seq {:>7.2}s  sharded {:>7.2}s  speedup {:.2}x",
            s.boards,
            s.seq_wall_s,
            s.sharded_wall_s,
            s.ratio()
        );
    }

    let row_json: Vec<String> = grid
        .iter()
        .enumerate()
        .map(|(i, (boards, pattern))| {
            let (base, base_wall) = &timed[2 * i];
            let (pb, pb_wall) = &timed[2 * i + 1];
            format!(
                "    {{\"boards\": {boards}, \"pattern\": \"{}\", \"npnb_throughput\": {:.6}, \"pb_throughput\": {:.6}, \"npnb_power_mw\": {:.3}, \"pb_power_mw\": {:.3}, \"pb_grants\": {}, \"npnb_wall_s\": {:.6}, \"pb_wall_s\": {:.6}}}",
                pattern.name(),
                base.throughput,
                pb.throughput,
                base.power_mw,
                pb.power_mw,
                pb.grants,
                base_wall.as_secs_f64(),
                pb_wall.as_secs_f64(),
            )
        })
        .collect();
    let profile_json: Vec<String> = profiles
        .iter()
        .map(|p| {
            format!(
                "    {{\"boards\": {}, \"cycles\": {}, \"memory_bytes\": {}, \"reconfig_s\": {:.6}, \"inject_s\": {:.6}, \"route_s\": {:.6}, \"optical_s\": {:.6}, \"stats_s\": {:.6}}}",
                p.boards,
                p.cycles,
                p.memory_bytes,
                p.timers.reconfig.as_secs_f64(),
                p.timers.inject.as_secs_f64(),
                p.timers.route.as_secs_f64(),
                p.timers.optical.as_secs_f64(),
                p.timers.stats.as_secs_f64(),
            )
        })
        .collect();
    let speedup_json: Vec<String> = speedups
        .iter()
        .map(|s| {
            format!(
                "    {{\"boards\": {}, \"workers\": {}, \"seq_wall_s\": {:.6}, \"sharded_wall_s\": {:.6}, \"speedup\": {:.4}, \"sharded_identical\": true}}",
                s.boards,
                s.workers,
                s.seq_wall_s,
                s.sharded_wall_s,
                s.ratio(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"git_sha\": \"{sha}\",\n  \"threads\": {threads},\n  \"point_threads\": {point_threads},\n  \"hw_threads\": {hw_threads},\n  \"workload\": {{\"nodes_per_board\": 8, \"boards\": [4, 8, 16, 32], \"load\": {LOAD}, \"patterns\": [\"complement\", \"uniform\"], \"modes\": [\"NP-NB\", \"P-B\"]}},\n  \"rows\": [\n{rows}\n  ],\n  \"phase_profiles\": [\n{profs}\n  ],\n  \"sharded_speedups\": [\n{speedups}\n  ],\n{route_cmp}  \"peak_rss_kb\": {rss}\n}}\n",
        route_cmp = route_cmp_json,
        threads = bench.threads,
        point_threads = bench.point_threads,
        hw_threads = available_threads(),
        rows = row_json.join(",\n"),
        profs = profile_json.join(",\n"),
        speedups = speedup_json.join(",\n"),
    );
    let path = format!("SCALING_{sha}.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
