#![forbid(unsafe_code)]
//! Shared harness for the figure/table regeneration binaries.
//!
//! Every binary prints the same rows/series the paper reports and drops a
//! CSV next to the console output (under `results/`, created on demand).
//!
//! Environment knobs — parsed **once** in each binary's `main` by
//! [`BenchConfig::from_env`] and passed down as plain values (library code
//! never reads the environment, so tests can construct any configuration
//! without process-wide races):
//! * `ERAPID_QUICK=1` — quarter-length runs and a 3-point load axis, for
//!   smoke-testing the binaries.
//! * `ERAPID_RESULTS=<dir>` — where CSVs are written (default `results`).
//! * `ERAPID_THREADS=<n>` — worker threads for the run-level executor
//!   (default: all available cores; results are byte-identical for any
//!   value).
//! * `ERAPID_TRACE=<path>` — where the `tracereport` binary writes its
//!   JSONL event trace (a Chrome/Perfetto trace lands next to it).
//!
//! Every binary also accepts a `--seq` escape-hatch flag (handled here in
//! [`BenchConfig::from_env`], no per-binary parsing): it forces the
//! run-level executor to a single thread, overriding `ERAPID_THREADS` —
//! for debugging and for timing baselines. Each point's cycle loop always
//! runs on one thread.

use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::{default_plan, paper_loads, RunResult};
use erapid_core::runner::{self, RunPoint};
use netstats::csv::Csv;
use netstats::table::Table;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use traffic::pattern::TrafficPattern;

pub mod timing;

/// Short commit hash, read straight from `.git` (works offline, no git
/// binary needed). "unknown" outside a checkout. Shared by the binaries
/// that stamp their JSON reports (`BENCH_<sha>.json`,
/// `RESILIENCE_<sha>.json`) so the names agree for one commit.
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let full = if let Some(refname) = head.strip_prefix("ref: ") {
        let refname = refname.trim();
        std::fs::read_to_string(format!(".git/{refname}"))
            .map(|s| s.trim().to_string())
            .ok()
            .filter(|s| !s.is_empty())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find_map(|l| {
                    let (sha, name) = l.split_once(' ')?;
                    (name == refname).then(|| sha.to_string())
                })
            })
            .unwrap_or_default()
    } else {
        head.to_string()
    };
    if full.is_empty() {
        "unknown".to_string()
    } else {
        full[..full.len().min(12)].to_string()
    }
}

/// Parsed harness configuration: every env knob, read once.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Quarter-length runs and a 3-point load axis.
    pub quick: bool,
    /// Worker threads for the run-level executor.
    pub threads: NonZeroUsize,
    /// Directory CSVs (and the perf report) are written to.
    pub results: PathBuf,
    /// Event-trace output path (`tracereport` only; `None` = default).
    pub trace: Option<PathBuf>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            quick: false,
            threads: runner::available_threads(),
            results: PathBuf::from("results"),
            trace: None,
        }
    }
}

impl BenchConfig {
    /// Reads `ERAPID_QUICK`, `ERAPID_THREADS`, `ERAPID_RESULTS` and
    /// `ERAPID_TRACE`, plus the `--seq` escape hatch from the command line
    /// (forces `threads` to 1). Binaries call this once at the top of
    /// `main`.
    pub fn from_env() -> Self {
        let seq = std::env::args().skip(1).any(|a| a == "--seq");
        Self {
            quick: std::env::var("ERAPID_QUICK")
                .map(|v| v == "1")
                .unwrap_or(false),
            threads: if seq {
                NonZeroUsize::MIN
            } else {
                runner::threads_from_env()
            },
            results: PathBuf::from(
                std::env::var("ERAPID_RESULTS").unwrap_or_else(|_| "results".into()),
            ),
            trace: std::env::var("ERAPID_TRACE")
                .ok()
                .filter(|v| !v.trim().is_empty())
                .map(PathBuf::from),
        }
    }

    /// The load axis in use (3 points in quick mode, the paper's 9
    /// otherwise).
    pub fn load_axis(&self) -> Vec<f64> {
        if self.quick {
            vec![0.1, 0.5, 0.9]
        } else {
            paper_loads()
        }
    }

    /// Results directory (created on demand).
    pub fn results_dir(&self) -> PathBuf {
        let _ = std::fs::create_dir_all(&self.results);
        self.results.clone()
    }

    /// The phase plan for a system with reconfiguration window `window`.
    pub fn plan(&self, window: desim::Cycle) -> desim::phase::PhasePlan {
        if self.quick {
            desim::phase::PhasePlan::new(window, 2 * window).with_max_cycles(10 * window)
        } else {
            default_plan(window)
        }
    }

    /// Builds the experiment point for one (mode, pattern, load) on the
    /// paper's 64-node system.
    pub fn point(&self, mode: NetworkMode, pattern: &TrafficPattern, load: f64) -> RunPoint {
        let cfg = SystemConfig::paper64(mode);
        let plan = self.plan(cfg.schedule.window);
        RunPoint::new(cfg, pattern.clone(), load, plan)
    }

    /// Runs one (mode, pattern, load) point on the paper's 64-node system.
    pub fn run_point(&self, mode: NetworkMode, pattern: &TrafficPattern, load: f64) -> RunResult {
        self.point(mode, pattern, load).execute().result
    }

    /// Runs the full panel for one pattern (the 4 curves of one figure
    /// column), fanning all mode × load points over the worker pool.
    /// Results are byte-identical to the sequential order for any thread
    /// count.
    pub fn run_panel(&self, name: &str, pattern: &TrafficPattern) -> Panel {
        let loads = self.load_axis();
        let modes = NetworkMode::all();
        eprintln!(
            "  running {} ({} modes x {} loads on {} threads) ...",
            name,
            modes.len(),
            loads.len(),
            self.threads
        );
        let points: Vec<RunPoint> = modes
            .iter()
            .flat_map(|&mode| loads.iter().map(move |&l| (mode, l)))
            .map(|(mode, l)| self.point(mode, pattern, l))
            .collect();
        let mut flat: Vec<RunResult> = runner::run_points(self.threads, points)
            .into_iter()
            .map(|o| o.result)
            .collect();
        let mut results = Vec::new();
        for &mode in modes.iter().rev() {
            let series: Vec<RunResult> = flat.split_off(flat.len() - loads.len());
            results.push((mode, series));
        }
        results.reverse();
        Panel {
            pattern: name.to_string(),
            results,
            loads,
        }
    }
}

/// Ranks labelled survival fractions worst-first and returns the `take`
/// worst labels — the scenario/resilience bins' hostile-workload picker.
///
/// Ordering is total (`f64::total_cmp`), so a NaN fraction — which a
/// buggy metric could produce — sorts *after* every real number instead
/// of scrambling the sort, and ties keep their input order (stable sort).
/// Idle runs report fraction 1.0 (see `RunResult::delivered_fraction`)
/// and therefore rank last.
pub fn rank_worst_offenders<'a>(survival: &[(f64, &'a str)], take: usize) -> Vec<&'a str> {
    let mut ranked = survival.to_vec();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked.into_iter().take(take).map(|(_, n)| n).collect()
}

/// One pattern's full panel: all four configurations across the load axis.
pub struct Panel {
    /// Pattern name.
    pub pattern: String,
    /// `results[mode][load_idx]`.
    pub results: Vec<(NetworkMode, Vec<RunResult>)>,
    /// The load axis used.
    pub loads: Vec<f64>,
}

/// Sequential reference for [`BenchConfig::run_panel`] — used by tests and
/// the perf report to prove the parallel path byte-identical.
pub fn run_panel_sequential(cfg: &BenchConfig, name: &str, pattern: &TrafficPattern) -> Panel {
    let loads = cfg.load_axis();
    let mut results = Vec::new();
    for mode in NetworkMode::all() {
        let series: Vec<RunResult> = loads
            .iter()
            .map(|&l| cfg.point(mode, pattern, l).execute().result)
            .collect();
        results.push((mode, series));
    }
    Panel {
        pattern: name.to_string(),
        results,
        loads,
    }
}

/// Prints the three sub-panels (throughput, latency, power) the paper's
/// Figures 5/6 show for one pattern, and writes a CSV.
pub fn print_panel(cfg: &BenchConfig, panel: &Panel) {
    let headers = |unit: &str| {
        let mut h = vec![format!("load ({unit})")];
        for (m, _) in &panel.results {
            h.push(m.name().to_string());
        }
        h
    };
    let mut thr = Table::new(headers("thr, pkt/node/cycle"))
        .with_title(format!("[{}] Accepted throughput", panel.pattern));
    let mut lat = Table::new(headers("latency, cycles"))
        .with_title(format!("[{}] Average packet latency", panel.pattern));
    let mut pwr = Table::new(headers("power, mW"))
        .with_title(format!("[{}] Optical interconnect power", panel.pattern));
    for (i, &load) in panel.loads.iter().enumerate() {
        let row = |f: &dyn Fn(&RunResult) -> String| -> Vec<String> {
            let mut r = vec![format!("{load:.1}")];
            for (_, series) in &panel.results {
                r.push(f(&series[i]));
            }
            r
        };
        thr.row(row(&|r| format!("{:.4}", r.throughput)));
        lat.row(row(&|r| format!("{:.1}", r.latency)));
        pwr.row(row(&|r| format!("{:.1}", r.power_mw)));
    }
    println!("{}", thr.render());
    println!("{}", lat.render());
    println!("{}", pwr.render());

    // CSV export.
    let mut headers = vec!["load".to_string()];
    for (m, _) in &panel.results {
        for metric in ["thr", "lat", "pwr"] {
            headers.push(format!("{}_{}", m.name(), metric));
        }
    }
    let mut csv = Csv::new(headers);
    for (i, &load) in panel.loads.iter().enumerate() {
        let mut row = vec![format!("{load}")];
        for (_, series) in &panel.results {
            let r = &series[i];
            row.push(format!("{}", r.throughput));
            row.push(format!("{}", r.latency));
            row.push(format!("{}", r.power_mw));
        }
        csv.row(row);
    }
    let path = cfg.results_dir().join(format!("{}.csv", panel.pattern));
    match csv.write_to(&path) {
        Ok(()) => println!("wrote {}\n", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Draws the panel's three metrics as terminal line charts (the actual
/// figure shapes, next to the exact tables).
pub fn print_charts(panel: &Panel) {
    use netstats::chart::Chart;
    let draw = |title: &str, ylab: &str, f: &dyn Fn(&erapid_core::experiment::RunResult) -> f64| {
        let mut c = Chart::new(format!("[{}] {title}", panel.pattern), 64, 14)
            .with_labels("offered load (fraction of N_c)", ylab);
        for (mode, series) in &panel.results {
            let pts: Vec<(f64, f64)> = panel
                .loads
                .iter()
                .zip(series)
                .map(|(&l, r)| (l, f(r)))
                .collect();
            c.series(mode.name(), pts);
        }
        println!("{}", c.render());
    };
    draw("throughput", "pkt/node/cycle", &|r| r.throughput);
    draw("latency", "cycles", &|r| r.latency);
    draw("power", "mW", &|r| r.power_mw);
}

/// Prints the paper-vs-measured summary comparisons for a panel, mirroring
/// the claims in §4.2.
pub fn print_ratios(panel: &Panel) {
    let find = |mode: NetworkMode| -> &Vec<RunResult> {
        &panel
            .results
            .iter()
            .find(|(m, _)| *m == mode)
            .expect("all modes present")
            .1
    };
    let peak = |s: &Vec<RunResult>| s.iter().map(|r| r.throughput).fold(0.0f64, f64::max);
    let peak_pwr = |s: &Vec<RunResult>| s.iter().map(|r| r.power_mw).fold(0.0f64, f64::max);
    let npnb = find(NetworkMode::NpNb);
    let npb = find(NetworkMode::NpB);
    let pnb = find(NetworkMode::PNb);
    let pb = find(NetworkMode::PB);
    println!("[{}] headline ratios:", panel.pattern);
    println!(
        "  peak throughput  NP-B/NP-NB = {:.2}x   P-B/NP-B = {:.2}x",
        peak(npb) / peak(npnb).max(1e-12),
        peak(pb) / peak(npb).max(1e-12),
    );
    println!(
        "  peak power       NP-B/NP-NB = {:.2}x   P-B/NP-B = {:.2}x   P-NB/NP-NB = {:.2}x",
        peak_pwr(npb) / peak_pwr(npnb).max(1e-12),
        peak_pwr(pb) / peak_pwr(npb).max(1e-12),
        peak_pwr(pnb) / peak_pwr(npnb).max(1e-12),
    );
    // Mid-load power saving of P-B vs NP-B (where DPM has headroom).
    let mid = panel.loads.len() / 2;
    println!(
        "  mid-load power   P-B/NP-B = {:.2}x   (load {:.1})",
        pb[mid].power_mw / npb[mid].power_mw.max(1e-12),
        panel.loads[mid]
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BenchConfig {
        BenchConfig {
            quick: true,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn worst_offenders_rank_lowest_survival_first() {
        let survival = [(0.9, "a"), (0.4, "b"), (1.0, "c"), (0.7, "d")];
        assert_eq!(rank_worst_offenders(&survival, 2), vec!["b", "d"]);
        // Asking for more than available returns everything, ranked.
        assert_eq!(rank_worst_offenders(&survival, 9), vec!["b", "d", "a", "c"]);
        assert!(rank_worst_offenders(&[], 2).is_empty());
    }

    #[test]
    fn worst_offenders_nan_ranks_last_and_idle_runs_rank_after_lossy() {
        // total_cmp: NaN sorts after +inf, so a poisoned fraction can
        // never displace a real worst offender; an idle run's 1.0 (the
        // injected == 0 guard) ranks after any lossy run.
        let survival = [(f64::NAN, "nan"), (1.0, "idle"), (0.2, "lossy")];
        assert_eq!(
            rank_worst_offenders(&survival, 3),
            vec!["lossy", "idle", "nan"]
        );
        // Ties keep input order (stable sort).
        let tied = [(0.5, "first"), (0.5, "second")];
        assert_eq!(rank_worst_offenders(&tied, 2), vec!["first", "second"]);
    }

    #[test]
    fn load_axis_default_is_paper() {
        // No env mutation: configurations are plain values now.
        assert_eq!(BenchConfig::default().load_axis().len(), 9);
        assert_eq!(quick_cfg().load_axis().len(), 3);
    }

    #[test]
    fn run_point_smoke() {
        let r = quick_cfg().run_point(NetworkMode::NpNb, &TrafficPattern::Uniform, 0.2);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn parallel_panel_matches_sequential() {
        // 2 threads vs the plain sequential loop over the same points:
        // every RunResult field must be identical, in identical order.
        let cfg = BenchConfig {
            quick: true,
            threads: NonZeroUsize::new(2).unwrap(),
            ..BenchConfig::default()
        };
        let par = cfg.run_panel("uniform", &TrafficPattern::Uniform);
        let seq = run_panel_sequential(&cfg, "uniform", &TrafficPattern::Uniform);
        assert_eq!(par.loads, seq.loads);
        assert_eq!(par.results.len(), seq.results.len());
        for ((ma, sa), (mb, sb)) in par.results.iter().zip(&seq.results) {
            assert_eq!(ma, mb);
            assert_eq!(sa, sb, "mode {} series diverged", ma.name());
        }
    }
}
