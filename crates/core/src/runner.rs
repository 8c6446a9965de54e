//! Parallel run-level executor.
//!
//! The paper's evaluation is a grid of *independent, deterministic*
//! simulations (mode × pattern × load × seed). Each [`crate::System`] owns
//! its per-node RNG streams (seeded from `cfg.seed`), so runs share no
//! state and a run's result is byte-identical no matter which thread
//! executes it. That makes run-level fan-out safe by construction — only
//! the *scheduling* is concurrent. Inside one point the cycle loop,
//! [`crate::System::run`], runs on the calling thread.
//!
//! There is one way to run a point, [`RunPoint::execute`], and one way to
//! run a batch, [`run_points`]. Both hand back an [`Outcome`]: the
//! headline [`RunResult`], the point's [`RunTrace`] (empty unless the
//! config turns tracing on), the recorded injections (only when
//! [`SystemConfig::record_injections`] is set) and the host wall time.
//!
//! No external crates: the pool is a self-scheduling worker loop over
//! [`std::thread::scope`] — workers pull the next unclaimed index from a
//! shared atomic counter (work-stealing-ish: fast runs automatically pick
//! up more points), and results land in their input slot, so output order
//! equals input order regardless of completion order.
//!
//! The thread count comes from the `ERAPID_THREADS` env knob (read once by
//! [`threads_from_env`], which binaries call in `main`), defaulting to the
//! machine's available parallelism.

use crate::config::SystemConfig;
use crate::experiment::{trace_meta, RunResult, RunTrace, TraceSource};
use crate::system::System;
use desim::phase::PhasePlan;
use desim::Cycle;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use traffic::pattern::TrafficPattern;
use traffic::trace::InjectionTrace;

/// The machine's available parallelism (1 if it cannot be queried).
pub fn available_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Parses the `ERAPID_THREADS` env knob; 0, unset or unparsable mean
/// "use [`available_threads`]". Binaries read this once in `main` and pass
/// the value down — library code never touches the environment.
pub fn threads_from_env() -> NonZeroUsize {
    std::env::var("ERAPID_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .and_then(NonZeroUsize::new)
        .unwrap_or_else(available_threads)
}

/// Maps `f` over `items` on up to `threads` worker threads, returning the
/// results in input order.
///
/// Workers self-schedule off a shared atomic index, so an expensive item
/// does not stall the queue behind it. With one thread (or one item) this
/// degenerates to a plain sequential map on the calling thread — the
/// output is identical either way for any deterministic `f`. A panic in
/// `f` propagates to the caller when the scope joins.
pub fn parallel_map<T, R, F>(threads: NonZeroUsize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // A zero-cost estimator keeps the stable sort in input order, so this
    // is exactly the unprioritized dispatch.
    parallel_map_prioritized(threads, items, |_| 0, f)
}

/// Claim order for prioritized dispatch: indices sorted by descending
/// cost, ties keeping input order (stable sort).
fn priority_order(costs: &[u128]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]));
    order
}

/// As [`parallel_map`], but workers claim items **longest-estimated
/// first** (stable descending sort by `cost`; ties keep input order).
/// Results still land in input order, so prioritization changes only
/// wall-clock, never output. This fixes the tail-straggler imbalance of
/// FIFO dispatch: when the most expensive point sits late in the grid, a
/// worker would otherwise pick it up last and run it alone while the
/// rest of the pool idles.
pub fn parallel_map_prioritized<T, R, F, C>(
    threads: NonZeroUsize,
    items: Vec<T>,
    cost: C,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
    C: Fn(&T) -> u128,
{
    let n = items.len();
    let workers = threads.get().min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let order = priority_order(&items.iter().map(&cost).collect::<Vec<_>>());
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let i = order[k];
                // Lock poisoning only means another worker panicked while
                // holding the lock; the data (a plain Option) is still
                // sound, so recover it rather than aborting this worker.
                let taken = jobs[i].lock().unwrap_or_else(|e| e.into_inner()).take();
                let Some(item) = taken else {
                    // Unreachable: the atomic counter hands each index to
                    // exactly one worker.
                    continue;
                };
                let result = f(item);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });
    let results: Vec<R> = slots
        .into_iter()
        .filter_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect();
    // Every slot is filled before the scope joins (a panic in `f` would
    // have propagated at the join); anything else is an internal bug.
    assert_eq!(results.len(), n, "parallel_map lost a result slot");
    results
}

/// One experiment point, fully specified: configuration (mode, seed,
/// topology), traffic pattern, offered load, phase plan and injection
/// source (generated or replayed from a recorded trace).
#[derive(Debug, Clone)]
pub struct RunPoint {
    pub cfg: SystemConfig,
    pub pattern: TrafficPattern,
    pub load: f64,
    pub plan: PhasePlan,
    /// Generated traffic by default; [`TraceSource::Replay`] substitutes a
    /// recorded workload (then `pattern`/`load` are ignored).
    pub source: TraceSource,
}

/// Everything one executed point hands back.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The headline numbers.
    pub result: RunResult,
    /// The recorded event stream and metric windows (empty but
    /// well-formed when the point's config leaves tracing off).
    pub trace: RunTrace,
    /// The injections the run made, stamped with provenance: `Some`
    /// exactly when [`SystemConfig::record_injections`] is set. A
    /// generated point is stamped with [`trace_meta`]; a replayed point
    /// keeps the replayed trace's header.
    pub recording: Option<InjectionTrace>,
    /// Host wall time of the point: set-up, run and collection.
    pub wall: Duration,
}

impl RunPoint {
    /// A point driven by live traffic generators.
    pub fn new(cfg: SystemConfig, pattern: TrafficPattern, load: f64, plan: PhasePlan) -> Self {
        Self {
            cfg,
            pattern,
            load,
            plan,
            source: TraceSource::Generate,
        }
    }

    /// A point replaying `trace` against `cfg` (which may differ from the
    /// recording configuration in anything but the B×D geometry the node
    /// ids assume). The reported load is the trace's recorded load.
    pub fn replay(cfg: SystemConfig, trace: Arc<InjectionTrace>, plan: PhasePlan) -> Self {
        Self {
            cfg,
            pattern: TrafficPattern::Uniform,
            load: trace.meta.load,
            plan,
            source: TraceSource::Replay(trace),
        }
    }

    /// Estimated simulation cost, for longest-first dispatch: every cycle
    /// walks O(boards²) flow state, so `max_cycles × boards²` ranks a
    /// heterogeneous grid well enough to keep workers busy. The
    /// [`Outcome::wall`] times binaries log are the check on this estimate.
    pub fn estimated_cost(&self) -> u128 {
        self.plan.max_cycles as u128 * (self.cfg.boards as u128).pow(2)
    }

    /// Runs this point to completion. Tracing and recording observe the
    /// run without perturbing it: the [`RunResult`] does not depend on
    /// either flag.
    pub fn execute(self) -> Outcome {
        let start = Instant::now();
        let capacity = self.cfg.capacity().uniform_capacity();
        let (mut sys, load, meta) = match self.source {
            TraceSource::Generate => {
                let meta = trace_meta(&self.cfg, &self.pattern, self.load);
                let sys = System::new(self.cfg, self.pattern, self.load, self.plan);
                (sys, self.load, meta)
            }
            TraceSource::Replay(trace) => {
                let sys = System::with_trace(self.cfg, trace.replayer(), self.plan);
                (sys, trace.meta.load, trace.meta.clone())
            }
        };
        let cycles = sys.run(&mut |_| {});
        let recording = sys.take_injection_log().map(|rec| rec.into_trace(meta));
        let (result, trace) = collect(sys, load, capacity, cycles);
        Outcome {
            result,
            trace,
            recording,
            wall: start.elapsed(),
        }
    }
}

/// Drains a finished system into its `(RunResult, RunTrace)` pair.
fn collect(mut sys: System, load: f64, capacity: f64, cycles: Cycle) -> (RunResult, RunTrace) {
    let trace = RunTrace {
        counter_names: sys.metric_counter_names(),
        gauge_names: sys.metric_gauge_names(),
        hist_summaries: sys.metric_hist_summaries(),
        dropped: sys.trace_dropped(),
        records: sys.take_trace_records(),
        windows: sys.take_metric_windows(),
        packets: sys.take_packet_log(),
    };
    let m = sys.metrics();
    let (grants, retunes) = sys.srs().reconfig_counts();
    let (ls_retries, ls_aborts) = sys.control_stats();
    let result = RunResult {
        load,
        throughput: m.throughput_ppc(),
        throughput_norm: m.throughput_ppc() / capacity,
        latency: m.mean_latency(),
        latency_p95: m.latency.p95().unwrap_or(0.0),
        power_mw: m.average_power_mw(),
        src_path: m.src_path.mean(),
        tx_wait: m.tx_wait.mean(),
        undrained: m.tracker.outstanding(),
        grants,
        retunes,
        ls_retries,
        ls_aborts,
        injected: m.injected_total,
        delivered: m.delivered_total,
        cycles,
    };
    (result, trace)
}

/// Fans a batch of experiment points out over `threads` workers.
/// Outcomes come back in input order, and every field but
/// [`Outcome::wall`] is byte-identical to executing each point on its
/// own, for any `threads`. Each point records into its own trace (a
/// [`System`] field, never shared), so concatenating the per-point traces
/// yields the same bytes for any thread count.
pub fn run_points(threads: NonZeroUsize, points: Vec<RunPoint>) -> Vec<Outcome> {
    parallel_map_prioritized(threads, points, RunPoint::estimated_cost, RunPoint::execute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkMode;
    use crate::experiment::default_plan;

    #[test]
    fn execute_produces_consistent_result() {
        let cfg = SystemConfig::small(NetworkMode::NpNb);
        let plan = default_plan(cfg.schedule.window);
        let out = RunPoint::new(cfg, TrafficPattern::Uniform, 0.3, plan).execute();
        let r = out.result;
        assert!((r.load - 0.3).abs() < 1e-12);
        assert!(r.throughput > 0.0);
        assert!(r.throughput_norm > 0.0 && r.throughput_norm < 1.2);
        assert!(r.latency > 0.0);
        assert!(r.latency_p95 >= r.latency * 0.5);
        assert!(r.power_mw > 0.0);
        assert_eq!(r.undrained, 0);
        assert_eq!(r.grants, 0);
        assert!(r.cycles > 0);
        assert!(out.trace.records.is_empty(), "tracing is off by default");
        assert!(out.recording.is_none(), "recording is off by default");
    }

    /// Every f64 of a [`RunResult`] as raw bits, plus its counters.
    fn result_bits(r: &RunResult) -> [u64; 16] {
        [
            r.load.to_bits(),
            r.throughput.to_bits(),
            r.throughput_norm.to_bits(),
            r.latency.to_bits(),
            r.latency_p95.to_bits(),
            r.power_mw.to_bits(),
            r.src_path.to_bits(),
            r.tx_wait.to_bits(),
            r.undrained,
            r.grants,
            r.retunes,
            r.ls_retries,
            r.ls_aborts,
            r.injected,
            r.delivered,
            r.cycles,
        ]
    }

    /// `step_profiled` (what perfreport, scaling and perfbench's traced
    /// runs loop) only adds clock reads: in every mode, with faults,
    /// tracing and the tune controller on, it ends in the same result bits
    /// and the same trace as `step`.
    #[test]
    fn profiled_step_is_a_plain_step() {
        use crate::faults::{FaultKind, FaultPlan};
        use crate::system::PhaseTimers;
        use erapid_tune::ControllerSpec;

        let plan = PhasePlan::new(2000, 4000).with_max_cycles(40_000);
        let load = 0.6;
        for mode in NetworkMode::all() {
            let mut cfg = SystemConfig::small(mode);
            cfg.trace = erapid_telemetry::TraceConfig::on();
            cfg.tune = Some(match mode {
                NetworkMode::PNb => ControllerSpec::paper_pnb(),
                _ => ControllerSpec::paper_pb(),
            });
            cfg.faults = FaultPlan::relock_storm(cfg.seed, cfg.boards, 1000, 9000, 6, 200)
                .receiver_outage(0, 1, 3000, 7000)
                .transmitter_outage(2, 3, 2500, 6500)
                .at(4006, FaultKind::TokenLoss { victim: 1 });
            let capacity = cfg.capacity().uniform_capacity();
            let run = |profiled: bool| {
                let mut sys = System::new(cfg.clone(), TrafficPattern::Complement, load, plan);
                let mut timers = PhaseTimers::default();
                while sys.now() < plan.max_cycles
                    && !sys.metrics().tracker.complete(&plan, sys.now())
                {
                    if profiled {
                        sys.step_profiled(&mut timers);
                    } else {
                        sys.step();
                    }
                }
                let cycles = sys.now();
                let (result, trace) = collect(sys, load, capacity, cycles);
                (result, trace, timers)
            };
            let (plain, plain_trace, _) = run(false);
            let (profiled, profiled_trace, timers) = run(true);
            let name = mode.name();
            assert!(plain.delivered > 0, "{name}: traffic must flow");
            assert!(!plain_trace.records.is_empty(), "{name}: trace is on");
            assert_eq!(result_bits(&plain), result_bits(&profiled), "{name}");
            assert_eq!(plain_trace.records, profiled_trace.records, "{name}");
            assert_eq!(plain_trace.windows, profiled_trace.windows, "{name}");
            if mode == NetworkMode::PB {
                assert!(
                    plain.grants > 0 && plain.retunes > 0,
                    "P-B must reconfigure"
                );
                assert!(timers.route > Duration::ZERO, "route row is empty");
                assert!(timers.optical > Duration::ZERO, "optical row is empty");
            }
        }
    }

    #[test]
    fn batch_throughput_is_monotone_in_load() {
        let points = [0.2, 0.4]
            .map(|load| {
                let cfg = SystemConfig::small(NetworkMode::NpNb);
                let plan = default_plan(cfg.schedule.window);
                RunPoint::new(cfg, TrafficPattern::Uniform, load, plan)
            })
            .to_vec();
        let out = run_points(available_threads(), points);
        assert_eq!(out.len(), 2);
        assert!(out[1].result.throughput > out[0].result.throughput);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7, 64] {
            let got = parallel_map(NonZeroUsize::new(threads).unwrap(), items.clone(), |x| {
                x * x
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(NonZeroUsize::new(4).unwrap(), empty, |x| x).is_empty());
        let one = parallel_map(NonZeroUsize::new(4).unwrap(), vec![41u32], |x| x + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn parallel_map_uses_multiple_threads() {
        // Two items that rendezvous on a barrier: they can only both
        // finish if two distinct workers run them concurrently (a single
        // worker claiming an item blocks at the barrier, leaving the
        // other item for the second worker).
        let barrier = std::sync::Barrier::new(2);
        let ids = parallel_map(NonZeroUsize::new(2).unwrap(), vec![0u8, 1], |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ids[0], ids[1], "expected 2 distinct worker threads");
    }

    #[test]
    fn threads_env_parsing_defaults() {
        // Does not touch the environment: just the default path.
        assert!(available_threads().get() >= 1);
    }

    #[test]
    fn prioritized_map_preserves_input_order_and_results() {
        // Costs deliberately reversed vs input order: dispatch reorders,
        // results must not.
        let items: Vec<u64> = (0..50).collect();
        let expect: Vec<u64> = items.iter().map(|x| x + 1000).collect();
        for threads in [1, 3, 8] {
            let got = parallel_map_prioritized(
                NonZeroUsize::new(threads).unwrap(),
                items.clone(),
                |&x| x as u128, // largest item first
                |x| x + 1000,
            );
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn priority_order_is_longest_first_and_stable() {
        assert_eq!(priority_order(&[1, 9, 9, 4]), vec![1, 2, 3, 0]);
        assert_eq!(
            priority_order(&[0, 0, 0]),
            vec![0, 1, 2],
            "all ties: input order"
        );
        assert_eq!(priority_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn estimated_cost_scales_with_boards_and_cycles() {
        let mk = |boards: u16, cycles: u64| {
            RunPoint::new(
                SystemConfig {
                    boards,
                    ..SystemConfig::small(NetworkMode::NpNb)
                },
                TrafficPattern::Uniform,
                0.5,
                PhasePlan::new(100, 200).with_max_cycles(cycles),
            )
        };
        let small = mk(4, 10_000).estimated_cost();
        let wide = mk(8, 10_000).estimated_cost();
        let long = mk(4, 40_000).estimated_cost();
        assert_eq!(wide, small * 4, "boards² scaling");
        assert_eq!(long, small * 4, "linear cycle scaling");
    }
}
