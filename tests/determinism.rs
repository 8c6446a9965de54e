//! Reproducibility: identical seeds give identical runs, different seeds
//! give statistically similar but non-identical runs, traffic traces
//! replay exactly, and every way of executing a point agrees.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::experiment::RunResult;
use erapid_suite::erapid_core::runner::{point_threads_from_env, run_points, Outcome, RunPoint};
use erapid_suite::erapid_core::system::System;
use erapid_suite::erapid_telemetry::TraceConfig;
use erapid_suite::traffic::pattern::TrafficPattern;
use erapid_suite::traffic::trace::TraceRecorder;
use std::num::NonZeroUsize;
use std::sync::Arc;

fn plan() -> PhasePlan {
    PhasePlan::new(2000, 4000).with_max_cycles(30_000)
}

fn run_with_seed(seed: u64, mode: NetworkMode) -> (u64, u64, f64, f64, u64) {
    let mut cfg = SystemConfig::small(mode);
    cfg.seed = seed;
    let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.4, plan());
    let end = sys.run_with(NonZeroUsize::MIN, &mut |_| {});
    let m = sys.metrics();
    (
        m.injected_total,
        m.delivered_total,
        m.throughput_ppc(),
        m.mean_latency(),
        end,
    )
}

#[test]
fn same_seed_same_run() {
    for mode in [NetworkMode::NpNb, NetworkMode::PB] {
        let a = run_with_seed(123, mode);
        let b = run_with_seed(123, mode);
        assert_eq!(a, b, "mode {:?} not reproducible", mode);
    }
}

#[test]
fn different_seeds_differ_but_agree_statistically() {
    let a = run_with_seed(1, NetworkMode::NpNb);
    let b = run_with_seed(2, NetworkMode::NpNb);
    assert_ne!(a.0, b.0, "different seeds must draw different traffic");
    // Throughput within 10% of each other (same offered load).
    let rel = (a.2 - b.2).abs() / a.2;
    assert!(rel < 0.10, "throughput divergence {rel}");
}

#[test]
fn mode_change_does_not_perturb_injection_draws() {
    // Per-node RNG streams: the traffic is a function of (seed, node) and
    // the cycle, not of the network configuration, so over the same fixed
    // horizon NP-NB and P-B see the exact same packet sequence. (Total
    // run lengths differ — drain time depends on the mode — so the
    // comparison is over a fixed number of cycles.)
    let horizon = 6000;
    let mut totals = Vec::new();
    for mode in [NetworkMode::NpNb, NetworkMode::PB] {
        let mut cfg = SystemConfig::small(mode);
        cfg.seed = 7;
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.4, plan());
        while sys.now() < horizon {
            sys.step();
        }
        totals.push(sys.metrics().injected_total);
    }
    assert_eq!(
        totals[0], totals[1],
        "injected totals must match across modes"
    );
}

#[test]
fn trace_record_replay_round_trip() {
    // Record the injections of a run's worth of generator draws, replay
    // them, and check the replayed sequence is identical.
    let mut gens =
        erapid_suite::traffic::generator::build_generators(16, &TrafficPattern::Uniform, 0.3, 9);
    let mut rec = TraceRecorder::new();
    for now in 0..5000u64 {
        for g in &mut gens {
            if let Some(req) = g.poll(now) {
                rec.record(now, req.src, req.dst).unwrap();
            }
        }
    }
    let total = rec.len();
    assert!(total > 1000, "enough traffic to be meaningful: {total}");
    let entries: Vec<_> = rec.entries().to_vec();
    let mut replay = rec.into_replay();
    let mut replayed = Vec::new();
    for now in 0..5000u64 {
        replayed.extend(replay.due(now));
    }
    assert_eq!(replayed.len(), total);
    assert_eq!(replayed, entries);
    assert!(replay.is_done());
}

#[test]
fn same_seed_and_fault_plan_reproduce_the_run_exactly() {
    // A faulted run is still a pure function of (config, pattern, load,
    // plan): the FaultPlan travels inside the config, so replaying the
    // same plan with the same seed gives a byte-identical RunResult.
    use erapid_suite::erapid_core::faults::{FaultKind, FaultPlan};
    let faults = FaultPlan::new()
        .receiver_outage(3, 1, 3000, 9000)
        .at(
            5000,
            FaultKind::LcStuck {
                board: 0,
                dest: 3,
                wavelength: 1,
            },
        )
        .at(4010, FaultKind::TokenLoss { victim: 2 });
    for mode in [NetworkMode::NpB, NetworkMode::PB] {
        let mut cfg = SystemConfig::small(mode);
        cfg.seed = 17;
        cfg.faults = faults.clone();
        let run = |cfg| {
            RunPoint::new(cfg, TrafficPattern::Complement, 0.4, plan())
                .execute(NonZeroUsize::MIN)
                .result
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        assert_eq!(a, b, "mode {mode:?} faulted run not reproducible");
    }
}

#[test]
fn parallel_sweep_identical_to_sequential() {
    // The run-level executor must be invisible in the results: the same
    // sweep on 1 thread and on 4 threads returns the same RunResults —
    // every field, in the same order.
    let loads = [0.2, 0.5, 0.8];
    for mode in [NetworkMode::NpNb, NetworkMode::PB] {
        let points = || -> Vec<RunPoint> {
            loads
                .iter()
                .map(|&load| {
                    let mut cfg = SystemConfig::small(mode);
                    cfg.seed = 11;
                    RunPoint::new(cfg, TrafficPattern::Complement, load, plan())
                })
                .collect()
        };
        let one = NonZeroUsize::MIN;
        let seq = run_points(one, one, points());
        let par = run_points(NonZeroUsize::new(4).unwrap(), one, points());
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            // Full-struct equality: every field of every RunResult.
            assert_eq!(
                s.result, p.result,
                "mode {mode:?} load {} diverged under parallel execution",
                s.result.load
            );
        }
    }
}

#[test]
fn parallel_sweep_identical_to_sequential_under_faults() {
    // The run-level executor must stay invisible when the points carry an
    // active fault schedule: 1-thread and 4-thread sweeps of faulted
    // configs return identical RunResults in identical order.
    use erapid_suite::erapid_core::faults::FaultPlan;
    let points = |_| -> Vec<RunPoint> {
        [0.2, 0.5, 0.8]
            .iter()
            .map(|&load| {
                let mut cfg = SystemConfig::small(NetworkMode::PB);
                cfg.seed = 11;
                cfg.faults = FaultPlan::relock_storm(9, cfg.boards, 2500, 5500, 6, 300)
                    .receiver_outage(3, 1, 3000, 6000);
                RunPoint::new(cfg, TrafficPattern::Complement, load, plan())
            })
            .collect()
    };
    let one = NonZeroUsize::MIN;
    let seq = run_points(one, one, points(()));
    let par = run_points(NonZeroUsize::new(4).unwrap(), one, points(()));
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(
            s.result, p.result,
            "faulted load {} diverged under parallel execution",
            s.result.load
        );
    }
}

#[test]
fn board_step_buffer_reuse_conserves_deliveries() {
    // Regression for the zero-allocation hot path: driving a board through
    // `step_into` with one reused (dirty-capacity) buffer must produce the
    // exact same delivery stream as the allocating `step` wrapper — no
    // dropped, duplicated or reordered deliveries.
    use erapid_suite::desim::rng::Pcg32;
    use erapid_suite::erapid_core::board::Board;
    use erapid_suite::router::flit::{NodeId, PacketId};
    use erapid_suite::router::packet::Packet;

    let cfg = SystemConfig::small(NetworkMode::NpNb);
    let d = cfg.nodes_per_board as u32;
    let mut fresh = Board::new(&cfg, 0);
    let mut reused = Board::new(&cfg, 0);
    let mut rng = Pcg32::stream(0xB0A2D, 0);
    let mut scratch = Vec::new();
    let mut next_id = 0u64;
    let mut injected = 0u64;
    let mut delivered = 0u64;
    for now in 0..4000u64 {
        // Identical local-destination traffic into both boards (local
        // ejection is the path that produces `Delivered` records).
        if now < 3000 && rng.bernoulli(0.4) {
            let src = rng.below(d);
            let dst = rng.below(d);
            let pkt = Packet {
                id: PacketId(next_id),
                src: NodeId(src),
                dst: NodeId(dst),
                flits: cfg.packet_flits,
                injected_at: now,
                labelled: true,
            };
            next_id += 1;
            injected += 1;
            fresh.enqueue_node_packet(src as u16, pkt);
            reused.enqueue_node_packet(src as u16, pkt);
        }
        let a = fresh.step(now);
        scratch.clear();
        reused.step_into(now, &mut scratch);
        assert_eq!(a, scratch, "delivery stream diverged at cycle {now}");
        delivered += a.len() as u64;
    }
    assert!(
        delivered > 100,
        "test must exercise real traffic: {delivered}"
    );
    assert_eq!(
        delivered, injected,
        "buffer reuse dropped deliveries ({delivered}/{injected})"
    );
    assert!(fresh.is_idle() && reused.is_idle());
}

#[test]
fn sharded_run_identical_to_sequential_across_worker_counts() {
    // The board-sharded engine must be invisible in every observable:
    // RunResult (all f64s bit-compared via PartialEq), the telemetry
    // event stream, the per-window metric snapshots and the per-packet
    // delivery log, for any worker count (including more workers than
    // boards and more workers than cores).
    for mode in NetworkMode::all() {
        let mk = || {
            let mut cfg = SystemConfig::small(mode);
            cfg.seed = 23;
            cfg.packet_log = true;
            cfg.trace = TraceConfig::with_capacity(1 << 18);
            cfg
        };
        let point = || RunPoint::new(mk(), TrafficPattern::Complement, 0.6, plan());
        let seq = point().execute(NonZeroUsize::MIN);
        let (seq, seq_trace) = (seq.result, seq.trace);
        for workers in [2usize, 4, 8] {
            let shard = point().execute(NonZeroUsize::new(workers).unwrap());
            let (shard, shard_trace) = (shard.result, shard.trace);
            assert_eq!(
                seq, shard,
                "mode {mode:?}: RunResult diverged at {workers} workers"
            );
            assert_eq!(
                seq_trace.records, shard_trace.records,
                "mode {mode:?}: telemetry event stream diverged at {workers} workers"
            );
            assert_eq!(
                seq_trace.windows, shard_trace.windows,
                "mode {mode:?}: metric windows diverged at {workers} workers"
            );
            assert_eq!(
                seq_trace.packets, shard_trace.packets,
                "mode {mode:?}: packet log diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn sharded_run_identical_under_faults() {
    // Fault application stays a sequential phase, so a scheduled outage /
    // relock storm must not open any worker-count dependence.
    use erapid_suite::erapid_core::faults::FaultPlan;
    for mode in [NetworkMode::NpB, NetworkMode::PB] {
        let mk = || {
            let mut cfg = SystemConfig::small(mode);
            cfg.seed = 17;
            cfg.faults = FaultPlan::relock_storm(9, cfg.boards, 2500, 5500, 6, 300)
                .receiver_outage(3, 1, 3000, 6000);
            cfg
        };
        let run = |workers| {
            RunPoint::new(mk(), TrafficPattern::Complement, 0.5, plan())
                .execute(NonZeroUsize::new(workers).unwrap())
                .result
        };
        let seq = run(1);
        for workers in [2usize, 8] {
            let shard = run(workers);
            assert_eq!(
                seq, shard,
                "mode {mode:?}: faulted run diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn sharded_run_identical_at_env_point_workers() {
    // `verify.sh` reruns this suite with ERAPID_POINT_THREADS=2 and =8;
    // this test picks the knob up so the whole determinism file exercises
    // the sharded engine at the CI-chosen worker counts. Without the env
    // var it degenerates to the (still asserted) 1-worker fallback path.
    let workers = point_threads_from_env();
    let point = || {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.seed = 29;
        RunPoint::new(cfg, TrafficPattern::Uniform, 0.4, plan())
    };
    let seq = point().execute(NonZeroUsize::MIN).result;
    let shard = point().execute(workers).result;
    assert_eq!(seq, shard, "sharded run diverged at {workers} workers");
}

#[test]
fn run_end_is_monotone_in_load() {
    // Saturated runs take longer to drain; the run loop must still
    // terminate thanks to the max_cycles cap.
    let mut cfg = SystemConfig::small(NetworkMode::NpNb);
    cfg.seed = 5;
    let mut sys = System::new(cfg, TrafficPattern::Complement, 0.9, plan());
    let end = sys.run_with(NonZeroUsize::MIN, &mut |_| {});
    assert!(end <= plan().max_cycles);
}

/// Every f64 of a [`RunResult`] as raw bits, plus its counters: equality
/// here is bit-for-bit, stricter than `PartialEq` on the floats.
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

/// Asserts two outcomes agree in everything but wall time: result bits,
/// trace records, metric windows and the packet-delivery log.
fn assert_same_outcome(want: &Outcome, got: &Outcome, label: &str) {
    assert_eq!(
        result_bits(&want.result),
        result_bits(&got.result),
        "{label}: RunResult bits diverged"
    );
    assert_eq!(
        want.trace.records, got.trace.records,
        "{label}: trace records diverged"
    );
    assert_eq!(
        want.trace.windows, got.trace.windows,
        "{label}: metric windows diverged"
    );
    assert_eq!(
        want.trace.packets, got.trace.packets,
        "{label}: packet log diverged"
    );
}

/// The equivalence table for the one run entry point. Every way of
/// executing a point through [`RunPoint::execute`] — generated or replayed
/// traffic × injection recording off or on × 1 or 2 board workers (and
/// the `ERAPID_POINT_THREADS` value, which `verify.sh` sets to 2 and 8) —
/// reproduces the reference run bit for bit, and every recording it makes
/// is byte-identical to the reference recording. A [`run_points`] batch at
/// 1 and 2 threads matches per-point `execute`.
#[test]
fn execute_paths_agree() {
    let one = NonZeroUsize::MIN;
    let two = NonZeroUsize::new(2).unwrap();
    let cfg = |record: bool| {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.seed = 29;
        cfg.trace = TraceConfig::with_capacity(1 << 18);
        cfg.packet_log = true;
        cfg.record_injections = record;
        cfg
    };
    let generated = |record| RunPoint::new(cfg(record), TrafficPattern::Complement, 0.5, plan());

    let reference = generated(true).execute(one);
    assert!(!reference.trace.records.is_empty(), "trace must be on");
    let recording = Arc::new(reference.recording.clone().expect("recording on"));
    assert!(!recording.entries.is_empty(), "recording must hold traffic");
    let recording_bytes = recording.to_binary();

    let mut point_threads = vec![one, two];
    if !point_threads.contains(&point_threads_from_env()) {
        point_threads.push(point_threads_from_env());
    }
    for replay in [false, true] {
        for record in [false, true] {
            for &pt in &point_threads {
                let label = format!("replay={replay} record={record} point_threads={pt}");
                let point = if replay {
                    RunPoint::replay(cfg(record), Arc::clone(&recording), plan())
                } else {
                    generated(record)
                };
                let out = point.execute(pt);
                assert_same_outcome(&reference, &out, &label);
                match &out.recording {
                    None => assert!(!record, "{label}: recording missing"),
                    Some(t) => {
                        assert!(record, "{label}: recording without the flag");
                        assert_eq!(t.to_binary(), recording_bytes, "{label}: recording bytes");
                    }
                }
            }
        }
    }

    let batch = || {
        vec![
            generated(false),
            RunPoint::new(cfg(true), TrafficPattern::Uniform, 0.3, plan()),
            RunPoint::replay(cfg(false), Arc::clone(&recording), plan()),
        ]
    };
    let singles: Vec<Outcome> = batch().into_iter().map(|p| p.execute(one)).collect();
    for threads in [one, two] {
        let outs = run_points(threads, one, batch());
        assert_eq!(outs.len(), singles.len());
        for (i, (want, got)) in singles.iter().zip(&outs).enumerate() {
            let label = format!("run_points threads={threads} point {i}");
            assert_same_outcome(want, got, &label);
            assert_eq!(
                want.recording.as_ref().map(|t| t.to_binary()),
                got.recording.as_ref().map(|t| t.to_binary()),
                "{label}: recording bytes"
            );
        }
    }
}
