//! Telemetry contract: tracing observes a run without perturbing it, and
//! the recorded trace is byte-identical across sequential and parallel
//! sweeps (the acceptance bar for the telemetry subsystem — see DESIGN.md
//! §8).

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{ControlPlane, NetworkMode, SystemConfig};
use erapid_suite::erapid_core::faults::{FaultKind, FaultPlan};
use erapid_suite::erapid_core::runner::{run_points, RunPoint};
use erapid_suite::erapid_telemetry::{chrome_trace, jsonl, TraceConfig};
use erapid_suite::traffic::pattern::TrafficPattern;
use std::num::NonZeroUsize;

fn plan() -> PhasePlan {
    PhasePlan::new(2000, 4000).with_max_cycles(30_000)
}

/// A faulted small-system point exercising every event family: DPM (P-B),
/// DBR grants (complement's hot flows starve without reassignment), a
/// receiver outage, a CDR relock on a live hot channel and an LS token
/// loss. Small topology is R(1,4,4): complement pairs 0↔3 / 1↔2, so the
/// hot flow 1→2 rides λ(1→2) = 3 and 0→3 rides λ1 (the outage victim).
fn traced_point(mode: NetworkMode, control: ControlPlane, load: f64) -> RunPoint {
    let mut cfg = SystemConfig::small(mode);
    cfg.control_plane = control;
    cfg.trace = TraceConfig::on();
    cfg.faults = FaultPlan::new()
        .receiver_outage(3, 1, 3000, 7000)
        .at(
            3500,
            FaultKind::CdrRelock {
                board: 1,
                dest: 2,
                wavelength: 3,
                penalty: 200,
            },
        )
        .at(4010, FaultKind::TokenLoss { victim: 2 });
    RunPoint::new(cfg, TrafficPattern::Complement, load, plan())
}

fn batch() -> Vec<RunPoint> {
    // Both control planes and both reconfig-capable modes, two loads: the
    // trace content differs per point, so an ordering bug cannot cancel out.
    let mut points = Vec::new();
    for control in [ControlPlane::AnalyticLatency, ControlPlane::MessageLevel] {
        for mode in [NetworkMode::PB, NetworkMode::NpB] {
            for load in [0.3, 0.6] {
                points.push(traced_point(mode, control, load));
            }
        }
    }
    points
}

#[test]
fn traces_are_byte_identical_sequential_vs_parallel() {
    let one = NonZeroUsize::MIN;
    let seq = run_points(one, batch());
    let par = run_points(NonZeroUsize::new(4).unwrap(), batch());
    assert_eq!(seq.len(), par.len());
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        let (ts, tp) = (&s.trace, &p.trace);
        assert_eq!(s.result, p.result, "point {i}: results diverged");
        assert!(!ts.records.is_empty(), "point {i}: empty trace");
        assert_eq!(
            jsonl(&ts.records),
            jsonl(&tp.records),
            "point {i}: trace bytes diverged"
        );
        assert_eq!(
            chrome_trace(&ts.records),
            chrome_trace(&tp.records),
            "point {i}: chrome trace bytes diverged"
        );
        assert_eq!(ts.windows, tp.windows, "point {i}: metric windows diverged");
        assert_eq!(ts.dropped, tp.dropped);
    }
}

#[test]
fn tracing_does_not_perturb_results() {
    let traced = traced_point(NetworkMode::PB, ControlPlane::MessageLevel, 0.5);
    let mut plain = traced.clone();
    plain.cfg.trace = TraceConfig::off();
    let traced = traced.execute();
    let (r_traced, trace) = (traced.result, traced.trace);
    let r_plain = plain.execute().result;
    assert_eq!(r_traced, r_plain, "tracing must observe, never perturb");
    assert!(!trace.records.is_empty());
    assert!(!trace.windows.is_empty());
}

#[test]
fn trace_off_returns_empty_trace_and_same_result() {
    let on = traced_point(NetworkMode::PB, ControlPlane::AnalyticLatency, 0.4);
    let mut off = on.clone();
    off.cfg.trace = TraceConfig::off();
    let off = off.execute();
    let trace = off.trace;
    assert_eq!(off.result, on.execute().result);
    assert!(trace.records.is_empty());
    assert!(trace.windows.is_empty());
    assert_eq!(trace.dropped, 0);
    assert!(trace.counter_names.is_empty());
    assert!(trace.hist_summaries.is_empty());
}

#[test]
fn latency_and_tx_wait_histograms_are_registered_and_populated() {
    let p = traced_point(NetworkMode::PB, ControlPlane::AnalyticLatency, 0.5);
    let out = p.execute();
    let (r, trace) = (out.result, out.trace);
    let names: Vec<&str> = trace
        .hist_summaries
        .iter()
        .map(|h| h.name.as_str())
        .collect();
    assert_eq!(
        names,
        ["latency_cycles", "tx_wait_cycles"],
        "histograms must register in a fixed order"
    );
    for h in &trace.hist_summaries {
        assert!(h.count > 0, "{}: empty histogram", h.name);
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99, "{}: quantiles", h.name);
    }
    // The latency histogram digests the same population the headline mean
    // summarises: its mean lands within a bin width of the exact mean.
    let lat = &trace.hist_summaries[0];
    assert!(
        (lat.mean - r.latency).abs() < 16.0,
        "histogram mean {} vs exact mean {}",
        lat.mean,
        r.latency
    );
}

#[test]
fn faulted_trace_contains_every_event_family() {
    let p = traced_point(NetworkMode::PB, ControlPlane::MessageLevel, 0.5);
    let out = p.execute();
    let (_, trace) = (out.result, out.trace);
    let tags: std::collections::BTreeSet<&str> =
        trace.records.iter().map(|r| r.event.tag()).collect();
    for family in [
        "window",
        "dpm_retune",
        "dpm_applied",
        "ls_stage",
        "dbr_outcome",
        "grant",
        "fault",
        "relock_start",
        "relock_end",
    ] {
        assert!(tags.contains(family), "missing {family}; saw {tags:?}");
    }
}
