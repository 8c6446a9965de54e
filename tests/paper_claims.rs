//! Integration tests asserting the paper's §4.2 claims qualitatively, on
//! the full 64-node system (release mode recommended: `cargo test
//! --release`). These are the "shape" checks EXPERIMENTS.md reports
//! quantitatively.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::experiment::RunResult;
use erapid_suite::erapid_core::runner::RunPoint;
use erapid_suite::traffic::pattern::TrafficPattern;
use std::num::NonZeroUsize;

fn quick_plan(window: u64) -> PhasePlan {
    PhasePlan::new(2 * window, 4 * window).with_max_cycles(20 * window)
}

fn run(mode: NetworkMode, pattern: TrafficPattern, load: f64) -> RunResult {
    let cfg = SystemConfig::paper64(mode);
    let plan = quick_plan(cfg.schedule.window);
    RunPoint::new(cfg, pattern, load, plan)
        .execute(NonZeroUsize::MIN)
        .result
}

#[test]
fn uniform_reconfiguration_is_a_noop() {
    // "For uniform traffic, NP-NB shows similar performance (throughput
    // and latency) as NP-B ... This implies that LS independently evaluates
    // if reconfiguration is necessary."
    let base = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.5);
    let reconf = run(NetworkMode::NpB, TrafficPattern::Uniform, 0.5);
    assert_eq!(
        reconf.grants, 0,
        "balanced load leaves nothing to re-allocate"
    );
    let dthr = (reconf.throughput - base.throughput).abs() / base.throughput;
    assert!(dthr < 0.02, "throughput difference {dthr} too large");
    let dlat = (reconf.latency - base.latency).abs() / base.latency;
    assert!(dlat < 0.05, "latency difference {dlat} too large");
}

#[test]
fn uniform_power_aware_saves_power_with_small_throughput_loss() {
    // "For P-NB ... marginal degradation in performance ... P-NB shows
    // almost 16% reduction on power consumption where as P-B shows almost
    // 50% reduction" (at the loads where DPM has headroom).
    let base = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.4);
    let pnb = run(NetworkMode::PNb, TrafficPattern::Uniform, 0.4);
    let pb = run(NetworkMode::PB, TrafficPattern::Uniform, 0.4);
    assert!(
        pnb.power_mw < base.power_mw,
        "P-NB must save power: {} vs {}",
        pnb.power_mw,
        base.power_mw
    );
    assert!(
        pb.power_mw < base.power_mw * 0.75,
        "P-B must save substantial power: {} vs {}",
        pb.power_mw,
        base.power_mw
    );
    let loss = (base.throughput - pb.throughput) / base.throughput;
    assert!(loss < 0.10, "P-B throughput loss {loss} exceeds 10%");
}

#[test]
fn complement_throughput_multiplies_under_dbr() {
    // "We achieve almost 400% improvement in throughput by completely
    // reconfiguring the network."
    let base = run(NetworkMode::NpNb, TrafficPattern::Complement, 0.7);
    let reconf = run(NetworkMode::NpB, TrafficPattern::Complement, 0.7);
    assert!(
        reconf.throughput > base.throughput * 3.0,
        "DBR multiplier only {:.2}",
        reconf.throughput / base.throughput
    );
    assert!(reconf.grants >= 40, "all idle wavelengths re-allocated");
}

#[test]
fn complement_np_nb_equals_p_nb_throughput() {
    // "The throughput, network latency and power consumption remains the
    // same for both NP-NB and P-NB" (both saturate on one wavelength).
    let a = run(NetworkMode::NpNb, TrafficPattern::Complement, 0.7);
    let b = run(NetworkMode::PNb, TrafficPattern::Complement, 0.7);
    let dthr = (a.throughput - b.throughput).abs() / a.throughput;
    assert!(dthr < 0.05, "throughput difference {dthr}");
    assert!(
        b.power_mw <= a.power_mw * 1.01,
        "P-NB never costs more power"
    );
}

#[test]
fn complement_power_rises_with_reconfigured_bandwidth() {
    // "The power consumption for a NP-B network is also 300% more than the
    // NP-NB/P-NB networks" — more lit-and-busy lasers.
    let base = run(NetworkMode::NpNb, TrafficPattern::Complement, 0.7);
    let reconf = run(NetworkMode::NpB, TrafficPattern::Complement, 0.7);
    assert!(
        reconf.power_mw > base.power_mw * 2.5,
        "NP-B power ratio only {:.2}",
        reconf.power_mw / base.power_mw
    );
}

#[test]
fn butterfly_and_shuffle_gain_from_dbr() {
    // Fig. 6's story: both adversarial permutations gain throughput from
    // reconfiguration at high load.
    for pattern in [TrafficPattern::Butterfly, TrafficPattern::PerfectShuffle] {
        let base = run(NetworkMode::NpNb, pattern.clone(), 0.8);
        let reconf = run(NetworkMode::NpB, pattern.clone(), 0.8);
        assert!(
            reconf.throughput > base.throughput * 1.2,
            "{}: NP-B gain only {:.2}x",
            pattern.name(),
            reconf.throughput / base.throughput
        );
        assert!(reconf.grants > 0);
    }
}

#[test]
fn pb_tracks_npb_throughput_with_less_power_at_mid_load() {
    // The headline claim: "achieving a reduction in power consumption of
    // 25% - 50% while degrading the throughput by less than 5%."
    for pattern in [TrafficPattern::Butterfly, TrafficPattern::Complement] {
        let npb = run(NetworkMode::NpB, pattern.clone(), 0.5);
        let pb = run(NetworkMode::PB, pattern.clone(), 0.5);
        let loss = (npb.throughput - pb.throughput) / npb.throughput;
        assert!(
            loss < 0.08,
            "{}: P-B throughput loss {loss:.3} too large",
            pattern.name()
        );
        assert!(
            pb.power_mw < npb.power_mw,
            "{}: P-B must consume less than NP-B ({} vs {})",
            pattern.name(),
            pb.power_mw,
            npb.power_mw
        );
    }
}

#[test]
fn latency_grows_with_load() {
    let lo = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.2);
    let hi = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.8);
    assert!(hi.latency > lo.latency, "{} !> {}", hi.latency, lo.latency);
}

#[test]
fn offered_equals_accepted_below_saturation() {
    for load in [0.2, 0.5] {
        let r = run(NetworkMode::NpNb, TrafficPattern::Uniform, load);
        let offered = SystemConfig::paper64(NetworkMode::NpNb)
            .capacity()
            .injection_rate(load);
        let err = (r.throughput - offered).abs() / offered;
        assert!(
            err < 0.15,
            "load {load}: accepted {} vs offered {offered}",
            r.throughput
        );
        assert_eq!(r.undrained, 0);
    }
}
