//! Fault resilience through reconfigurability: when a receiver dies, a
//! bandwidth-reconfigurable E-RAPID re-acquires capacity for the orphaned
//! flow through its queue demand; a statically-assigned network starves.
//! (The fault-tolerance dividend of DBR — implied by the architecture,
//! developed in the authors' later work.)

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{ControlPlane, NetworkMode, SystemConfig};
use erapid_suite::erapid_core::faults::{FaultKind, FaultPlan};
use erapid_suite::erapid_core::runner::RunPoint;
use erapid_suite::erapid_core::system::System;
use erapid_suite::photonics::rwa::StaticRwa;
use erapid_suite::photonics::wavelength::BoardId;
use erapid_suite::traffic::pattern::TrafficPattern;

const FAULT_AT: u64 = 4000;

fn plan() -> PhasePlan {
    PhasePlan::new(8000, 8000).with_max_cycles(80_000)
}

/// Runs complement traffic (board 0 ↔ board 3 are partners; every other
/// flow toward board 3 idles — so spare wavelengths exist for DBR), killing
/// board 0's static wavelength toward board 3 early in the warm-up.
/// Returns (delivered, undrained, grants).
///
/// Complement is the right fault scenario under the paper's thresholds:
/// `B_min = 0` means only *completely idle* flows donate wavelengths, so
/// under uniform traffic a dead wavelength is genuinely unrecoverable —
/// every other flow is busy. Reconfigurability buys resilience exactly
/// where load is concentrated.
fn run_with_fault(mode: NetworkMode, load: f64) -> (u64, u64, u64) {
    let cfg = SystemConfig::small(mode);
    let rwa = StaticRwa::new(cfg.boards);
    // Static wavelength of flow 0 → 3.
    let w = rwa.wavelength(BoardId(0), BoardId(3)).0;
    let mut sys = System::new(cfg, TrafficPattern::Complement, load, plan());
    while sys.now() < FAULT_AT {
        sys.step();
    }
    sys.fail_receiver(3, w);
    sys.run(&mut |_| {});
    let m = sys.metrics();
    (
        m.delivered_total,
        m.tracker.outstanding(),
        sys.srs().reconfig_counts().0,
    )
}

#[test]
fn static_network_starves_after_receiver_failure() {
    let (_, undrained, grants) = run_with_fault(NetworkMode::NpNb, 0.3);
    assert_eq!(grants, 0);
    assert!(
        undrained > 0,
        "flow 0→3 has no path in NP-NB after the failure; labelled packets \
         must be stuck"
    );
}

#[test]
fn reconfigurable_network_routes_around_the_failure() {
    let (_, undrained, grants) = run_with_fault(NetworkMode::NpB, 0.3);
    assert!(grants > 0, "DBR must have re-assigned wavelengths");
    assert_eq!(
        undrained, 0,
        "with DBR, flow 0→3 re-acquires a wavelength and every labelled \
         packet drains"
    );
}

#[test]
fn reconfigured_network_keeps_comparable_delivery_volume() {
    let (delivered_ok, _, _) = {
        let cfg = SystemConfig::small(NetworkMode::NpB);
        let mut sys = System::new(cfg, TrafficPattern::Complement, 0.3, plan());
        sys.run(&mut |_| {});
        (sys.metrics().delivered_total, 0u64, 0u64)
    };
    let (delivered_fault, undrained, _) = run_with_fault(NetworkMode::NpB, 0.3);
    assert_eq!(undrained, 0);
    // One dead wavelength costs little total volume once DBR re-routes.
    let ratio = delivered_fault as f64 / delivered_ok as f64;
    assert!(ratio > 0.85, "delivery ratio {ratio}");
}

#[test]
fn token_loss_round_completes_via_retry_instead_of_deadlocking() {
    // Regression (a): losing an LS token mid-round must not hang the
    // control plane. The round watchdog detects the silent loss, relaunches
    // the stage, and the round's decisions still land — the run finishes,
    // DBR still grants, and the abort fail-safe never fires.
    let mut cfg = SystemConfig::small(NetworkMode::PB);
    cfg.control_plane = ControlPlane::MessageLevel;
    // First bandwidth boundary is t = 4000 (window 2000, even windows
    // trigger Bandwidth); 10 cycles later the token is mid-ring.
    cfg.faults = FaultPlan::new().at(4010, FaultKind::TokenLoss { victim: 1 });
    let faulted = RunPoint::new(
        cfg.clone(),
        TrafficPattern::Complement,
        0.4,
        PhasePlan::new(2000, 6000).with_max_cycles(40_000),
    )
    .execute()
    .result;
    cfg.faults = FaultPlan::new();
    let clean = RunPoint::new(
        cfg,
        TrafficPattern::Complement,
        0.4,
        PhasePlan::new(2000, 6000).with_max_cycles(40_000),
    )
    .execute()
    .result;
    assert!(
        faulted.ls_retries >= 1,
        "the watchdog must have resent the lost token"
    );
    assert_eq!(faulted.ls_aborts, 0, "retry must succeed, not abort");
    assert!(faulted.grants > 0, "the recovered round still reconfigures");
    assert_eq!(
        faulted.grants, clean.grants,
        "recovery delays the decisions but must not change them"
    );
    assert_eq!(faulted.undrained, 0, "every labelled packet drains");
}

#[test]
fn throughput_recovers_after_receiver_repair() {
    // Regression (b): after a receiver failure *and* repair, steady state
    // must return — measured entirely post-repair, accepted throughput
    // stays within 5% of a fault-free run of the same seed.
    let outage = FaultPlan::new().receiver_outage(3, 1, 4000, 8000);
    let plan = PhasePlan::new(12_000, 12_000).with_max_cycles(80_000);
    let mut cfg = SystemConfig::small(NetworkMode::NpB);
    cfg.faults = outage;
    let repaired = RunPoint::new(cfg, TrafficPattern::Complement, 0.3, plan)
        .execute()
        .result;
    let clean = RunPoint::new(
        SystemConfig::small(NetworkMode::NpB),
        TrafficPattern::Complement,
        0.3,
        plan,
    )
    .execute()
    .result;
    assert_eq!(repaired.undrained, 0, "no packet may stay stuck");
    let rel = (repaired.throughput - clean.throughput).abs() / clean.throughput;
    assert!(
        rel < 0.05,
        "post-repair throughput {} vs fault-free {} diverges by {:.1}%",
        repaired.throughput,
        clean.throughput,
        100.0 * rel
    );
}

#[test]
fn repair_restores_the_static_network_too() {
    // `repair_receiver` is the inverse of `fail_receiver` even without DBR:
    // once the receiver is back, NP-NB's static wavelength relights and the
    // previously-starved flow drains.
    let cfg = SystemConfig::small(NetworkMode::NpNb);
    let rwa = StaticRwa::new(cfg.boards);
    let w = rwa.wavelength(BoardId(0), BoardId(3)).0;
    let mut sys = System::new(cfg, TrafficPattern::Complement, 0.3, plan());
    while sys.now() < FAULT_AT {
        sys.step();
    }
    sys.fail_receiver(3, w);
    while sys.now() < 2 * FAULT_AT {
        sys.step();
    }
    sys.repair_receiver(3, w);
    sys.run(&mut |_| {});
    let m = sys.metrics();
    assert_eq!(
        m.tracker.outstanding(),
        0,
        "repaired static network must drain the orphaned flow"
    );
}

#[test]
fn conservation_holds_across_failures() {
    // Even with the fault, nothing is lost or duplicated: whatever was
    // delivered is at most what was injected, and stuck packets account
    // for the rest once the network drains around the dead wavelength.
    for mode in [NetworkMode::NpNb, NetworkMode::PB] {
        let cfg = SystemConfig::small(mode);
        let mut sys = System::new(cfg, TrafficPattern::Complement, 0.3, plan());
        while sys.now() < FAULT_AT {
            sys.step();
        }
        sys.fail_receiver(3, 1);
        sys.fail_receiver(2, 2);
        sys.run(&mut |_| {});
        let m = sys.metrics();
        assert!(m.delivered_total <= m.injected_total);
        assert!(m.delivered_total > 0);
    }
}
