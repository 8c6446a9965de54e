//! Packet-conservation invariants of the full system, including
//! property-style sweeps over random small configurations: the network
//! never loses or duplicates a packet, under every mode, pattern and load.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::desim::rng::Pcg32;
use erapid_suite::erapid_core::config::{BurstSpec, NetworkMode, SystemConfig};
use erapid_suite::erapid_core::system::System;
use erapid_suite::traffic::pattern::TrafficPattern;

fn plan() -> PhasePlan {
    PhasePlan::new(2000, 4000).with_max_cycles(60_000)
}

/// Runs and checks delivered ≤ injected always, and delivered == injected
/// once fully drained.
fn check_conservation(mut sys: System, expect_drain: bool) {
    sys.run(&mut |_| {});
    let m = sys.metrics();
    assert!(
        m.delivered_total <= m.injected_total,
        "delivered {} > injected {}",
        m.delivered_total,
        m.injected_total
    );
    if expect_drain {
        // Stop injection and let the network empty completely.
        let mut extra = 0u64;
        while !sys.is_drained() && extra < 200_000 {
            sys.step_without_injection();
            extra += 1;
        }
        assert!(sys.is_drained(), "network failed to drain");
        let m = sys.metrics();
        assert_eq!(
            m.delivered_total, m.injected_total,
            "drained network must have delivered everything"
        );
    }
}

#[test]
fn conservation_all_modes_uniform() {
    for mode in NetworkMode::all() {
        let cfg = SystemConfig::small(mode);
        let sys = System::new(cfg, TrafficPattern::Uniform, 0.4, plan());
        check_conservation(sys, true);
    }
}

#[test]
fn conservation_adversarial_patterns() {
    for pattern in [
        TrafficPattern::Complement,
        TrafficPattern::Butterfly,
        TrafficPattern::Tornado,
    ] {
        let cfg = SystemConfig::small(NetworkMode::PB);
        let sys = System::new(cfg, pattern, 0.5, plan());
        check_conservation(sys, true);
    }
}

#[test]
fn conservation_under_saturation() {
    // Saturated complement on the static network: packets pile up, but
    // none may vanish or duplicate.
    let cfg = SystemConfig::small(NetworkMode::NpNb);
    let sys = System::new(cfg, TrafficPattern::Complement, 0.9, plan());
    check_conservation(sys, true);
}

#[test]
fn conservation_bursty() {
    let mut cfg = SystemConfig::small(NetworkMode::PB);
    cfg.burst = Some(BurstSpec {
        burstiness: 4.0,
        dwell: 800.0,
    });
    let sys = System::new(cfg, TrafficPattern::Uniform, 0.4, plan());
    check_conservation(sys, true);
}

/// Random small configurations (deterministic PCG32 cases): no panics,
/// conservation holds, and the WDM invariant survives every run.
#[test]
fn conservation_random_configs() {
    let mut rng = Pcg32::stream(0xC0_45E2, 0);
    let windows = [500u64, 1000, 2000];
    for _case in 0..12 {
        let mode = NetworkMode::all()[rng.below(4) as usize];
        let load = 0.1 + 0.7 * rng.next_f64();
        let seed = rng.below(1_000) as u64;
        let window = windows[rng.below(3) as usize];
        let pattern = TrafficPattern::paper_suite()[rng.below(4) as usize]
            .1
            .clone();
        let mut cfg = SystemConfig::small(mode);
        cfg.seed = seed;
        cfg.schedule = erapid_suite::reconfig::lockstep::LockStepSchedule::new(window);
        let short = PhasePlan::new(window, 2 * window).with_max_cycles(20 * window);
        let mut sys = System::new(cfg, pattern, load, short);
        sys.run(&mut |_| {});
        let m = sys.metrics();
        assert!(
            m.delivered_total <= m.injected_total,
            "mode {mode:?} seed {seed} window {window}: delivered > injected"
        );
        // The WDM invariant must hold at the end of any run: each
        // (destination, wavelength) has at most one lit channel.
        let srs = sys.srs();
        for d in 0..4u16 {
            for w in 1..4u16 {
                let lit = (0..4u16)
                    .filter(|&s| s != d && srs.channel(s, d, w).is_on())
                    .count();
                assert!(lit <= 1, "WDM collision at (B{d}, λ{w}): {lit} lit");
            }
        }
    }
}
