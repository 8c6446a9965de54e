//! Timing bench wrapping one representative load point of each figure
//! panel, so the bench suite exercises the same code paths the figure
//! binaries run without the full sweep cost. Plain `std::time` harness —
//! see `erapid_bench::timing`.

use desim::phase::PhasePlan;
use erapid_bench::timing::bench;
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::runner::RunPoint;
use traffic::pattern::TrafficPattern;

fn quick_plan(window: u64) -> PhasePlan {
    PhasePlan::new(window, 2 * window).with_max_cycles(8 * window)
}

fn main() {
    for (name, pattern) in TrafficPattern::paper_suite() {
        for mode in [NetworkMode::NpNb, NetworkMode::PB] {
            bench(
                &format!("figure_points/{name}/{}/load0.5", mode.name()),
                10,
                || (),
                |()| {
                    let cfg = SystemConfig::paper64(mode);
                    let plan = quick_plan(cfg.schedule.window);
                    RunPoint::new(cfg, pattern.clone(), 0.5, plan)
                        .execute()
                        .result
                },
            );
        }
    }
}
