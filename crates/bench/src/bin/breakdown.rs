//! Latency decomposition: where cycles go on the way to the destination.
//!
//! The paper reports only end-to-end latency; this analysis bin splits it
//! into the measurable stages — source path (NI wait + IBI + reassembly),
//! TX-queue wait (the congestion signal DBR feeds on), and the remainder
//! (optical serialization + fiber + destination-side IBI) — to show *why*
//! latency explodes under adversarial patterns and what DBR actually fixes.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin breakdown
//! ```

use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::default_plan;
use erapid_core::runner::RunPoint;
use netstats::table::Table;
use std::num::NonZeroUsize;
use traffic::pattern::TrafficPattern;

fn main() {
    println!("=== latency decomposition, 64-node E-RAPID ===\n");
    for (name, pattern, modes) in [
        (
            "uniform",
            TrafficPattern::Uniform,
            vec![NetworkMode::NpNb, NetworkMode::PB],
        ),
        (
            "complement",
            TrafficPattern::Complement,
            vec![NetworkMode::NpNb, NetworkMode::NpB],
        ),
    ] {
        let mut t = Table::new(vec![
            "mode",
            "load",
            "e2e (cyc)",
            "src path",
            "TX-queue wait",
            "optical+dest",
        ])
        .with_title(format!("{name}: mean cycles per stage (remote packets)"));
        for mode in &modes {
            for load in [0.3, 0.6, 0.9] {
                let cfg = SystemConfig::paper64(*mode);
                let plan = default_plan(cfg.schedule.window);
                let r = RunPoint::new(cfg, pattern.clone(), load, plan)
                    .execute(NonZeroUsize::MIN)
                    .result;
                let rest = (r.latency - r.src_path - r.tx_wait).max(0.0);
                t.row(vec![
                    mode.name().to_string(),
                    format!("{load:.1}"),
                    format!("{:.1}", r.latency),
                    format!("{:.1}", r.src_path),
                    format!("{:.1}", r.tx_wait),
                    format!("{:.1}", rest),
                ]);
            }
        }
        println!("{}", t.render());
    }
    println!("Reading: under complement on the static network the TX-queue");
    println!("wait pins at its bound (~376 cycles — the queue is full, which");
    println!("is exactly the Buffer_util > B_max signal the Reconfigure stage");
    println!("classifies) and the credit backpressure pushes the rest of the");
    println!("delay back into the source path (NI backlog + stalled IBI).");
    println!("NP-B empties the TX queue entirely (wait ≈ 0): the re-assigned");
    println!("wavelengths drain packets as fast as they reassemble. (The e2e");
    println!("mean includes local packets; stage means cover remote packets,");
    println!("so columns are indicative, not an exact sum.)");
}
