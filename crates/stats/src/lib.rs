#![forbid(unsafe_code)]
//! # netstats — measurement substrate for the E-RAPID reproduction
//!
//! Everything the evaluation section of the paper measures flows through this
//! crate: link/buffer utilization over reconfiguration windows, packet
//! latency distributions, throughput in packets/node/cycle, and average link
//! power in milliwatts.
//!
//! Modules:
//! * [`running`] — numerically stable streaming mean/variance (Welford).
//! * [`histogram`] — fixed-bin latency histograms with percentile queries.
//! * [`occupancy`] — event-driven flit-cycle integrals, bit-compatible with
//!   eager per-cycle sampling (the hot-path form; DESIGN.md §10).
//! * [`windowed`] — windowed utilization counters; these are the "hardware
//!   counters located at each LC" from §3 of the paper, measuring
//!   `Link_util` and `Buffer_util` over each reconfiguration window `R_w`.
//! * [`meter`] — composite throughput/latency/power meters.
//! * [`table`] — plain-text table rendering for the bench binaries.
//! * [`csv`] — tiny CSV writer (no external dependency).

pub mod chart;
pub mod csv;
pub mod histogram;
pub mod meter;
pub mod occupancy;
pub mod running;
pub mod table;
pub mod windowed;

pub use histogram::Histogram;
pub use meter::{LatencyMeter, PowerMeter, ThroughputMeter};
pub use occupancy::OccupancyIntegral;
pub use running::Running;
pub use windowed::WindowedUtilization;
