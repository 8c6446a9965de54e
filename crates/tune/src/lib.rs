//! Telemetry-driven policy auto-tuning (ROADMAP: "telemetry-driven policy
//! auto-tuning").
//!
//! The paper fixes the DPM operating point (`L_min`/`L_max`/`B_max`, window
//! `R_w`) as constants; the PR-8 scenario matrix shows hostile workloads
//! (incast, Zipf hotspot, collective phases) punishing exactly those
//! constants. This crate closes the loop the metric registry opened, in two
//! layers:
//!
//! * **Offline** ([`sweep`]): enumerate an operating-point grid, join each
//!   point's traced outcome (power, p95 latency, reconfiguration activity
//!   from the per-window counter columns), compute the power/latency Pareto
//!   front per workload and choose the point minimising the
//!   power × p95-latency objective. The `autotune` bench bin drives this
//!   through `erapid_core::runner::run_points` and emits `TUNE_<sha>.json`.
//! * **Online** ([`controller`]): a deterministic windowed controller that
//!   nudges the live DPM thresholds at `R_w` boundaries from the just-closed
//!   window's link/buffer counters. All state is integer milli-units, so its
//!   decisions are bit-exact across reruns, the run-level pool and
//!   checkpoint/resume (DESIGN.md §15).
//!
//! Everything here is a pure function of its inputs — no clocks, no
//! ambient RNG, no filesystem — which is what the determinism-first test
//! tier (props/golden/checkpoint) pins.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod controller;
pub mod error;
pub mod sweep;

pub use controller::{ControllerSpec, Regime, ThresholdController, WindowObservation};
pub use error::TuneError;
pub use sweep::{choose, improves, pareto_front, OperatingPoint, SweepOutcome, TuneGrid};
