#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::perf)]
#![forbid(unsafe_code)]
//! # erapid-core — the E-RAPID system model
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: an R(C,B,D) opto-electronic interconnect
//! (§2) with Lock-Step power/bandwidth reconfiguration (§3) and the
//! evaluation harness that regenerates §4.
//!
//! Architecture of one simulated system:
//!
//! ```text
//!  per board:                                  shared:
//!  ┌──────────────────────────────┐
//!  │ D nodes ──► IBI VC router ───┼─► per-destination TX queues
//!  │   ▲                          │        │ (flit reassembly)
//!  │   └── RX injectors ◄─────────┼────┐   ▼
//!  └──────────────────────────────┘    │  SRS: wavelength ownership map,
//!                                      │  optical channels (serialization,
//!          packet arrivals ◄──────────-┘  bit-rate levels, fiber delay)
//! ```
//!
//! * [`config`] — system parameters and the four network configurations
//!   NP-NB / P-NB / NP-B / P-B,
//! * [`inject`] — flit injectors feeding the IBI router from node NIs and
//!   optical receivers,
//! * [`txqueue`] — per-destination-board transmitter queues (packets are
//!   the interleaving unit in the optical domain, §2.1),
//! * [`srs`] — the Scalable Remote Optical Super-Highway: ownership map +
//!   channel bank + in-flight arrivals,
//! * [`board`] — one board: router, NIs, TX queues, receivers,
//! * [`system`] — the full system and its cycle loop, including the LS
//!   odd–even reconfiguration triggers,
//! * [`metrics`] — run metrics (throughput, latency, power, reconfig
//!   counters),
//! * [`experiment`] — what one run reports ([`RunResult`], [`RunTrace`]),
//!   where its traffic comes from ([`TraceSource`]) and the default phase
//!   plan and load axis,
//! * [`runner`] — the one run entry point: [`RunPoint::execute`] runs a
//!   point, [`run_points`] fans a batch over a worker pool
//!   (`ERAPID_THREADS`), and both return an [`Outcome`],
//! * [`faults`] — deterministic, seed-reproducible fault-event scheduling
//!   (receiver/transmitter outages, stuck LCs, CDR relocks, LS token
//!   faults),
//! * [`error`] — the typed [`ErapidError`] the library reports instead of
//!   aborting.
//!
//! Telemetry: enabling [`SystemConfig`]`::trace` (see
//! [`erapid_telemetry::TraceConfig`]) makes each system record a
//! cycle-stamped event trace (DPM retunes, CDR relocks, LS stages, DBR
//! grants, faults, buffer-threshold crossings) plus per-window metric
//! snapshots into a preallocated, point-local ring buffer. Tracing never
//! perturbs the simulation, and per-point traces are byte-identical
//! across sequential and parallel sweeps (see [`runner::run_points`]).

//!
//! ## Example: one experiment point
//!
//! ```
//! use erapid_core::config::{NetworkMode, SystemConfig};
//! use erapid_core::runner::RunPoint;
//! use desim::phase::PhasePlan;
//! use traffic::pattern::TrafficPattern;
//!
//! let cfg = SystemConfig::small(NetworkMode::PB); // fast R(1,4,4) system
//! let plan = PhasePlan::new(2000, 4000).with_max_cycles(40_000);
//! let point = RunPoint::new(cfg, TrafficPattern::Uniform, 0.3, plan);
//! let r = point.execute().result;
//! assert!(r.throughput > 0.0);
//! assert!(r.power_mw > 0.0);
//! assert_eq!(r.undrained, 0);
//! ```

pub mod board;
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod experiment;
pub mod faults;
pub mod inject;
pub mod metrics;
pub mod runner;
pub mod srs;
pub mod stream;
pub mod system;
pub mod txqueue;

pub use checkpoint::{latest_valid, restore_system, Checkpointer};
pub use config::{NetworkMode, SystemConfig};
pub use error::ErapidError;
pub use experiment::{trace_meta, RunResult, RunTrace, TraceSource};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::PacketDelivery;
pub use runner::{parallel_map, parallel_map_prioritized, run_points, Outcome, RunPoint};
pub use stream::{StreamCursor, StreamPaths, StreamSink};
pub use system::{PhaseTimers, System, WindowFlush};
