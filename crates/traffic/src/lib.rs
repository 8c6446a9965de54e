#![forbid(unsafe_code)]
//! # traffic — synthetic workloads for the E-RAPID evaluation
//!
//! §4 of the paper: "Packets were injected according to Bernoulli process
//! based on the network load for a given simulation run. The network load is
//! varied from 0.1 - 0.9 of the network capacity." Patterns evaluated:
//! uniform, butterfly, complement, and perfect shuffle on 64 nodes.
//!
//! * [`pattern`] — destination patterns: the paper's four plus the other
//!   classics (transpose, bit reversal, tornado, neighbour, hotspot),
//! * [`bernoulli`] — the Bernoulli per-cycle injection process,
//! * [`capacity`] — the uniform-traffic network capacity `N_c`
//!   (packets/node/cycle) that loads are normalised against,
//! * [`generator`] — per-node packet generators tying it together,
//! * [`burst`] — a two-state MMPP (bursty on/off) extension workload,
//! * [`trace`] — record/replay of injection traces,
//! * [`source`] — the [`source::InjectionSource`] seam external workload
//!   engines (e.g. `erapid-workloads`) plug into.

//!
//! ## Example: the paper's injection model
//!
//! ```
//! use traffic::capacity::CapacityModel;
//! use traffic::generator::NodeGenerator;
//! use traffic::pattern::TrafficPattern;
//!
//! // 64-node capacity and a node injecting complement traffic at half load.
//! let nc = CapacityModel::paper64().uniform_capacity();
//! assert!((nc - 0.02051).abs() < 1e-4);
//! let mut gen = NodeGenerator::new(3, 64, TrafficPattern::Complement, 1.0, 42);
//! let req = gen.poll(0).unwrap();
//! assert_eq!(req.dst, 60); // bitwise complement of node 3
//! ```

pub mod bernoulli;
pub mod burst;
pub mod capacity;
pub mod generator;
pub mod pattern;
pub mod source;
pub mod trace;

pub use capacity::CapacityModel;
pub use generator::NodeGenerator;
pub use pattern::TrafficPattern;
pub use trace::{InjectionTrace, TraceEntry, TraceError, TraceMeta, TraceRecorder, TraceReplayer};
