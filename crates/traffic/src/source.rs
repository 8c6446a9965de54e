//! The injection-source seam: anything that can feed a simulated system
//! packets, cycle by cycle.
//!
//! The core engine's three injection branches — recorded-trace replay,
//! per-node Bernoulli/bursty generators, and scenario engines from
//! `erapid-workloads` — all reduce to "emit the `(src, dst)` requests due
//! at cycle `now`". The first two predate this trait and keep their
//! concrete fast paths; scenario engines plug in through it, so the core
//! crate never names a concrete workload type.

use crate::generator::PacketRequest;
use desim::snap::{SnapError, SnapReader, SnapWriter};
use desim::Cycle;

/// A deterministic, checkpointable packet source.
///
/// ## Contract
///
/// * [`InjectionSource::poll_into`] is called exactly once per simulated
///   cycle with strictly increasing `now`, and must append every request
///   due at `now` in a deterministic order (ascending source node, by
///   convention — the order the per-node generator loop produces).
/// * The emission stream must be a pure function of construction inputs:
///   two sources built from the same inputs and polled over the same
///   cycles produce identical streams. This is what makes scenario runs
///   byte-identical whether run alone or fanned out across points, with
///   injection a prologue phase of every cycle.
/// * `save_state`/`load_state` serialize exactly the mutable state (RNG
///   positions, phase counters) so a checkpointed run resumes the stream
///   without divergence; configuration-derived tables are rebuilt by the
///   caller constructing the source before overlay.
pub trait InjectionSource: Send {
    /// Appends every packet request due at `now` to `out`.
    fn poll_into(&mut self, now: Cycle, out: &mut Vec<PacketRequest>);

    /// Serializes the mutable source state.
    fn save_state(&self, w: &mut SnapWriter);

    /// Overlays checkpointed state onto a source constructed from the same
    /// inputs; shape mismatches are typed errors, never panics.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}
