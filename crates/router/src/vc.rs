//! Per-input virtual-channel state machines.
//!
//! Flits from different nodes interleave in the electrical domain through
//! virtual channels (§2.1). Each input VC owns a flit buffer and walks the
//! per-packet pipeline: Idle → Routing (RC) → WaitingVc (VA) → Active
//! (SA/ST per flit) → Idle on tail traversal.
//!
//! Two representations coexist:
//!
//! * [`VcState`] — the enum form, which defines the snapshot byte format
//!   (tags 0–3) and is what checkpoints serialize;
//! * [`VcArena`] — a struct-of-arrays arena holding the same state as
//!   parallel flat vectors indexed by requester id `r = in_port · V + in_vc`,
//!   which is what the router's VA/SA/ST passes actually walk. The arena's
//!   [`VcArena::state`]/[`VcArena::set_state`] bridge to the enum form so
//!   snapshots stay byte-identical to the pre-arena layout.

use crate::buffer::FlitBuffer;
use crate::routing::PortId;
use desim::Cycle;

/// Pipeline state of one input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet in flight.
    Idle,
    /// Route computation in progress; completes at the stored cycle.
    Routing {
        /// Cycle at which RC completes.
        done_at: Cycle,
    },
    /// Route known; requesting an output VC each cycle.
    WaitingVc {
        /// Output port the packet will use.
        out_port: PortId,
    },
    /// Output VC held; flits bid for the switch. Bidding allowed from
    /// `active_at` (VA took one cycle).
    Active {
        /// Output port the packet uses.
        out_port: PortId,
        /// Output VC index held.
        out_vc: u8,
        /// First cycle the VC may bid in SA.
        active_at: Cycle,
    },
}

/// Discriminant of [`VcState`], stored one byte per VC in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum VcTag {
    /// No packet in flight.
    Idle = 0,
    /// Route computation in progress (`timer` = completion cycle).
    Routing = 1,
    /// Route known (`out_port` valid); requesting an output VC.
    Waiting = 2,
    /// Output VC held (`out_port`/`out_vc` valid, `timer` = first SA cycle).
    Active = 3,
}

/// Struct-of-arrays arena over all input VCs of one router.
///
/// Fields the route loop touches (state tag, routed port, held output VC,
/// stage timer) live in parallel flat vectors so the VA/SA/ST passes walk
/// contiguous memory; the flit buffers sit in their own vector, touched
/// only on inject/pop. Indexing is by requester id `r = in_port · V + in_vc`.
#[derive(Debug)]
pub struct VcArena {
    /// Pipeline state discriminant per VC.
    pub tag: Vec<VcTag>,
    /// Routed output port; valid when `tag` is `Waiting` or `Active`.
    pub out_port: Vec<u16>,
    /// Held output VC; valid when `tag` is `Active`.
    pub out_vc: Vec<u8>,
    /// Stage timer: RC `done_at` when `Routing`, SA `active_at` when `Active`.
    pub timer: Vec<Cycle>,
    /// Flit buffers, same indexing.
    pub buffers: Vec<FlitBuffer>,
}

impl VcArena {
    /// Creates `n` idle VCs with buffers of `depth` flits.
    pub fn new(n: usize, depth: usize) -> Self {
        Self {
            tag: vec![VcTag::Idle; n],
            out_port: vec![0; n],
            out_vc: vec![0; n],
            timer: vec![0; n],
            buffers: (0..n).map(|_| FlitBuffer::new(depth)).collect(),
        }
    }

    /// Number of VCs.
    pub fn len(&self) -> usize {
        self.tag.len()
    }

    /// True if the arena holds no VCs.
    pub fn is_empty(&self) -> bool {
        self.tag.is_empty()
    }

    /// Reassembles the enum view of VC `r` (snapshot bridge).
    pub fn state(&self, r: usize) -> VcState {
        match self.tag[r] {
            VcTag::Idle => VcState::Idle,
            VcTag::Routing => VcState::Routing {
                done_at: self.timer[r],
            },
            VcTag::Waiting => VcState::WaitingVc {
                out_port: PortId(self.out_port[r]),
            },
            VcTag::Active => VcState::Active {
                out_port: PortId(self.out_port[r]),
                out_vc: self.out_vc[r],
                active_at: self.timer[r],
            },
        }
    }

    /// Scatters an enum state into the arrays for VC `r` (snapshot bridge).
    pub fn set_state(&mut self, r: usize, s: VcState) {
        match s {
            VcState::Idle => self.tag[r] = VcTag::Idle,
            VcState::Routing { done_at } => {
                self.tag[r] = VcTag::Routing;
                self.timer[r] = done_at;
            }
            VcState::WaitingVc { out_port } => {
                self.tag[r] = VcTag::Waiting;
                self.out_port[r] = out_port.0;
            }
            VcState::Active {
                out_port,
                out_vc,
                active_at,
            } => {
                self.tag[r] = VcTag::Active;
                self.out_port[r] = out_port.0;
                self.out_vc[r] = out_vc;
                self.timer[r] = active_at;
            }
        }
    }

    /// Heap bytes held by the arena (for `approx_memory_bytes`).
    pub fn approx_memory_bytes(&self) -> usize {
        use crate::flit::Flit;
        self.tag.capacity() * std::mem::size_of::<VcTag>()
            + self.out_port.capacity() * std::mem::size_of::<u16>()
            + self.out_vc.capacity()
            + self.timer.capacity() * std::mem::size_of::<Cycle>()
            + self.buffers.capacity() * std::mem::size_of::<FlitBuffer>()
            + self
                .buffers
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<Flit>())
                .sum::<usize>()
    }
}

impl desim::snap::Snap for VcState {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        match self {
            VcState::Idle => w.u8(0),
            VcState::Routing { done_at } => {
                w.u8(1);
                w.u64(*done_at);
            }
            VcState::WaitingVc { out_port } => {
                w.u8(2);
                w.u16(out_port.0);
            }
            VcState::Active {
                out_port,
                out_vc,
                active_at,
            } => {
                w.u8(3);
                w.u16(out_port.0);
                w.u8(*out_vc);
                w.u64(*active_at);
            }
        }
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(match r.u8()? {
            0 => VcState::Idle,
            1 => VcState::Routing { done_at: r.u64()? },
            2 => VcState::WaitingVc {
                out_port: PortId(r.u16()?),
            },
            3 => VcState::Active {
                out_port: PortId(r.u16()?),
                out_vc: r.u8()?,
                active_at: r.u64()?,
            },
            b => {
                return Err(desim::snap::SnapError::Format(format!(
                    "bad VC state tag {b:#x}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, FlitKind, NodeId, PacketId};

    fn head() -> Flit {
        Flit {
            packet: PacketId(1),
            kind: FlitKind::Head,
            src: NodeId(0),
            dst: NodeId(3),
            injected_at: 0,
            labelled: false,
            seq: 0,
        }
    }

    #[test]
    fn arena_starts_idle_with_space() {
        let a = VcArena::new(3, 2);
        assert_eq!(a.len(), 3);
        for r in 0..a.len() {
            assert_eq!(a.state(r), VcState::Idle);
            assert!(!a.buffers[r].is_full());
        }
    }

    #[test]
    fn arena_state_bridge_round_trips_every_variant() {
        let mut a = VcArena::new(2, 2);
        for s in [
            VcState::Routing { done_at: 2 },
            VcState::WaitingVc {
                out_port: PortId(3),
            },
            VcState::Active {
                out_port: PortId(3),
                out_vc: 1,
                active_at: 5,
            },
            VcState::Idle,
        ] {
            a.set_state(1, s);
            assert_eq!(a.state(1), s);
            assert_eq!(a.state(0), VcState::Idle, "neighbour untouched");
        }
    }

    #[test]
    fn full_buffer_rejects() {
        let mut a = VcArena::new(1, 1);
        a.buffers[0].push(head());
        assert!(a.buffers[0].is_full());
    }
}
