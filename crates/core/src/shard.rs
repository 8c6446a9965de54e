//! The cycle's hot half — router steps and optical transmit — as one set
//! of compute/commit functions with two schedulers.
//!
//! Within one cycle, boards never touch each other directly: all
//! cross-board traffic flows through the SRS arrival/wake heaps, the
//! shared run metrics and the power cache — none of which the per-board
//! hot path (the bitset-wavefront router step, DESIGN.md §16, plus lane
//! transmit) needs to *read*. So the hot half splits into:
//!
//! * **compute** — [`route_board`] steps board `b`'s router and NIs, and
//!   [`transmit_lane`] scans its ready TX queues onto SRS lane `b` (see
//!   [`crate::srs::SrsLane`]); both write every would-be shared effect
//!   (deliveries, wake/arrival inserts, the power-dirty bit) into that
//!   board's [`BoardOut`];
//! * **commit** — the main thread applies the out-buffers in ascending
//!   board order (`System::commit_deliveries`, then
//!   `System::commit_lanes`), so every f64 accumulation order, heap
//!   insertion sequence and telemetry emission is fixed whichever
//!   scheduler ran the compute.
//!
//! The one-worker scheduler is `System::step_inner` itself: all
//! `route_board` calls, then all `transmit_lane` calls over safe
//! [`crate::srs::Srs::lane`] views. The N-worker scheduler is the [`Gate`]
//! below: workers claim whole boards and run both functions fused per
//! board, over lanes sliced from raw parts — the only `unsafe` in the
//! crate.
//!
//! Synchronization is a self-built epoch gate (no external crates): the
//! main thread publishes a fresh [`ShardCtx`] per cycle and bumps the
//! epoch half of a packed `(epoch << 32) | cursor` ticket; workers claim
//! board indices by `fetch_add` on the cursor half, so a claim is
//! **epoch-tagged** — a worker that slept through a cycle can tell its
//! claim is stale and can never compute a board against an outdated
//! context. The invariant making the handoff sound: a claim `(e, b)` with
//! `b < nboards` implies the published context is exactly epoch `e`,
//! because the main thread cannot finish epoch `e` (and republish) until
//! every claimed board's completion has been counted.
//!
//! Context pointers are re-derived from `&mut System` every cycle and die
//! at the commit barrier, so the sequential phases in between run on the
//! plain, fully-checked `&mut self` paths.

#![deny(clippy::perf)]

use crate::board::{Board, Delivered};
use crate::srs::{LaneEffects, SrsLane, SrsShardParts};
use desim::Cycle;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

const CURSOR_MASK: u64 = u32::MAX as u64;

/// One board's buffered cross-board effects for one cycle, in board-local
/// order. The compute functions append; the commits apply and clear, so
/// the buffers are reused every cycle (steady-state allocation-free).
#[derive(Debug, Default)]
pub(crate) struct BoardOut {
    /// Packets delivered to this board's nodes this cycle.
    pub(crate) delivered: Vec<Delivered>,
    /// SRS publish-remote effects of this board's lane transmit; its
    /// arrivals, in departure order, also carry the departed packets'
    /// labelled TX stats.
    pub(crate) fx: LaneEffects,
    /// Snapshot of the board's ready destinations (the active set mutates
    /// as packets depart, so the scan iterates a copy).
    ready: Vec<u16>,
}

/// Everything one cycle's compute phase needs, as raw views into the
/// `System`: the board array, the out-buffer array and the SRS lane base
/// pointers. Re-captured each cycle (fresh provenance), dead after the
/// commit barrier.
#[derive(Clone, Copy)]
pub(crate) struct ShardCtx {
    pub(crate) now: Cycle,
    pub(crate) boards: *mut Board,
    pub(crate) outs: *mut BoardOut,
    pub(crate) nboards: usize,
    pub(crate) srs: SrsShardParts,
}

// SAFETY: the pointers address disjoint per-board state (each board index
// is handed to exactly one claimant per epoch), and every access is
// bracketed by the gate's acquire/release edges.
unsafe impl Send for ShardCtx {}

/// Steps `board`'s injectors and router one cycle, collecting this
/// cycle's deliveries into `out`.
pub(crate) fn route_board(board: &mut Board, out: &mut BoardOut, now: Cycle) {
    board.step_into(now, &mut out.delivered);
}

/// Moves `board`'s ready TX-queue packets onto free owned channels of its
/// SRS `lane`. Only destinations with a completed packet are visited (the
/// board's ready-destination set, in ascending order); each queue drains
/// until its head finds no free channel. Shared effects land in `out`.
pub(crate) fn transmit_lane(
    board: &mut Board,
    mut lane: SrsLane<'_>,
    out: &mut BoardOut,
    now: Cycle,
) {
    out.ready.clear();
    out.ready.extend_from_slice(board.ready_dests());
    for &d in &out.ready {
        while let Some(pkt) = board.tx_queue(d).peek().copied() {
            if !lane.try_transmit(now, d, pkt, &mut out.fx) {
                break;
            }
            let Some(departed) = board.tx_depart(now, d) else {
                break; // unreachable: the queue head was just peeked
            };
            debug_assert_eq!(departed.id, pkt.id);
        }
    }
}

/// A board worker's compute for board `b`: [`route_board`] then
/// [`transmit_lane`], fused per board. Legal because board `b`'s transmit
/// reads only its own TX queues and lane (DESIGN.md §12).
///
/// # Safety
/// `b < ctx.nboards`, the claim protocol guarantees no other thread holds
/// board `b` or SRS lane `b` this epoch, and `ctx` was captured for the
/// current epoch.
unsafe fn compute_board(ctx: &ShardCtx, b: usize) {
    // SAFETY: exclusive by the claim protocol (see above).
    let board = unsafe { &mut *ctx.boards.add(b) };
    let out = unsafe { &mut *ctx.outs.add(b) };
    // SAFETY: lane `b` is exclusive to this claim; `ctx.srs` was captured
    // this cycle with no intervening `&mut Srs` use.
    let lane = unsafe { SrsLane::from_parts(&ctx.srs, b as u16) };
    route_board(board, out, ctx.now);
    transmit_lane(board, lane, out, ctx.now);
}

/// The per-run barrier pair: epoch-tagged work tickets plus the published
/// per-cycle context. Lives on the main thread's stack for the duration
/// of one `System::run_with` call; workers hold only `&Gate`.
pub(crate) struct Gate {
    /// `(epoch << 32) | cursor`. The main thread *stores* a new epoch with
    /// cursor 0 to open a compute phase; claimants `fetch_add` the cursor.
    /// Per-epoch increments are bounded by `nboards + workers + 1`, so the
    /// cursor can never carry into the epoch bits.
    ticket: AtomicU64,
    /// Boards whose compute has completed this epoch.
    done: AtomicUsize,
    stop: AtomicBool,
    /// This epoch's context. A mutex (not a seqlock) so a laggard worker's
    /// refresh is race-free; it is locked once per worker per epoch.
    ctx: Mutex<Option<(u32, ShardCtx)>>,
}

/// Bounded spin, then politely yield — on an oversubscribed machine (more
/// workers than cores) the phases still make progress at OS-quantum
/// granularity instead of burning the shared core.
fn backoff(spins: &mut u32) {
    *spins = spins.saturating_add(1);
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Gate {
    pub(crate) fn new() -> Self {
        Self {
            ticket: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            ctx: Mutex::new(None),
        }
    }

    /// Ends the worker loops (after the last epoch has fully committed).
    pub(crate) fn halt(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Runs one compute phase to completion: publishes `ctx`, opens the
    /// next epoch, participates in the board claims from the calling
    /// thread, and returns only once every board's compute is visible
    /// (the commit barrier).
    pub(crate) fn run_epoch(&self, ctx: ShardCtx) {
        let nboards = ctx.nboards;
        let e = (self.ticket.load(Ordering::Relaxed) >> 32) as u32 + 1;
        {
            let mut slot = self.ctx.lock().unwrap_or_else(|p| p.into_inner());
            *slot = Some((e, ctx));
        }
        self.done.store(0, Ordering::Relaxed);
        self.ticket.store(u64::from(e) << 32, Ordering::Release);
        loop {
            let t = self.ticket.fetch_add(1, Ordering::AcqRel);
            let b = (t & CURSOR_MASK) as usize;
            if (t >> 32) as u32 != e || b >= nboards {
                break;
            }
            // SAFETY: the ticket hands board `b` of epoch `e` to exactly
            // one claimant, and `ctx` is this epoch's context.
            unsafe { compute_board(&ctx, b) };
            self.done.fetch_add(1, Ordering::Release);
        }
        let mut spins = 0u32;
        while self.done.load(Ordering::Acquire) < nboards {
            backoff(&mut spins);
        }
    }
}

/// The worker loop: spin (with yield backoff) for a fresh epoch, claim
/// boards until the epoch drains, repeat until halted.
pub(crate) fn worker(gate: &Gate) {
    // The last epoch this worker finished claiming in (0 = none yet).
    let mut last_done: u32 = 0;
    let mut cached: Option<(u32, ShardCtx)> = None;
    let mut spins = 0u32;
    loop {
        if gate.stop.load(Ordering::Acquire) {
            return;
        }
        let e_now = (gate.ticket.load(Ordering::Acquire) >> 32) as u32;
        if e_now == last_done {
            backoff(&mut spins);
            continue;
        }
        spins = 0;
        loop {
            let t = gate.ticket.fetch_add(1, Ordering::AcqRel);
            let (e, b) = ((t >> 32) as u32, (t & CURSOR_MASK) as usize);
            if e == last_done {
                break; // the epoch we just saw drained before we claimed
            }
            if cached.as_ref().map(|(ce, _)| *ce) != Some(e) {
                let slot = gate.ctx.lock().unwrap_or_else(|p| p.into_inner());
                match *slot {
                    Some((ce, c)) if ce == e => {
                        drop(slot);
                        cached = Some((e, c));
                    }
                    _ => {
                        // The published context has moved past epoch `e`,
                        // which (per the module-level invariant) means this
                        // claim's cursor was already beyond `e`'s boards —
                        // nothing to compute.
                        drop(slot);
                        last_done = e;
                        break;
                    }
                }
            }
            let Some((_, ctx)) = &cached else {
                unreachable!("cache refreshed just above")
            };
            if b >= ctx.nboards {
                last_done = e;
                break;
            }
            // SAFETY: epoch-tagged claim — board `b` of epoch `e` is ours
            // alone, and `ctx` is epoch `e`'s context.
            unsafe { compute_board(ctx, b) };
            gate.done.fetch_add(1, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_single_participant_completes_epochs() {
        // With zero workers the calling thread must compute every board
        // itself; exercised on an empty board set so no unsafe derefs run.
        let gate = Gate::new();
        let ctx = ShardCtx {
            now: 0,
            boards: std::ptr::null_mut(),
            outs: std::ptr::null_mut(),
            nboards: 0,
            srs: crate::srs::SrsShardParts::dangling(),
        };
        for _ in 0..3 {
            gate.run_epoch(ctx);
        }
        gate.halt();
    }
}
