//! Board-sharded compute phase for the cycle engine.
//!
//! Within one cycle, boards never touch each other directly: all
//! cross-board traffic flows through the SRS arrival/wake heaps, the
//! shared run metrics and the power cache — none of which the per-board
//! hot path (the bitset-wavefront router step, DESIGN.md §16, plus lane
//! transmit) needs to *read*. That makes the cycle's dominant cost
//! embarrassingly parallel under a two-phase split:
//!
//! * **compute** — each worker claims whole boards and, per board `b`,
//!   runs `Board::step_into` plus the transmit scan over SRS lane `b`
//!   (see [`crate::srs::SrsLane`]), writing every would-be shared effect
//!   (deliveries, wake/arrival inserts, labelled TX stats, the
//!   power-dirty bit) into that board's [`BoardOut`];
//! * **commit** — the main thread applies the out-buffers in ascending
//!   board order, replaying the exact side-effect sequence of the
//!   sequential engine (see `System::commit_sharded`), so every f64
//!   accumulation order, heap insertion sequence and telemetry emission
//!   is byte-identical to the golden pins.
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

/// One board's buffered cross-board effects for one cycle: everything the
/// sequential engine would have written into shared state during
/// `step_boards` + `transmit`, in board-local order. Applied (and the
/// buffers reused) every cycle; steady-state allocation-free.
#[derive(Debug, Default)]
pub(crate) struct BoardOut {
    /// Packets delivered to this board's nodes this cycle.
    pub(crate) delivered: Vec<Delivered>,
    /// SRS publish-remote effects of this board's lane transmit.
    pub(crate) fx: LaneEffects,
    /// `(src_path, tx_wait)` samples for labelled departures, in
    /// departure order.
    pub(crate) tx_labelled: Vec<(f64, f64)>,
    /// Snapshot of the board's ready destinations (the active set mutates
    /// as packets depart, so the scan iterates a copy — same reason as
    /// `System::transmit`'s `ready_scratch`).
    ready: Vec<u16>,
}

impl BoardOut {
    fn clear(&mut self) {
        self.delivered.clear();
        self.fx.clear();
        self.tx_labelled.clear();
        self.ready.clear();
    }
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

/// Runs the compute phase for board `b`: router/NI step into the
/// out-buffer, then the lane transmit scan, mirroring the sequential
/// `step_boards` + `transmit` for this board exactly.
///
/// # Safety
/// `b < ctx.nboards`, the claim protocol guarantees no other thread holds
/// board `b` or SRS lane `b` this epoch, and `ctx` was captured for the
/// current epoch.
unsafe fn compute_board(ctx: &ShardCtx, b: usize) {
    // SAFETY: exclusive by the claim protocol (see above).
    let board = unsafe { &mut *ctx.boards.add(b) };
    let out = unsafe { &mut *ctx.outs.add(b) };
    out.clear();
    board.step_into(ctx.now, &mut out.delivered);
    // SAFETY: lane `b` is exclusive to this claim; `ctx.srs` was captured
    // this cycle with no intervening `&mut Srs` use.
    let mut lane = unsafe { SrsLane::from_parts(&ctx.srs, b as u16) };
    out.ready.extend_from_slice(board.ready_dests());
    for di in 0..out.ready.len() {
        let d = out.ready[di];
        while let Some(pkt) = board.tx_queue(d).peek().copied() {
            if lane.try_transmit(ctx.now, d, pkt, &mut out.fx) {
                let Some(departed) = board.tx_depart(ctx.now, d) else {
                    break; // unreachable: the queue head was just peeked
                };
                debug_assert_eq!(departed.id, pkt.id);
                if pkt.labelled {
                    out.tx_labelled.push((
                        (pkt.completed_at - pkt.injected_at) as f64,
                        (ctx.now - pkt.completed_at) as f64,
                    ));
                }
            } else {
                break;
            }
        }
    }
}

/// The per-run barrier pair: epoch-tagged work tickets plus the published
/// per-cycle context. Lives on the main thread's stack for the duration
/// of one sharded `System::run_with` call; workers hold only `&Gate`.
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
