//! The assembled E-RAPID system and its cycle loop.
//!
//! [`System::step`] advances one router clock cycle:
//!
//! 1. at `R_w` boundaries, roll all hardware-counter windows and trigger
//!    the LS odd–even cycle — DPM decisions apply locally, DBR decisions
//!    apply after the five-stage protocol latency,
//! 2. node traffic generators inject packets into their NIs,
//! 3. every board steps its IBI router (deliveries eject, remote flits
//!    reassemble in TX queues),
//! 4. ready packets in TX queues depart on free owned optical channels,
//! 5. optical arrivals enter the destination boards' receiver injectors,
//! 6. the SRS settles channel state and the power meter samples the
//!    instantaneous link power.

use crate::board::{Board, Delivered};
use crate::config::{ControlPlane, NetworkMode, SystemConfig};
use crate::faults::FaultKind;
use crate::metrics::{PacketDelivery, RunMetrics};
use crate::srs::{LaneEffects, Srs, SrsLane};
use desim::phase::{Phase, PhasePlan};
use desim::Cycle;
use erapid_telemetry::{
    CounterId, FaultLabel, GaugeId, HistId, HistogramSummary, LsStageLabel, MetricRegistry,
    NullSink, TraceEvent, TraceRecord, TraceSink, Tracer, WindowLabel, WindowSnapshot,
};
use erapid_tune::{ThresholdController, WindowObservation};
use erapid_workloads::ScenarioEngine;
use photonics::wavelength::{BoardId, Wavelength};
use reconfig::alloc::{FlowDemand, IncomingLink};
use reconfig::lc::ThresholdWatch;
use reconfig::lockstep::WindowKind;
use reconfig::msg::{LinkReading, WavelengthGrant};
use reconfig::protocol::{DbrRound, TokenFault};
use reconfig::stages::Stage;
use router::flit::{NodeId, PacketId};
use router::packet::Packet;
use traffic::generator::{NodeGenerator, PacketRequest};
use traffic::pattern::TrafficPattern;
use traffic::source::InjectionSource;
use traffic::trace::{TraceRecorder, TraceReplayer};

/// A full simulated E-RAPID system.
pub struct System {
    cfg: SystemConfig,
    boards: Vec<Board>,
    srs: Srs,
    generators: Vec<NodeGenerator>,
    /// When set, injection replays this trace instead of the generators.
    replay: Option<TraceReplayer>,
    /// When set (`cfg.scenario`), injection polls this scenario source
    /// instead of the per-node generators.
    scenario: Option<Box<dyn InjectionSource>>,
    /// Reusable per-cycle scenario request buffer.
    scenario_scratch: Vec<PacketRequest>,
    /// Records every injection for later replay (None unless
    /// `cfg.record_injections` — zero cost when off).
    injection_log: Option<TraceRecorder>,
    /// Per-packet delivery rows (None unless `cfg.packet_log`).
    packet_log: Option<Vec<PacketDelivery>>,
    next_packet_id: u64,
    now: Cycle,
    metrics: RunMetrics,
    /// DBR grant batches awaiting their protocol-latency apply time
    /// (analytic control plane).
    pending_dbr: Vec<(Cycle, Vec<WavelengthGrant>)>,
    /// In-flight message-level DBR round (message-level control plane).
    active_round: Option<DbrRound>,
    /// Per-board out-buffers of the cycle's compute half (deliveries and
    /// lane effects), reused every cycle.
    outs: Vec<BoardOut>,
    /// Next unapplied event in `cfg.faults` (the plan is time-sorted).
    fault_cursor: usize,
    /// Token faults waiting for the next DBR round (message-level plane).
    armed_token: Vec<TokenFault>,
    /// Recovery latency the next DBR round must absorb (analytic plane's
    /// mirror of armed token faults).
    armed_analytic_delay: Cycle,
    /// LS token resends performed (loss relaunches + corruption resends).
    ls_retries: u64,
    /// DBR rounds aborted fail-safe after exhausting the retry budget.
    ls_aborted: u64,
    /// Cycle-level event tracer (null unless `cfg.trace.enabled`).
    tracer: Tracer,
    /// Window-granularity metric registry (None when tracing is off).
    registry: Option<(MetricRegistry, TelemetryIds)>,
    /// `R_w` boundaries seen (tags window-boundary events and metric rows).
    window_index: u64,
    /// DBR rounds triggered (tags LS stage and outcome events).
    dbr_rounds: u64,
    /// Per `(board, dest)` B_max edge detectors (empty when tracing is off).
    buffer_watch: Vec<ThresholdWatch>,
    /// Dirty-set companion to `buffer_watch`: `true` when the watch may
    /// not yet have observed the flow's current window value. A flow is
    /// parked (`false`) only after its watch observed a window that was
    /// both fed and *steady* — an untouched steady window reproduces the
    /// previous value bit-for-bit and `ThresholdWatch::observe` of an
    /// equal value is a state-free no-op, so skipping it is identical.
    watch_pending: Vec<bool>,
    /// Online threshold auto-tuner (None unless `cfg.tune` is set in a
    /// power-aware mode). Stepped at Power-kind `R_w` boundaries in the
    /// cycle's prologue, before any board is stepped (DESIGN.md §15).
    controller: Option<ThresholdController>,
}

/// Wall-time spent per engine phase over a profiled run — the breakdown
/// `perfreport` emits so the next bottleneck is measured, not guessed.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimers {
    /// Faults + window boundary + DBR apply + active LS round.
    pub reconfig: std::time::Duration,
    /// Traffic generation / trace replay.
    pub inject: std::time::Duration,
    /// Electrical domain: IBI router stepping (`Board::step_into` per
    /// board) + the delivery commit.
    pub route: std::time::Duration,
    /// Optical domain: lane transmits (`transmit_lane` per board) +
    /// the lane commit, arrivals into receivers, SRS housekeeping.
    pub optical: std::time::Duration,
    /// Power sampling + metric recording.
    pub stats: std::time::Duration,
}

impl PhaseTimers {
    /// Total wall time across all phases.
    pub fn total(&self) -> std::time::Duration {
        self.reconfig + self.inject + self.route + self.optical + self.stats
    }
}

/// Instrumentation hook for the cycle loop: the null probe monomorphizes
/// to nothing, so `step` pays zero cost for the profiled variant.
trait PhaseProbe {
    fn start(&mut self);
    fn lap(&mut self, bucket: fn(&mut PhaseTimers) -> &mut std::time::Duration);
}

struct NullProbe;
impl PhaseProbe for NullProbe {
    #[inline(always)]
    fn start(&mut self) {}
    #[inline(always)]
    fn lap(&mut self, _bucket: fn(&mut PhaseTimers) -> &mut std::time::Duration) {}
}

struct TimerProbe<'a> {
    timers: &'a mut PhaseTimers,
    mark: std::time::Instant,
}
impl PhaseProbe for TimerProbe<'_> {
    fn start(&mut self) {
        self.mark = std::time::Instant::now();
    }
    fn lap(&mut self, bucket: fn(&mut PhaseTimers) -> &mut std::time::Duration) {
        let now = std::time::Instant::now();
        *bucket(self.timers) += now - self.mark;
        self.mark = now;
    }
}

/// Handles of the metrics a traced run registers (fixed registration order
/// keeps exports byte-identical across runs).
struct TelemetryIds {
    retunes: CounterId,
    grants: CounterId,
    rounds: CounterId,
    faults: CounterId,
    buffer_crossings: CounterId,
    router_peak: GaugeId,
    lasers_on: GaugeId,
    latency_hist: HistId,
    tx_wait_hist: HistId,
}

/// Histogram geometry for labelled-packet latency: 256 × 16-cycle bins
/// cover 4096 cycles (two R_w windows) before overflow.
const LATENCY_HIST_BINS: usize = 256;
const LATENCY_HIST_WIDTH: f64 = 16.0;
/// TX-queue waits are much shorter; 256 × 4-cycle bins.
const TX_WAIT_HIST_BINS: usize = 256;
const TX_WAIT_HIST_WIDTH: f64 = 4.0;

fn build_registry() -> (MetricRegistry, TelemetryIds) {
    let mut reg = MetricRegistry::new();
    let ids = TelemetryIds {
        retunes: reg.counter("dpm_retunes"),
        grants: reg.counter("dbr_grants"),
        rounds: reg.counter("dbr_rounds"),
        faults: reg.counter("faults"),
        buffer_crossings: reg.counter("buffer_crossings"),
        router_peak: reg.gauge("router_peak_flits"),
        lasers_on: reg.gauge("lasers_on"),
        latency_hist: reg.histogram("latency_cycles", LATENCY_HIST_BINS, LATENCY_HIST_WIDTH),
        tx_wait_hist: reg.histogram("tx_wait_cycles", TX_WAIT_HIST_BINS, TX_WAIT_HIST_WIDTH),
    };
    (reg, ids)
}

fn stage_label(stage: Stage) -> LsStageLabel {
    match stage {
        Stage::LinkRequest => LsStageLabel::LinkRequest,
        Stage::BoardRequest => LsStageLabel::BoardRequest,
        Stage::Reconfigure => LsStageLabel::Reconfigure,
        Stage::BoardResponse => LsStageLabel::BoardResponse,
        Stage::LinkResponse => LsStageLabel::LinkResponse,
    }
}

/// One board's buffered cross-board effects for one cycle, in board-local
/// order. The router step and [`transmit_lane`] append; the commits
/// (`System::commit_deliveries`, `System::commit_lanes`) apply and clear,
/// so the buffers are reused every cycle (steady-state allocation-free).
#[derive(Debug, Default)]
struct BoardOut {
    /// Packets delivered to this board's nodes this cycle.
    delivered: Vec<Delivered>,
    /// SRS publish-remote effects of this board's lane transmit; its
    /// arrivals, in departure order, also carry the departed packets'
    /// labelled TX stats.
    fx: LaneEffects,
    /// Snapshot of the board's ready destinations (the active set mutates
    /// as packets depart, so the scan iterates a copy).
    ready: Vec<u16>,
}

/// Moves `board`'s ready TX-queue packets onto free owned channels of its
/// SRS `lane`. Only destinations with a completed packet are visited (the
/// board's ready-destination set, in ascending order); each queue drains
/// until its head finds no free channel. Shared effects land in `out`.
fn transmit_lane(board: &mut Board, mut lane: SrsLane<'_>, out: &mut BoardOut, now: Cycle) {
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

impl System {
    /// Builds a system running `pattern` at normalised `load` (fraction of
    /// the uniform-traffic capacity `N_c`) under the given phase plan.
    pub fn new(cfg: SystemConfig, pattern: TrafficPattern, load: f64, plan: PhasePlan) -> Self {
        cfg.validate();
        let rate = cfg.capacity().injection_rate(load);
        let nodes = cfg.nodes();
        let generators = match cfg.burst {
            None => traffic::generator::build_generators(nodes, &pattern, rate, cfg.seed),
            Some(b) => traffic::generator::build_bursty_generators(
                nodes,
                &pattern,
                rate,
                b.burstiness,
                b.dwell,
                cfg.seed,
            ),
        };
        let boards = (0..cfg.boards).map(|b| Board::new(&cfg, b)).collect();
        let srs = Srs::new(
            cfg.boards,
            cfg.ladder.clone(),
            cfg.serdes,
            cfg.fiber.delay_cycles(),
            cfg.power_model.clone(),
            cfg.schedule.window,
            cfg.transition.penalty(),
        );
        let metrics = RunMetrics::new(nodes as usize, plan);
        let tracer = Tracer::from_config(cfg.trace);
        let registry = cfg.trace.enabled.then(build_registry);
        // `validate()` above already vetted any tune spec, so construction
        // cannot fail here; a controller only exists where DPM runs.
        let controller = match (&cfg.tune, cfg.mode.power_aware()) {
            (Some(spec), true) => ThresholdController::new(*spec).ok(),
            _ => None,
        };
        // With auto-tuning on, the telemetry edge detectors track the
        // controller's live `B_max` (starting at its initial value, and
        // retargeted whenever it moves); otherwise the static DBR trigger.
        let watch_b_max = match &controller {
            Some(c) => c.thresholds_milli().2 as f64 / 1000.0,
            None => cfg.alloc.b_max,
        };
        let buffer_watch = if cfg.trace.enabled {
            vec![ThresholdWatch::new(watch_b_max); cfg.boards as usize * cfg.boards as usize]
        } else {
            Vec::new()
        };
        let injection_log = cfg.record_injections.then(TraceRecorder::new);
        let packet_log = cfg.packet_log.then(Vec::new);
        let watch_pending = vec![true; buffer_watch.len()];
        let outs = (0..cfg.boards).map(|_| BoardOut::default()).collect();
        // A scenario source preempts the generators; the rate is the same
        // load × N_c normalisation the synthetic patterns use, so the
        // bench load axis carries over unchanged.
        let scenario = cfg.scenario.clone().map(|spec| {
            Box::new(ScenarioEngine::new(spec, nodes, rate, cfg.seed)) as Box<dyn InjectionSource>
        });
        Self {
            cfg,
            boards,
            srs,
            generators,
            replay: None,
            scenario,
            scenario_scratch: Vec::new(),
            injection_log,
            packet_log,
            next_packet_id: 0,
            now: 0,
            metrics,
            pending_dbr: Vec::new(),
            active_round: None,
            outs,
            fault_cursor: 0,
            armed_token: Vec::new(),
            armed_analytic_delay: 0,
            ls_retries: 0,
            ls_aborted: 0,
            tracer,
            registry,
            window_index: 0,
            dbr_rounds: 0,
            watch_pending,
            buffer_watch,
            controller,
        }
    }

    /// Builds a system that replays a recorded injection trace instead of
    /// drawing from live traffic generators — exact workload replay across
    /// configurations (`load`/`pattern` are irrelevant; every injection
    /// comes from the trace).
    pub fn with_trace(cfg: SystemConfig, replay: TraceReplayer, plan: PhasePlan) -> Self {
        let mut sys = Self::new(cfg, TrafficPattern::Uniform, 0.0, plan);
        sys.replay = Some(replay);
        sys
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The optical stage (for inspection).
    pub fn srs(&self) -> &Srs {
        &self.srs
    }

    /// A board (for inspection).
    pub fn board(&self, b: u16) -> &Board {
        &self.boards[b as usize]
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.step_inner(true, &mut NullProbe);
    }

    /// Advances one cycle with the traffic sources silenced — used to
    /// drain the network completely (conservation checks, clean shutdown).
    pub fn step_without_injection(&mut self) {
        self.step_inner(false, &mut NullProbe);
    }

    /// Advances one cycle, attributing wall time per engine phase into
    /// `timers`. Simulation state evolves exactly as [`System::step`].
    pub fn step_profiled(&mut self, timers: &mut PhaseTimers) {
        let mut probe = TimerProbe {
            timers,
            mark: std::time::Instant::now(),
        };
        self.step_inner(true, &mut probe);
    }

    /// One cycle. The hot half is a compute/commit pair per domain: every
    /// board's router step, then the delivery commit; every board's lane
    /// transmit ([`transmit_lane`]), then the lane commit. Compute touches
    /// only its own board and SRS lane and buffers every shared effect in
    /// that board's [`BoardOut`]; the commits apply the buffers in
    /// ascending board order (DESIGN.md §12).
    fn step_inner<P: PhaseProbe>(&mut self, inject: bool, probe: &mut P) {
        let now = self.now;
        probe.start();
        self.apply_due_faults(now);
        self.window_boundary(now);
        self.apply_due_dbr(now);
        self.tick_active_round(now);
        probe.lap(|t| &mut t.reconfig);
        if inject {
            self.inject(now);
        }
        probe.lap(|t| &mut t.inject);
        for (board, out) in self.boards.iter_mut().zip(&mut self.outs) {
            board.step_into(now, &mut out.delivered);
        }
        self.commit_deliveries(now);
        probe.lap(|t| &mut t.route);
        for (s, (board, out)) in self.boards.iter_mut().zip(&mut self.outs).enumerate() {
            // Most boards have nothing ready most cycles: skip building
            // their lane.
            if !board.ready_dests().is_empty() {
                transmit_lane(board, self.srs.lane(s as u16), out, now);
            }
        }
        self.commit_lanes(now);
        self.receive(now);
        self.srs.tick(now, &mut self.tracer);
        probe.lap(|t| &mut t.optical);
        let mw = self.srs.record_cycle();
        if self.metrics.measuring(now) {
            self.metrics.power.record(mw);
        }
        probe.lap(|t| &mut t.stats);
        self.now += 1;
    }

    /// Commit pass A: every board's deliveries, in ascending board order,
    /// into the run metrics, the latency histogram and the packet log.
    fn commit_deliveries(&mut self, now: Cycle) {
        for out in &mut self.outs {
            for d in out.delivered.drain(..) {
                self.metrics.delivered_total += 1;
                if self.metrics.measuring(now) {
                    self.metrics
                        .throughput
                        .deliver(now, self.cfg.packet_flits as u32);
                }
                if d.labelled {
                    self.metrics.tracker.deliver_labelled();
                    self.metrics.latency.record(d.injected_at, now);
                    if let Some((reg, ids)) = &mut self.registry {
                        reg.observe(ids.latency_hist, (now - d.injected_at) as f64);
                    }
                }
                if let Some(log) = &mut self.packet_log {
                    log.push(PacketDelivery {
                        id: d.id.0,
                        dst: d.dst,
                        injected_at: d.injected_at,
                        delivered_at: now,
                        labelled: d.labelled,
                    });
                }
            }
        }
    }

    /// Commit pass B: every lane's wake/arrival inserts and power-cache
    /// invalidation, then the TX stats of its labelled departures (which
    /// left at `now`), in ascending board order, so every f64 accumulator
    /// and heap sees one fixed push sequence.
    fn commit_lanes(&mut self, now: Cycle) {
        for out in &mut self.outs {
            // Every lane effect comes from a departure: no arrivals, no
            // wakes and no power change.
            if out.fx.arrivals.is_empty() {
                continue;
            }
            self.srs.commit_lane_effects(&out.fx);
            for (_, arr) in &out.fx.arrivals {
                let pkt = &arr.packet;
                if !pkt.labelled {
                    continue;
                }
                let tx_wait = (now - pkt.completed_at) as f64;
                self.metrics
                    .src_path
                    .push((pkt.completed_at - pkt.injected_at) as f64);
                self.metrics.tx_wait.push(tx_wait);
                if let Some((reg, ids)) = &mut self.registry {
                    reg.observe(ids.tx_wait_hist, tx_wait);
                }
            }
            out.fx.clear();
        }
    }

    /// Coarse heap-footprint estimate in bytes of the live simulation
    /// state: boards (routers, TX queues) plus the optical stage's channel
    /// bank. Analytic capacity × element-size sums — comparable across
    /// board counts, which is what the scaling artifact tracks.
    pub fn approx_memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .boards
                .iter()
                .map(Board::approx_memory_bytes)
                .sum::<usize>()
            + self.srs.approx_memory_bytes()
            + std::mem::size_of_val(self.generators.as_slice())
    }

    /// `R_w` boundary handling: roll windows, trigger the odd–even cycle.
    fn window_boundary(&mut self, now: Cycle) {
        if !self.cfg.schedule.is_boundary(now) {
            return;
        }
        self.srs.roll_windows(now);
        for b in &mut self.boards {
            b.roll_windows(now);
        }
        if self.tracer.enabled() {
            self.boundary_telemetry(now);
        }
        match self.cfg.schedule.kind_at(now) {
            Some(WindowKind::Power) if self.cfg.mode.power_aware() => {
                // The controller steps first so the thresholds it derives
                // from the just-closed window govern this Power cycle
                // (DESIGN.md §15).
                self.controller_cycle();
                self.power_cycle(now);
            }
            Some(WindowKind::Bandwidth) if self.cfg.mode.bandwidth_reconfig() => {
                self.bandwidth_cycle(now)
            }
            _ => {}
        }
    }

    /// One auto-tuning step (DESIGN.md §15): scan the just-closed window's
    /// lit channels in canonical ascending `(dest, wavelength)` order —
    /// the exact order [`Self::power_cycle`] visits them — into integer
    /// milli counts, feed them to the controller, and when `B_max` moved,
    /// retarget the telemetry edge detectors (un-parking every flow, since
    /// a parked flow's steady value may sit on the other side of the new
    /// threshold). No-op unless the config enabled tuning. Deliberately
    /// independent of the metric registry: the controller must drive
    /// untraced runs (golden, marathon, streaming) identically.
    fn controller_cycle(&mut self) {
        let Some(ctrl) = &self.controller else {
            return;
        };
        let (l_min_milli, _, b_max_milli) = ctrl.thresholds_milli();
        let boards = self.cfg.boards;
        let wavelengths = self.cfg.wavelengths();
        let mut obs = WindowObservation::default();
        for d in 0..boards {
            for w in 0..wavelengths {
                let Some(s) = self.srs.owner(d, w) else {
                    continue;
                };
                if !self.srs.channel(s, d, w).is_on() {
                    continue;
                }
                let link_milli = (self.srs.link_util(s, d, w) * 1000.0).round() as u32;
                let buf_milli = (self.boards[s as usize].buffer_util(d) * 1000.0).round() as u32;
                obs.lit += 1;
                obs.pressured += u32::from(buf_milli > b_max_milli);
                obs.idle += u32::from(link_milli < l_min_milli);
            }
        }
        let Some(ctrl) = &mut self.controller else {
            return;
        };
        let before_b_max = ctrl.thresholds_milli().2;
        ctrl.observe_window(obs);
        let after_b_max = ctrl.thresholds_milli().2;
        if before_b_max != after_b_max {
            let target = after_b_max as f64 / 1000.0;
            for watch in &mut self.buffer_watch {
                watch.retarget(target);
            }
            self.watch_pending.fill(true);
        }
    }

    /// The DPM thresholds this system applies at Power boundaries: the
    /// live controller's when auto-tuning is on, else the config's
    /// (override or mode preset).
    fn effective_dpm_policy(&self) -> Option<powermgmt::policy::DpmPolicy> {
        match &self.controller {
            Some(c) => Some(c.policy()),
            None => self.cfg.dpm_policy(),
        }
    }

    /// The live auto-tuning controller, when enabled (inspection: tests
    /// pin its thresholds/moves across checkpoint legs).
    pub fn controller(&self) -> Option<&ThresholdController> {
        self.controller.as_ref()
    }

    /// Traced-run bookkeeping at an `R_w` boundary: stamp the boundary,
    /// detect `B_max` crossings on the just-closed window's buffer
    /// occupancies, sample the congestion gauges, and finalize the metric
    /// window. Runs only when tracing is enabled; it observes the
    /// simulation without mutating any of its state.
    fn boundary_telemetry(&mut self, now: Cycle) {
        self.window_index += 1;
        if let Some(kind) = self.cfg.schedule.kind_at(now) {
            let kind = match kind {
                WindowKind::Power => WindowLabel::Power,
                WindowKind::Bandwidth => WindowLabel::Bandwidth,
            };
            self.tracer.emit(
                now,
                TraceEvent::WindowBoundary {
                    index: self.window_index,
                    kind,
                },
            );
        }
        let boards = self.cfg.boards;
        for s in 0..boards {
            for d in 0..boards {
                if s == d {
                    continue;
                }
                // Dirty-set scan: park flows whose watch already saw this
                // exact window value (see `watch_pending`). Feeding the
                // watch the identical bits again is a no-op, so the skip
                // cannot change any crossing event.
                let f = s as usize * boards as usize + d as usize;
                let board = &self.boards[s as usize];
                self.watch_pending[f] |= board.buffer_util_touched(d);
                if !self.watch_pending[f] {
                    continue;
                }
                self.watch_pending[f] = !board.buffer_util_steady(d);
                let util = self.boards[s as usize].buffer_util(d);
                let watch = &mut self.buffer_watch[f];
                if let Some(above) = watch.observe(util) {
                    self.tracer.emit(
                        now,
                        TraceEvent::BufferThreshold {
                            board: s,
                            dest: d,
                            above,
                            util_milli: (util * 1000.0).round() as u32,
                        },
                    );
                    if let Some((reg, ids)) = &mut self.registry {
                        reg.inc(ids.buffer_crossings, 1);
                    }
                }
            }
        }
        if let Some((reg, ids)) = &mut self.registry {
            let peak = self
                .boards
                .iter_mut()
                .map(|b| b.take_router_peak())
                .max()
                .unwrap_or(0);
            reg.set(ids.router_peak, peak as f64);
            reg.set(ids.lasers_on, self.srs.lasers_on() as f64);
            reg.roll(self.window_index);
        }
    }

    /// DPM: every lit channel's LC compares the previous window's
    /// `Link_util`/`Buffer_util` against the thresholds and retunes.
    fn power_cycle(&mut self, now: Cycle) {
        let Some(policy) = self.effective_dpm_policy() else {
            return;
        };
        let boards = self.cfg.boards;
        let wavelengths = self.cfg.wavelengths();
        for d in 0..boards {
            for w in 0..wavelengths {
                let Some(s) = self.srs.owner(d, w) else {
                    continue;
                };
                let link_util = self.srs.link_util(s, d, w);
                let buffer_util = self.boards[s as usize].buffer_util(d);
                let channel = self.srs.channel(s, d, w);
                if !channel.is_on() {
                    continue;
                }
                let level = channel.level();
                use powermgmt::policy::ScaleDecision;
                let target = match policy.decide(link_util, buffer_util) {
                    ScaleDecision::Down => self.cfg.ladder.down(level),
                    ScaleDecision::Up => self.cfg.ladder.up(level),
                    ScaleDecision::Hold => level,
                };
                if target != level {
                    let penalty = self.cfg.transition.penalty_between(level, target);
                    if self.tracer.enabled() {
                        let ev = self.cfg.transition.retune_event(s, d, w, level, target);
                        self.tracer.emit(now, ev);
                        if let Some((reg, ids)) = &mut self.registry {
                            reg.inc(ids.retunes, 1);
                        }
                    }
                    self.srs.schedule_retune(s, d, w, target, penalty);
                }
            }
        }
    }

    /// DBR trigger: either compute decisions now and delay their effect by
    /// the analytic five-stage latency, or launch a message-level round on
    /// the control ring that arrives at the same answer the slow way.
    fn bandwidth_cycle(&mut self, now: Cycle) {
        self.dbr_rounds += 1;
        if let Some((reg, ids)) = &mut self.registry {
            reg.inc(ids.rounds, 1);
        }
        match self.cfg.control_plane {
            ControlPlane::AnalyticLatency => {
                let all_grants = self.compute_grants();
                // Token faults armed before this round delay its apply time
                // (the mirror of the message-level round recovering them).
                let delay = std::mem::take(&mut self.armed_analytic_delay);
                if self.tracer.enabled() {
                    // The analytic plane never walks the five stages, but
                    // their spans are fully determined by the timing model;
                    // synthesize them so both planes produce comparable
                    // per-round traces (future-stamped events are fine —
                    // exporters keep emission order, viewers sort by time).
                    let round = self.dbr_rounds;
                    let mut start = now;
                    for &stage in Stage::all().iter() {
                        let end = start + self.cfg.timing.stage_cycles(stage);
                        self.tracer.emit(
                            start,
                            TraceEvent::LsStage {
                                round,
                                stage: stage_label(stage),
                                end,
                            },
                        );
                        start = end;
                    }
                    self.tracer.emit(
                        now + self.cfg.timing.dbr_latency() + delay,
                        TraceEvent::DbrOutcome {
                            round,
                            grants: all_grants.len() as u32,
                            retries: 0,
                            aborted: false,
                        },
                    );
                }
                if let Some((reg, ids)) = &mut self.registry {
                    reg.inc(ids.grants, all_grants.len() as u64);
                }
                if !all_grants.is_empty() {
                    self.pending_dbr
                        .push((now + self.cfg.timing.dbr_latency() + delay, all_grants));
                }
            }
            ControlPlane::MessageLevel => {
                if self.active_round.is_some() {
                    // The previous round is somehow still running (only
                    // possible with an R_w shorter than the protocol);
                    // drop the stale round in favour of fresh statistics.
                    self.active_round = None;
                }
                let (outgoing, demands) = self.round_inputs();
                let mut round =
                    DbrRound::new(self.cfg.timing, self.cfg.alloc, now, outgoing, demands)
                        .with_retry(self.cfg.retry);
                for f in self.armed_token.drain(..) {
                    round.inject_fault(f);
                }
                self.active_round = Some(round);
            }
        }
    }

    /// Direct evaluation of the Reconfigure stage for every destination.
    /// The per-destination channel/demand lists are hoisted out of the loop
    /// and reused, so one window boundary performs O(1) allocations instead
    /// of O(boards).
    fn compute_grants(&self) -> Vec<WavelengthGrant> {
        let boards = self.cfg.boards;
        let wavelengths = self.cfg.wavelengths();
        let mut all_grants = Vec::new();
        let mut channels: Vec<IncomingLink> = Vec::with_capacity(wavelengths as usize);
        let mut demands: Vec<FlowDemand> = Vec::with_capacity(boards as usize);
        for d in 0..boards {
            channels.clear();
            for w in 1..wavelengths {
                if let Some(s) = self.srs.owner(d, w) {
                    channels.push(IncomingLink {
                        wavelength: Wavelength(w),
                        owner: BoardId(s),
                        buffer_util: self.boards[s as usize].buffer_util(d),
                    });
                }
            }
            demands.clear();
            demands.extend((0..boards).filter(|&s| s != d).map(|s| FlowDemand {
                source: BoardId(s),
                buffer_util: self.boards[s as usize].buffer_util(d),
            }));
            let grants = self
                .cfg
                .alloc
                .reconfigure_with_demands(BoardId(d), &channels, &demands);
            all_grants.extend(grants);
        }
        all_grants
    }

    /// Builds the Link-Request readings and flow demands a message-level
    /// round starts from (the LC hardware-counter state of the previous
    /// window).
    fn round_inputs(&self) -> (Vec<Vec<LinkReading>>, Vec<Vec<FlowDemand>>) {
        let boards = self.cfg.boards;
        let wavelengths = self.cfg.wavelengths();
        let mut outgoing = vec![Vec::new(); boards as usize];
        for d in 0..boards {
            for w in 1..wavelengths {
                if let Some(s) = self.srs.owner(d, w) {
                    let ch = self.srs.channel(s, d, w);
                    outgoing[s as usize].push(LinkReading {
                        wavelength: Wavelength(w),
                        destination: Some(BoardId(d)),
                        link_util: self.srs.link_util(s, d, w),
                        buffer_util: self.boards[s as usize].buffer_util(d),
                        level: ch.level(),
                    });
                }
            }
        }
        let demands = (0..boards)
            .map(|d| {
                (0..boards)
                    .filter(|&s| s != d)
                    .map(|s| FlowDemand {
                        source: BoardId(s),
                        buffer_util: self.boards[s as usize].buffer_util(d),
                    })
                    .collect()
            })
            .collect();
        (outgoing, demands)
    }

    /// Advances an in-flight message-level round; applies its outcome on
    /// the cycle the Link Response stage completes.
    fn tick_active_round(&mut self, now: Cycle) {
        let Some(round) = &mut self.active_round else {
            return;
        };
        if let Some(outcome) = round.tick(now) {
            self.ls_retries += outcome.retries as u64;
            if outcome.error.is_some() {
                // Fail-safe abort: the round decided nothing; the system
                // keeps its current allocation.
                self.ls_aborted += 1;
            }
            if self.tracer.enabled() {
                // Rounds never overlap (stale ones are dropped at the next
                // window boundary), so the live round is always the latest.
                let id = self.dbr_rounds;
                let log = round.take_stage_log();
                for pair in log.windows(2) {
                    let (start, label) = pair[0];
                    let (end, _) = pair[1];
                    if let Some(stage) = LsStageLabel::from_name(label) {
                        self.tracer.emit(
                            start,
                            TraceEvent::LsStage {
                                round: id,
                                stage,
                                end,
                            },
                        );
                    }
                }
                self.tracer.emit(
                    now,
                    TraceEvent::DbrOutcome {
                        round: id,
                        grants: outcome.grants.len() as u32,
                        retries: outcome.retries,
                        aborted: outcome.error.is_some(),
                    },
                );
            }
            if let Some((reg, ids)) = &mut self.registry {
                reg.inc(ids.grants, outcome.grants.len() as u64);
            }
            self.srs
                .schedule_grants(now, &outcome.grants, &mut self.tracer);
            // Faults that armed too late to strike this round carry over
            // to the next one.
            let leftovers = round.take_armed();
            self.armed_token.extend(leftovers);
            self.active_round = None;
        }
    }

    fn apply_due_dbr(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.pending_dbr.len() {
            if self.pending_dbr[i].0 <= now {
                let (_, grants) = self.pending_dbr.swap_remove(i);
                self.srs.schedule_grants(now, &grants, &mut self.tracer);
            } else {
                i += 1;
            }
        }
    }

    /// Node injection: Bernoulli sources fire into their NIs (or the
    /// replayed trace's entries due this cycle, or the scenario source's).
    /// All branches funnel through [`Self::inject_one`], so the injection
    /// log sees the exact workload regardless of its source.
    fn inject(&mut self, now: Cycle) {
        let plan = self.metrics.plan;
        let labelled = plan.phase_at(now) == Phase::Measure;
        if let Some(mut rep) = self.replay.take() {
            while let Some(e) = rep.pop_due(now) {
                self.inject_one(now, e.src, e.dst, labelled);
            }
            self.replay = Some(rep);
            return;
        }
        if let Some(mut sc) = self.scenario.take() {
            let mut due = std::mem::take(&mut self.scenario_scratch);
            due.clear();
            sc.poll_into(now, &mut due);
            for req in &due {
                self.inject_one(now, req.src, req.dst, labelled);
            }
            self.scenario_scratch = due;
            self.scenario = Some(sc);
            return;
        }
        // Moving the Vec out and back costs three pointer words and frees
        // `self` for the funnel call; no element is touched.
        let mut gens = std::mem::take(&mut self.generators);
        for g in &mut gens {
            if let Some(req) = g.poll(now) {
                self.inject_one(now, req.src, req.dst, labelled);
            }
        }
        self.generators = gens;
    }

    /// Injects one packet from `src` to `dst`, assigning the next
    /// sequential id and recording into the injection log when enabled.
    fn inject_one(&mut self, now: Cycle, src: u32, dst: u32, labelled: bool) {
        if let Some(log) = &mut self.injection_log {
            // `now` is monotone across calls, so recording cannot fail;
            // a debug build still checks the invariant.
            let recorded = log.record(now, src, dst);
            debug_assert!(recorded.is_ok(), "injection log out of order");
        }
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let packet = Packet {
            id,
            src: NodeId(src),
            dst: NodeId(dst),
            flits: self.cfg.packet_flits,
            injected_at: now,
            labelled,
        };
        if labelled {
            self.metrics.tracker.inject_labelled();
        }
        self.metrics.injected_total += 1;
        let b = self.cfg.board_of(src);
        let l = self.cfg.local_of(src);
        self.boards[b as usize].enqueue_node_packet(l, packet);
    }

    /// Delivers optical arrivals into the destination boards' receivers
    /// (popping one at a time — no per-cycle arrival list is built).
    fn receive(&mut self, now: Cycle) {
        while let Some(arr) = self.srs.pop_arrival_due(now) {
            self.boards[arr.dst_board as usize].enqueue_rx_packet(arr.wavelength, arr.packet);
        }
    }

    /// Applies every fault event scheduled at or before `now` (the plan is
    /// time-sorted, so this is a cursor walk — O(1) when nothing is due).
    fn apply_due_faults(&mut self, now: Cycle) {
        while self.fault_cursor < self.cfg.faults.len() {
            let e = self.cfg.faults.events()[self.fault_cursor];
            if e.at > now {
                break;
            }
            self.fault_cursor += 1;
            self.apply_fault(now, e.kind);
        }
    }

    fn apply_fault(&mut self, now: Cycle, kind: FaultKind) {
        if self.tracer.enabled() {
            // `wavelength: 0` marks "not applicable": the static RWA never
            // assigns wavelength 0 to a flow, so the sentinel is unambiguous.
            let (label, board, dest, wavelength) = match kind {
                FaultKind::ReceiverDown { board, wavelength } => {
                    (FaultLabel::ReceiverDrop, board, board, wavelength)
                }
                FaultKind::ReceiverRepair { board, wavelength } => {
                    (FaultLabel::ReceiverRepair, board, board, wavelength)
                }
                FaultKind::TransmitterDown { board, dest } => {
                    (FaultLabel::TransmitterDrop, board, dest, 0)
                }
                FaultKind::TransmitterRepair { board, dest } => {
                    (FaultLabel::TransmitterRepair, board, dest, 0)
                }
                FaultKind::LcStuck {
                    board,
                    dest,
                    wavelength,
                } => (FaultLabel::LcStuck, board, dest, wavelength),
                FaultKind::LcRepair {
                    board,
                    dest,
                    wavelength,
                } => (FaultLabel::LcUnstuck, board, dest, wavelength),
                FaultKind::CdrRelock {
                    board,
                    dest,
                    wavelength,
                    ..
                } => (FaultLabel::CdrRelock, board, dest, wavelength),
                FaultKind::TokenLoss { victim } => (FaultLabel::TokenLoss, victim, victim, 0),
                FaultKind::TokenCorrupt { victim } => (FaultLabel::TokenCorrupt, victim, victim, 0),
            };
            self.tracer.emit(
                now,
                TraceEvent::Fault {
                    label,
                    board,
                    dest,
                    wavelength,
                },
            );
            if let Some((reg, ids)) = &mut self.registry {
                reg.inc(ids.faults, 1);
            }
        }
        match kind {
            FaultKind::ReceiverDown { board, wavelength } => {
                self.srs
                    .fail_receiver(now, board, wavelength, &mut self.tracer)
            }
            FaultKind::ReceiverRepair { board, wavelength } => {
                self.srs.repair_receiver(now, board, wavelength)
            }
            FaultKind::TransmitterDown { board, dest } => {
                self.srs
                    .fail_transmitter(now, board, dest, &mut self.tracer)
            }
            FaultKind::TransmitterRepair { board, dest } => {
                self.srs.repair_transmitter(now, board, dest)
            }
            FaultKind::LcStuck {
                board,
                dest,
                wavelength,
            } => self.srs.stick_lc(board, dest, wavelength),
            FaultKind::LcRepair {
                board,
                dest,
                wavelength,
            } => self.srs.unstick_lc(board, dest, wavelength),
            FaultKind::CdrRelock {
                board,
                dest,
                wavelength,
                penalty,
            } => self.srs.schedule_relock(board, dest, wavelength, penalty),
            FaultKind::TokenLoss { victim } => self.token_fault(now, victim, false),
            FaultKind::TokenCorrupt { victim } => self.token_fault(now, victim, true),
        }
    }

    /// Routes an LS token fault into whichever control plane is running.
    /// Both planes recover with the same deterministic extra latency for a
    /// single token fault per round (see [`reconfig::protocol::RetryPolicy`]);
    /// only the message-level plane models the fail-safe abort of a
    /// persistently jammed ring.
    fn token_fault(&mut self, now: Cycle, victim: u16, corrupt: bool) {
        if !self.cfg.mode.bandwidth_reconfig() {
            return; // no DBR rounds: nothing on the ring to hit
        }
        let fault = TokenFault {
            victim: BoardId(victim),
            corrupt,
        };
        match self.cfg.control_plane {
            ControlPlane::MessageLevel => {
                if let Some(round) = &mut self.active_round {
                    round.inject_fault(fault);
                } else {
                    self.armed_token.push(fault);
                }
            }
            ControlPlane::AnalyticLatency => {
                self.ls_retries += 1;
                let delay = self.cfg.retry.recovery_delay(&self.cfg.timing, corrupt);
                let link_resp = self.cfg.timing.stage_cycles(Stage::LinkResponse);
                // A fault lands in the round whose Board Response has not
                // yet completed; later faults arm for the next round.
                match self.pending_dbr.iter_mut().min_by_key(|(due, _)| *due) {
                    Some(batch) if now + link_resp <= batch.0 => batch.0 += delay,
                    _ => self.armed_analytic_delay += delay,
                }
            }
        }
    }

    /// Fault injection: kills the receiver for wavelength `w` at board `d`
    /// (see [`Srs::fail_receiver`]). With DBR active the orphaned flow
    /// re-acquires bandwidth through its queue demand; without it the flow
    /// starves — the resilience story reconfigurability buys.
    pub fn fail_receiver(&mut self, d: u16, w: u16) {
        let now = self.now;
        self.srs.fail_receiver(now, d, w, &mut NullSink);
    }

    /// Fault repair: restores the receiver for wavelength `w` at board `d`
    /// (see [`Srs::repair_receiver`]); the static owner re-lights and DBR
    /// re-admits the wavelength.
    pub fn repair_receiver(&mut self, d: u16, w: u16) {
        let now = self.now;
        self.srs.repair_receiver(now, d, w);
    }

    /// Applies one fault immediately, outside any scheduled plan.
    pub fn inject_fault(&mut self, kind: FaultKind) {
        let now = self.now;
        self.apply_fault(now, kind);
    }

    /// Control-plane health: `(token resends performed, rounds aborted
    /// fail-safe)`.
    pub fn control_stats(&self) -> (u64, u64) {
        (self.ls_retries, self.ls_aborted)
    }

    /// True when this system records a trace (i.e. [`SystemConfig::trace`]
    /// enabled it).
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Drains the recorded trace, oldest event first. Empty when tracing is
    /// off (the default).
    pub fn take_trace_records(&mut self) -> Vec<TraceRecord> {
        self.tracer.take_records()
    }

    /// Events overwritten because the ring-buffer capacity was exceeded.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Drains the per-window metric snapshots (empty when tracing is off).
    pub fn take_metric_windows(&mut self) -> Vec<WindowSnapshot> {
        match &mut self.registry {
            Some((reg, _)) => reg.take_windows(),
            None => Vec::new(),
        }
    }

    /// Counter column names for [`Self::take_metric_windows`] rows, in
    /// registration (= snapshot) order.
    pub fn metric_counter_names(&self) -> Vec<String> {
        match &self.registry {
            Some((reg, _)) => reg.counter_names().iter().map(|s| s.to_string()).collect(),
            None => Vec::new(),
        }
    }

    /// Gauge column names for [`Self::take_metric_windows`] rows.
    pub fn metric_gauge_names(&self) -> Vec<String> {
        match &self.registry {
            Some((reg, _)) => reg.gauge_names().iter().map(|s| s.to_string()).collect(),
            None => Vec::new(),
        }
    }

    /// Histogram names registered by a traced run (empty when tracing is
    /// off), in registration order.
    pub fn metric_hist_names(&self) -> Vec<String> {
        match &self.registry {
            Some((reg, _)) => reg.hist_names().iter().map(|s| s.to_string()).collect(),
            None => Vec::new(),
        }
    }

    /// Run-cumulative histogram digests (empty when tracing is off).
    pub fn metric_hist_summaries(&self) -> Vec<HistogramSummary> {
        match &self.registry {
            Some((reg, _)) => reg.hist_summaries(),
            None => Vec::new(),
        }
    }

    /// Drains the injection log recorded by this run (None unless
    /// [`SystemConfig::record_injections`] enabled it). The caller attaches
    /// provenance via [`TraceRecorder::into_trace`].
    pub fn take_injection_log(&mut self) -> Option<TraceRecorder> {
        self.injection_log.take()
    }

    /// Drains the per-packet delivery log (empty unless
    /// [`SystemConfig::packet_log`] enabled it).
    pub fn take_packet_log(&mut self) -> Vec<PacketDelivery> {
        self.packet_log.take().unwrap_or_default()
    }

    /// True when no packet is anywhere in flight — boards idle *and* the
    /// optical domain empty (no packet serializing or on a fiber).
    pub fn is_drained(&self) -> bool {
        self.boards.iter().all(|b| b.is_idle()) && self.srs.arrivals_pending() == 0
    }

    /// The mode this system runs.
    pub fn mode(&self) -> NetworkMode {
        self.cfg.mode
    }

    /// True when the system is at a state a checkpoint can capture: no
    /// message-level DBR round in flight. Rounds launch at `R_w`
    /// boundaries and complete well within a window, so boundary-cadence
    /// checkpointing observes this as always-true in practice; a
    /// conservative caller ([`crate::checkpoint::Checkpointer`]) skips the
    /// boundary and retries at the next one if it is not.
    pub fn can_checkpoint(&self) -> bool {
        self.active_round.is_none()
    }

    /// Serializes the full mutable simulation state (boards, SRS,
    /// generators, logs, metrics, control plane, telemetry). Config-derived
    /// geometry is *not* written — restore overlays a freshly-constructed
    /// identical system. Fails if a message-level DBR round is in flight
    /// (see [`Self::can_checkpoint`]); in-flight rounds borrow stage state
    /// that is not worth freezing when the next boundary is at most one
    /// window away.
    pub fn save_state(
        &self,
        w: &mut desim::snap::SnapWriter,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::{Snap, SnapError};
        if self.active_round.is_some() {
            return Err(SnapError::Mismatch(
                "checkpoint requested mid-DBR-round; wait for quiescence".into(),
            ));
        }
        w.tag(b"SYSS");
        w.u64(self.now);
        w.u64(self.next_packet_id);
        w.u64(self.window_index);
        w.u64(self.dbr_rounds);
        w.u64(self.ls_retries);
        w.u64(self.ls_aborted);
        w.u64(self.armed_analytic_delay);
        w.usize(self.fault_cursor);
        w.usize(self.boards.len());
        for b in &self.boards {
            b.save_state(w);
        }
        self.srs.save_state(w);
        w.usize(self.generators.len());
        for g in &self.generators {
            g.save_state(w);
        }
        w.bool(self.replay.is_some());
        if let Some(rp) = &self.replay {
            rp.save_state(w);
        }
        w.bool(self.injection_log.is_some());
        if let Some(log) = &self.injection_log {
            log.save_state(w);
        }
        w.bool(self.packet_log.is_some());
        if let Some(log) = &self.packet_log {
            log.save(w);
        }
        self.metrics.save_state(w);
        self.pending_dbr.save(w);
        self.armed_token.save(w);
        self.tracer.save_state(w);
        w.bool(self.registry.is_some());
        if let Some((reg, _)) = &self.registry {
            reg.save_state(w);
        }
        w.usize(self.buffer_watch.len());
        for watch in &self.buffer_watch {
            watch.save_state(w);
        }
        self.watch_pending.save(w);
        w.bool(self.scenario.is_some());
        if let Some(sc) = &self.scenario {
            sc.save_state(w);
        }
        w.bool(self.controller.is_some());
        if let Some(c) = &self.controller {
            c.save_state(w);
        }
        Ok(())
    }

    /// Overlays a checkpointed state onto a freshly-constructed system
    /// built from the *same* config (and, under replay, the same trace).
    /// Geometry mismatches (board count, channel bank shape, presence of
    /// replay/logs/telemetry) are typed [`desim::snap::SnapError::Mismatch`]
    /// errors, never panics.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::{Snap, SnapError};
        fn presence(got: bool, have: bool, what: &str) -> Result<(), SnapError> {
            if got != have {
                return Err(SnapError::Mismatch(format!(
                    "snapshot {} {what} but this system {}",
                    if got { "has" } else { "lacks" },
                    if have { "has one" } else { "does not" },
                )));
            }
            Ok(())
        }
        r.tag(b"SYSS")?;
        let now = r.u64()?;
        let next_packet_id = r.u64()?;
        let window_index = r.u64()?;
        let dbr_rounds = r.u64()?;
        let ls_retries = r.u64()?;
        let ls_aborted = r.u64()?;
        let armed_analytic_delay = r.u64()?;
        let fault_cursor = r.usize()?;
        if fault_cursor > self.cfg.faults.len() {
            return Err(SnapError::Format(
                "fault cursor beyond this config's fault plan".into(),
            ));
        }
        r.len_eq(self.boards.len(), "system boards")?;
        for b in &mut self.boards {
            b.load_state(r)?;
        }
        self.srs.load_state(r)?;
        r.len_eq(self.generators.len(), "node generators")?;
        for g in &mut self.generators {
            g.load_state(r)?;
        }
        presence(r.bool()?, self.replay.is_some(), "a replay source")?;
        if let Some(rp) = &mut self.replay {
            rp.load_state(r)?;
        }
        presence(r.bool()?, self.injection_log.is_some(), "an injection log")?;
        if let Some(log) = &mut self.injection_log {
            log.load_state(r)?;
        }
        presence(r.bool()?, self.packet_log.is_some(), "a packet log")?;
        if self.packet_log.is_some() {
            self.packet_log = Some(Snap::load(r)?);
        }
        self.metrics.load_state(r)?;
        self.pending_dbr = Snap::load(r)?;
        self.armed_token = Snap::load(r)?;
        self.tracer.load_state(r)?;
        presence(r.bool()?, self.registry.is_some(), "a metric registry")?;
        if let Some((reg, _)) = &mut self.registry {
            reg.load_state(r)?;
        }
        r.len_eq(self.buffer_watch.len(), "buffer watches")?;
        for watch in &mut self.buffer_watch {
            watch.load_state(r)?;
        }
        let watch_pending: Vec<bool> =
            desim::snap::load_vec_exact(r, self.watch_pending.len(), "watch-pending flags")?;
        presence(r.bool()?, self.scenario.is_some(), "a scenario source")?;
        if let Some(sc) = &mut self.scenario {
            sc.load_state(r)?;
        }
        presence(r.bool()?, self.controller.is_some(), "a tuning controller")?;
        if let Some(c) = &mut self.controller {
            c.load_state(r)?;
            // The freshly-built watches carry the config's `B_max`; the
            // killed run's watches had been retargeted to the controller's
            // live value. Reproduce that (the snapshot's hysteresis sides
            // and park flags — loaded above/below — already correspond to
            // it, so no un-parking here).
            let target = c.thresholds_milli().2 as f64 / 1000.0;
            for watch in &mut self.buffer_watch {
                watch.retarget(target);
            }
        }
        self.now = now;
        self.next_packet_id = next_packet_id;
        self.window_index = window_index;
        self.dbr_rounds = dbr_rounds;
        self.ls_retries = ls_retries;
        self.ls_aborted = ls_aborted;
        self.armed_analytic_delay = armed_analytic_delay;
        self.fault_cursor = fault_cursor;
        self.watch_pending = watch_pending;
        self.active_round = None;
        Ok(())
    }

    /// Runs until every labelled packet drains (or the plan's hard cap),
    /// invoking `hook` at the top of every cycle *before* the cycle
    /// executes, and returns the final cycle. Pass `&mut |_| {}` for a
    /// plain run.
    ///
    /// The hook observes the system exactly as the cycle will (same
    /// `now`, pre-boundary state), which is what checkpointing and
    /// streaming export need: a hook at cycle `t = k·R_w` captures the
    /// state an uninterrupted run has when entering that boundary cycle.
    pub fn run<F: FnMut(&mut System)>(&mut self, hook: &mut F) -> Cycle {
        let plan = self.metrics.plan;
        while self.now < plan.max_cycles && !self.metrics.tracker.complete(&plan, self.now) {
            hook(self);
            self.step();
        }
        self.now
    }

    /// [`System::run`] under its former name, kept for callers built
    /// against it (the `perfbench/` harness); the worker count is ignored.
    #[doc(hidden)]
    pub fn run_with<F: FnMut(&mut System)>(
        &mut self,
        _workers: std::num::NonZeroUsize,
        hook: &mut F,
    ) -> Cycle {
        self.run(hook)
    }

    /// Drains one window's worth of streamable output: recorded trace
    /// events, per-window metric rows, and the packet-delivery log. With a
    /// boundary-cadence caller this bounds all three in-memory buffers to
    /// one window of data — the core of the long-horizon streaming mode.
    pub fn drain_window(&mut self) -> WindowFlush {
        let packets = match &mut self.packet_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        };
        // Drained every window, the log can never exceed one window of
        // deliveries: at most one flit ejects per node per cycle, so
        // deliveries per window ≤ nodes × R_w / packet_flits.
        debug_assert!(
            packets.len()
                <= (self.cfg.boards as usize * self.cfg.nodes_per_board as usize)
                    * (self.cfg.schedule.window as usize)
                    / (self.cfg.packet_flits as usize).max(1),
            "packet log exceeded one window of deliveries"
        );
        WindowFlush {
            records: self.tracer.take_records(),
            windows: self.take_metric_windows(),
            packets,
        }
    }
}

/// One window's worth of streamed output, drained at an `R_w` boundary by
/// [`System::drain_window`].
#[derive(Debug, Default)]
pub struct WindowFlush {
    /// Trace events recorded since the previous drain (empty when tracing
    /// is off).
    pub records: Vec<TraceRecord>,
    /// Per-window metric rows rolled since the previous drain.
    pub windows: Vec<WindowSnapshot>,
    /// Packet deliveries logged since the previous drain.
    pub packets: Vec<PacketDelivery>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkMode;

    /// Runs `sys` to the end of its plan.
    fn finish(sys: &mut System) {
        sys.run(&mut |_| {});
    }

    fn plan() -> PhasePlan {
        PhasePlan::new(2000, 4000).with_max_cycles(40_000)
    }

    fn run(mode: NetworkMode, pattern: TrafficPattern, load: f64) -> System {
        let cfg = SystemConfig::small(mode);
        let mut sys = System::new(cfg, pattern, load, plan());
        finish(&mut sys);
        sys
    }

    #[test]
    fn uniform_low_load_delivers_everything() {
        let sys = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.2);
        let m = sys.metrics();
        assert!(m.injected_total > 0, "traffic must flow");
        assert_eq!(
            m.tracker.outstanding(),
            0,
            "all labelled packets must drain at low load"
        );
        assert!(m.mean_latency() > 0.0);
        assert!(m.throughput_ppc() > 0.0);
        assert!(m.average_power_mw() > 0.0);
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let sys = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.3);
        let m = sys.metrics();
        let offered = sys.config().capacity().injection_rate(0.3);
        let accepted = m.throughput_ppc();
        assert!(
            (accepted - offered).abs() / offered < 0.25,
            "accepted {accepted} vs offered {offered}"
        );
    }

    #[test]
    fn higher_load_does_not_reduce_packets() {
        let lo = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.2);
        let hi = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.6);
        assert!(
            hi.metrics().throughput_ppc() > lo.metrics().throughput_ppc() * 1.5,
            "hi {} lo {}",
            hi.metrics().throughput_ppc(),
            lo.metrics().throughput_ppc()
        );
    }

    #[test]
    fn complement_saturates_np_nb_but_not_np_b() {
        // The paper's headline: with one static wavelength per board pair,
        // complement traffic saturates immediately; DBR re-allocates the
        // idle wavelengths and throughput multiplies.
        let base = run(NetworkMode::NpNb, TrafficPattern::Complement, 0.6);
        let reconf = run(NetworkMode::NpB, TrafficPattern::Complement, 0.6);
        let t_base = base.metrics().throughput_ppc();
        let t_reconf = reconf.metrics().throughput_ppc();
        assert!(
            t_reconf > t_base * 1.5,
            "DBR must improve complement throughput: {t_reconf} vs {t_base}"
        );
        // And reconfiguration actually happened.
        assert!(reconf.srs().reconfig_counts().0 > 0);
        assert_eq!(base.srs().reconfig_counts().0, 0);
    }

    #[test]
    fn power_aware_mode_saves_power_at_low_load() {
        let base = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.2);
        let pa = run(NetworkMode::PNb, TrafficPattern::Uniform, 0.2);
        let p_base = base.metrics().average_power_mw();
        let p_pa = pa.metrics().average_power_mw();
        assert!(
            p_pa < p_base * 0.95,
            "DPM must save power at low load: {p_pa} vs {p_base}"
        );
        assert!(pa.srs().reconfig_counts().1 > 0, "retunes must happen");
    }

    #[test]
    fn np_modes_never_retune_or_regrant() {
        let sys = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.5);
        assert_eq!(sys.srs().reconfig_counts(), (0, 0));
        assert_eq!(sys.mode(), NetworkMode::NpNb);
    }

    #[test]
    fn deterministic_runs() {
        let a = run(NetworkMode::PB, TrafficPattern::Uniform, 0.4);
        let b = run(NetworkMode::PB, TrafficPattern::Uniform, 0.4);
        assert_eq!(a.metrics().injected_total, b.metrics().injected_total);
        assert_eq!(a.metrics().delivered_total, b.metrics().delivered_total);
        assert_eq!(a.metrics().throughput_ppc(), b.metrics().throughput_ppc());
        assert_eq!(a.metrics().mean_latency(), b.metrics().mean_latency());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn bursty_sources_flow_and_drain() {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.burst = Some(crate::config::BurstSpec {
            burstiness: 4.0,
            dwell: 1000.0,
        });
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.3, plan());
        finish(&mut sys);
        let m = sys.metrics();
        assert!(m.injected_total > 0);
        assert_eq!(m.tracker.outstanding(), 0, "bursty low load must drain");
    }

    #[test]
    fn message_level_control_plane_matches_analytic_shortcut() {
        // The same run under both control planes must make identical
        // decisions at identical times — identical metrics throughout.
        let run_plane = |plane: crate::config::ControlPlane| {
            let mut cfg = SystemConfig::small(NetworkMode::PB);
            cfg.control_plane = plane;
            let mut sys = System::new(cfg, TrafficPattern::Complement, 0.6, plan());
            finish(&mut sys);
            (
                sys.metrics().injected_total,
                sys.metrics().delivered_total,
                sys.metrics().throughput_ppc(),
                sys.metrics().mean_latency(),
                sys.srs().reconfig_counts(),
                sys.now(),
            )
        };
        let analytic = run_plane(crate::config::ControlPlane::AnalyticLatency);
        let message = run_plane(crate::config::ControlPlane::MessageLevel);
        assert_eq!(analytic, message);
        // And reconfiguration genuinely happened in both.
        assert!(analytic.4 .0 > 0, "grants expected under complement");
    }

    /// The metrics compared between control planes: injected, delivered,
    /// throughput, latency, (grants, retunes), (ls_retries, ls_aborts),
    /// final cycle.
    type PlaneFingerprint = (u64, u64, f64, f64, (u64, u64), (u64, u64), Cycle);

    /// Both control planes must recover from a single LS token fault with
    /// the same deterministic extra latency — identical metrics throughout.
    fn run_plane_with_fault(
        plane: crate::config::ControlPlane,
        kind: crate::faults::FaultKind,
    ) -> PlaneFingerprint {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.control_plane = plane;
        // The first Bandwidth window boundary is t=4000; the Board Request
        // tokens are on the ring from 4005.
        cfg.faults = crate::faults::FaultPlan::new().at(4006, kind);
        let mut sys = System::new(cfg, TrafficPattern::Complement, 0.6, plan());
        finish(&mut sys);
        (
            sys.metrics().injected_total,
            sys.metrics().delivered_total,
            sys.metrics().throughput_ppc(),
            sys.metrics().mean_latency(),
            sys.srs().reconfig_counts(),
            sys.control_stats(),
            sys.now(),
        )
    }

    #[test]
    fn token_loss_parity_between_control_planes() {
        let kind = crate::faults::FaultKind::TokenLoss { victim: 1 };
        let analytic = run_plane_with_fault(crate::config::ControlPlane::AnalyticLatency, kind);
        let message = run_plane_with_fault(crate::config::ControlPlane::MessageLevel, kind);
        assert_eq!(analytic, message);
        assert_eq!(analytic.5, (1, 0), "one resend, no abort");
        assert!(analytic.4 .0 > 0, "the delayed round still granted");
    }

    #[test]
    fn token_corruption_parity_between_control_planes() {
        let kind = crate::faults::FaultKind::TokenCorrupt { victim: 2 };
        let analytic = run_plane_with_fault(crate::config::ControlPlane::AnalyticLatency, kind);
        let message = run_plane_with_fault(crate::config::ControlPlane::MessageLevel, kind);
        assert_eq!(analytic, message);
        assert_eq!(analytic.5, (1, 0));
    }

    #[test]
    fn token_faults_are_inert_without_dbr() {
        let mut cfg = SystemConfig::small(NetworkMode::NpNb);
        cfg.faults = crate::faults::FaultPlan::new()
            .at(4006, crate::faults::FaultKind::TokenLoss { victim: 1 });
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.3, plan());
        finish(&mut sys);
        assert_eq!(sys.control_stats(), (0, 0));
        assert_eq!(sys.metrics().tracker.outstanding(), 0);
    }

    #[test]
    fn trace_replay_reproduces_a_generated_run_exactly() {
        // Record what the generators of a reference run inject, replay the
        // trace into a fresh system of the same configuration, and expect
        // bit-identical metrics.
        let cfg = SystemConfig::small(NetworkMode::PB);
        let rate = cfg.capacity().injection_rate(0.4);
        let mut gens = traffic::generator::build_generators(
            cfg.nodes(),
            &TrafficPattern::Uniform,
            rate,
            cfg.seed,
        );
        let mut rec = traffic::trace::TraceRecorder::new();
        let horizon = plan().max_cycles;
        for now in 0..horizon {
            for g in &mut gens {
                if let Some(r) = g.poll(now) {
                    rec.record(now, r.src, r.dst).unwrap();
                }
            }
        }
        let mut live = System::new(
            SystemConfig::small(NetworkMode::PB),
            TrafficPattern::Uniform,
            0.4,
            plan(),
        );
        finish(&mut live);
        let mut replayed = System::with_trace(
            SystemConfig::small(NetworkMode::PB),
            rec.into_replay(),
            plan(),
        );
        finish(&mut replayed);
        assert_eq!(
            live.metrics().injected_total,
            replayed.metrics().injected_total
        );
        assert_eq!(
            live.metrics().delivered_total,
            replayed.metrics().delivered_total
        );
        assert_eq!(
            live.metrics().mean_latency(),
            replayed.metrics().mean_latency()
        );
        assert_eq!(live.now(), replayed.now());
    }

    #[test]
    fn zero_load_runs_clean() {
        let cfg = SystemConfig::small(NetworkMode::PB);
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.0, plan());
        finish(&mut sys);
        assert_eq!(sys.metrics().injected_total, 0);
        assert!(sys.is_drained());
        // Idle lasers still burn idle power.
        assert!(sys.metrics().average_power_mw() > 0.0);
    }

    #[test]
    fn traced_pb_run_records_ordered_events_and_windows() {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.trace = erapid_telemetry::TraceConfig::on();
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.5, plan());
        finish(&mut sys);
        assert!(sys.trace_enabled());
        assert_eq!(sys.trace_dropped(), 0, "64 KiB ring must fit a small run");
        let records = sys.take_trace_records();
        assert!(!records.is_empty(), "a P-B run must emit events");
        // Emission order is simulation order.
        assert!(records.windows(2).all(|p| p[0].at <= p[1].at));
        let tags: std::collections::BTreeSet<&str> =
            records.iter().map(|r| r.event.tag()).collect();
        for expected in [
            "window",
            "dpm_retune",
            "dpm_applied",
            "ls_stage",
            "dbr_outcome",
        ] {
            assert!(tags.contains(expected), "missing {expected} in {tags:?}");
        }
        let windows = sys.take_metric_windows();
        assert!(!windows.is_empty(), "window boundaries must roll snapshots");
        let names = sys.metric_counter_names();
        assert_eq!(windows[0].counters.len(), names.len());
        let retune_col = names
            .iter()
            .position(|n| n == "dpm_retunes")
            .expect("dpm_retunes registered");
        let total: u64 = windows.iter().map(|w| w.counters[retune_col]).sum();
        assert!(total > 0, "P-B at load 0.5 must retune at least once");
    }

    #[test]
    fn tracing_never_perturbs_the_simulation() {
        let plain = run(NetworkMode::PB, TrafficPattern::Uniform, 0.4);
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.trace = erapid_telemetry::TraceConfig::on();
        let mut traced = System::new(cfg, TrafficPattern::Uniform, 0.4, plan());
        finish(&mut traced);
        assert_eq!(
            plain.metrics().injected_total,
            traced.metrics().injected_total
        );
        assert_eq!(
            plain.metrics().delivered_total,
            traced.metrics().delivered_total
        );
        assert_eq!(
            plain.metrics().mean_latency(),
            traced.metrics().mean_latency()
        );
        assert_eq!(
            plain.srs().reconfig_counts(),
            traced.srs().reconfig_counts()
        );
        assert_eq!(plain.now(), traced.now());
    }
}
