//! Host-speed benchmark of the E-RAPID cycle simulator.
//!
//! One invocation runs one workload and prints, as its last stdout line, a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones (host cycles/sec,
//! set-up seconds, peak RSS and the model's averaged outputs); with
//! `--trace 1` they are the per-layer ones, taken from step-profiled passes
//! timed from outside.
//!
//! The benchmark drives the simulator only through its public seam:
//! `System::new`, `System::step` / `step_profiled`, `System::run_with`,
//! `checkpoint::{encode_snapshot, restore_system}` and the public
//! accessors. It adds no probe inside the program.
//!
//! Correctness: every pass's per-point results are compared, field by
//! field as raw bits, with the pins in `pins.txt` when the seed has pins,
//! and otherwise with the untimed warm-up pass of the same process (the
//! uninterrupted run for `incast_checkpoint`; the sequential engine for the
//! 2-worker passes of a traced `b32_complement` run). Every mismatch or
//! error is a failed operation and makes the process exit 1.
//!
//! Host speed: `sim_cycles_per_s` takes each 256-cycle slice of a pass at
//! its fastest over the run's passes, and it and `setup_s` are scaled to a
//! reference host speed measured by a fixed yardstick workload run between
//! points (see [`Yardstick`]), because the shared host they were sized on
//! drifts up to 2x in speed within minutes. The unscaled figures are
//! printed too.
//!
//! Usage:
//!   erapid-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--size full|small] [--perturb-pin]
//!   erapid-perfbench --write-pins <first-seed> <last-seed> [--size full|small]

use erapid_core::checkpoint::{encode_snapshot, restore_system};
use erapid_core::config::{ControlPlane, NetworkMode, SystemConfig};
use erapid_core::experiment::default_plan;
use erapid_core::stream::StreamCursor;
use erapid_core::system::{PhaseTimers, System};
use erapid_telemetry::TraceConfig;
use erapid_workloads::ScenarioSpec;
use reconfig::stages::ProtocolTiming;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traffic::pattern::TrafficPattern;

/// Pinned results, captured by `--write-pins` from the simulator this
/// benchmark was written against.
const PINS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.txt");

/// Set-up is measured at least this many times per run; the median is
/// reported.
const MIN_SETUP_SAMPLES: usize = 11;
/// After each timed pass, set-up is sampled for this long (at most
/// [`MAX_SETUP_PER_PASS`] times), so the samples spread over the whole run
/// like the passes do.
const SETUP_SLICE: Duration = Duration::from_millis(20);
const MAX_SETUP_PER_PASS: usize = 50;
/// Board workers of the sharded passes (as many as the 2-vCPU host the
/// benchmark was sized on has).
const SHARD_WORKERS: NonZeroUsize = match NonZeroUsize::new(2) {
    Some(n) => n,
    None => unreachable!(),
};
/// Timed passes are clocked every this many simulated cycles, so each
/// slice of simulated work can be timed at its fastest over the passes.
const SEGMENT: u64 = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Paper64Sweep,
    B32Complement,
    IncastCheckpoint,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Paper64Sweep,
        Workload::B32Complement,
        Workload::IncastCheckpoint,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Paper64Sweep => "paper64_sweep",
            Workload::B32Complement => "b32_complement",
            Workload::IncastCheckpoint => "incast_checkpoint",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn engine(self) -> Engine {
        match self {
            Workload::Paper64Sweep | Workload::B32Complement => Engine::Sequential,
            Workload::IncastCheckpoint => Engine::Checkpointed,
        }
    }

    /// Whether a traced run also drives the points through
    /// `System::run_with` on [`SHARD_WORKERS`] board workers, to measure
    /// `core::shard` and check that it reproduces the sequential results.
    /// Only the B=32 point has enough boards per worker to be worth it.
    fn sharded(self) -> bool {
        self == Workload::B32Complement
    }
}

/// How a pass drives each point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    /// `System::step` until the labelled packets drain (or the cap).
    Sequential,
    /// As `Sequential`, but at every `R_w` boundary the state is drained,
    /// encoded, restored into a freshly built `System`, and the run goes on
    /// on the restored copy.
    Checkpointed,
    /// `System::run_with` on this many board workers.
    Sharded(NonZeroUsize),
}

/// One simulated operating point.
#[derive(Clone)]
struct Point {
    cfg: SystemConfig,
    pattern: TrafficPattern,
    load: f64,
}

/// The simulator seed a benchmark seed maps to (SplitMix64 finaliser, so
/// neighbouring benchmark seeds give unrelated traffic).
fn sim_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// B boards of D = 8 nodes each (the `scaling` artifact's geometry).
fn wide_config(boards: u16) -> SystemConfig {
    let mut cfg = SystemConfig::paper64(NetworkMode::PB);
    cfg.boards = boards;
    cfg.nodes_per_board = 8;
    cfg.timing = ProtocolTiming {
        boards,
        lcs_per_board: 8,
        ..ProtocolTiming::paper64()
    };
    cfg
}

fn base_config(mode: NetworkMode, small: bool) -> SystemConfig {
    if small {
        SystemConfig::small(mode)
    } else {
        SystemConfig::paper64(mode)
    }
}

/// Incast instances a pass runs, each from its own seed. One instance's
/// peak memory depends on its seed in steps (11.2-11.7 MiB on some seeds,
/// 13.2-14.2 MiB on others, nothing between), so one instance per run
/// would make `peak_rss_mb` jump between runs.
const INCAST_INSTANCES: u64 = 8;

/// The benchmark seed of incast instance `i` of benchmark seed `seed`.
fn incast_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(INCAST_INSTANCES).wrapping_add(i)
}

fn incast_point(small: bool, seed: u64) -> Point {
    let mut cfg = base_config(NetworkMode::PB, small);
    cfg.scenario = Some(ScenarioSpec::incast());
    cfg.trace = TraceConfig::on();
    cfg.seed = sim_seed(seed);
    // The pattern is inert: the scenario engine is the traffic source.
    Point {
        cfg,
        pattern: TrafficPattern::Uniform,
        load: 0.6,
    }
}

/// The points a workload runs, generated from the benchmark seed. `small`
/// is the reduced size the self-test uses.
fn points(w: Workload, small: bool, seed: u64) -> Vec<Point> {
    match w {
        Workload::Paper64Sweep => {
            let patterns = [
                TrafficPattern::Uniform,
                TrafficPattern::Complement,
                TrafficPattern::Butterfly,
                TrafficPattern::PerfectShuffle,
            ];
            let loads: &[f64] = if small { &[0.5] } else { &[0.2, 0.5, 0.8] };
            let mut pts = Vec::new();
            for mode in NetworkMode::all() {
                for pattern in &patterns {
                    for &load in loads {
                        let mut cfg = base_config(mode, small);
                        cfg.seed = sim_seed(seed);
                        pts.push(Point {
                            cfg,
                            pattern: pattern.clone(),
                            load,
                        });
                    }
                }
            }
            pts
        }
        Workload::B32Complement => {
            let mut cfg = wide_config(if small { 4 } else { 32 });
            cfg.seed = sim_seed(seed);
            vec![Point {
                cfg,
                pattern: TrafficPattern::Complement,
                load: 0.6,
            }]
        }
        Workload::IncastCheckpoint => (0..INCAST_INSTANCES)
            .map(|i| incast_point(small, incast_seed(seed, i)))
            .collect(),
    }
}

/// Every `RunResult` field of one point, assembled from public accessors
/// the way `experiment::collect` does.
#[derive(Clone, Copy, Debug)]
struct Outcome {
    load: f64,
    throughput: f64,
    throughput_norm: f64,
    latency: f64,
    latency_p95: f64,
    power_mw: f64,
    src_path: f64,
    tx_wait: f64,
    undrained: u64,
    grants: u64,
    retunes: u64,
    ls_retries: u64,
    ls_aborts: u64,
    injected: u64,
    delivered: u64,
    cycles: u64,
}

impl Outcome {
    fn collect(sys: &System, load: f64) -> Self {
        let m = sys.metrics();
        let capacity = sys.config().capacity().uniform_capacity();
        let (grants, retunes) = sys.srs().reconfig_counts();
        let (ls_retries, ls_aborts) = sys.control_stats();
        Outcome {
            load,
            throughput: m.throughput_ppc(),
            throughput_norm: m.throughput_ppc() / capacity,
            latency: m.mean_latency(),
            latency_p95: m.latency.p95().unwrap_or(0.0),
            power_mw: m.average_power_mw(),
            src_path: m.src_path.mean(),
            tx_wait: m.tx_wait.mean(),
            undrained: m.tracker.outstanding(),
            grants,
            retunes,
            ls_retries,
            ls_aborts,
            injected: m.injected_total,
            delivered: m.delivered_total,
            cycles: sys.now(),
        }
    }

    /// Every field as raw bits (f64 by `to_bits`), in declaration order.
    fn bits(&self) -> [u64; 16] {
        [
            self.load.to_bits(),
            self.throughput.to_bits(),
            self.throughput_norm.to_bits(),
            self.latency.to_bits(),
            self.latency_p95.to_bits(),
            self.power_mw.to_bits(),
            self.src_path.to_bits(),
            self.tx_wait.to_bits(),
            self.undrained,
            self.grants,
            self.retunes,
            self.ls_retries,
            self.ls_aborts,
            self.injected,
            self.delivered,
            self.cycles,
        ]
    }

    /// FNV-1a-64 over [`Self::bits`]: equal digests mean every field is
    /// bit-identical (up to a 2^-64 collision).
    fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self.bits().iter().flat_map(|b| b.to_le_bytes()).collect();
        desim::snap::fnv1a(&bytes)
    }
}

/// On-CPU time and last CPU of one thread, from `/proc`.
#[derive(Clone, Copy, Debug, Default)]
struct ThreadStat {
    cpu_s: f64,
    last_cpu: i64,
}

/// Every live thread of this process, by tid.
fn thread_stats() -> BTreeMap<u32, ThreadStat> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let cpu_ns: f64 = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        // Field 39 of `stat` is the CPU the thread last ran on; fields are
        // counted after the parenthesised command name, which may hold
        // spaces.
        let last_cpu = std::fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| {
                let rest = &s[s.rfind(')')? + 1..];
                rest.split_whitespace().nth(36)?.parse().ok()
            })
            .unwrap_or(-1);
        out.insert(
            tid,
            ThreadStat {
                cpu_s: cpu_ns / 1e9,
                last_cpu,
            },
        );
    }
    out
}

fn current_tid() -> Option<u32> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What one pass over a workload's points did and measured.
#[derive(Default)]
struct Pass {
    outcomes: Vec<Outcome>,
    /// Points or round-trips that returned an error.
    errors: Vec<String>,
    /// Round-trips attempted (each is an operation of its own).
    round_trips: u64,
    setup_s: f64,
    run_s: f64,
    /// Host seconds of each [`SEGMENT`]-cycle slice of each point's timed
    /// region, in order: the same simulated work in every pass (sequential
    /// and checkpointed engines).
    seg_s: Vec<f64>,
    /// Host seconds of the yardstick chunk timed after each point.
    yard_s: Vec<f64>,
    cycles: u64,
    windows: u64,
    timers: PhaseTimers,
    /// Host nanoseconds of each cycle, timed from outside (traced passes).
    step_ns: Vec<u64>,
    snapshots: u64,
    snap_bytes: u64,
    encode_s: f64,
    restore_s: f64,
    flits: u64,
    sa_stalls: u64,
    va_stalls: u64,
    relocks: u64,
    tx_wait_cycles: f64,
    injected: u64,
    records: u64,
    dropped: u64,
    state_bytes: usize,
    /// On-CPU seconds each thread spent in this pass, with the CPU it
    /// last ran on.
    threads: BTreeMap<u32, ThreadStat>,
}

impl Pass {
    fn step_us(&self, q: f64) -> f64 {
        let mut v = self.step_ns.clone();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        let i = ((v.len() - 1) as f64 * q).round() as usize;
        v[i] as f64 / 1e3
    }
}

/// Drains, encodes and restores `sys` into a freshly built system.
fn round_trip(mut sys: System, p: &Point, pass: &mut Pass) -> Result<System, String> {
    pass.round_trips += 1;
    pass.records += sys.drain_window().records.len() as u64;
    let t = Instant::now();
    let bytes = encode_snapshot(&sys, StreamCursor::start()).map_err(|e| e.to_string())?;
    pass.encode_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let plan = default_plan(p.cfg.schedule.window);
    let mut fresh = System::new(p.cfg.clone(), p.pattern.clone(), p.load, plan);
    restore_system(&mut fresh, &bytes).map_err(|e| e.to_string())?;
    pass.restore_s += t.elapsed().as_secs_f64();
    pass.snapshots += 1;
    pass.snap_bytes += bytes.len() as u64;
    Ok(fresh)
}

/// Runs one point to completion; returns the finished system.
fn drive(p: &Point, engine: Engine, traced: bool, pass: &mut Pass) -> Result<System, String> {
    let plan = default_plan(p.cfg.schedule.window);
    let t = Instant::now();
    let mut sys = System::new(p.cfg.clone(), p.pattern.clone(), p.load, plan);
    pass.setup_s += t.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut mark = start;
    match engine {
        Engine::Sequential | Engine::Checkpointed => {
            let window = p.cfg.schedule;
            while sys.now() < plan.max_cycles && !sys.metrics().tracker.complete(&plan, sys.now()) {
                if sys.now() > 0 && sys.now().is_multiple_of(SEGMENT) {
                    let now = Instant::now();
                    pass.seg_s.push((now - mark).as_secs_f64());
                    mark = now;
                }
                if engine == Engine::Checkpointed && window.is_boundary(sys.now()) {
                    sys = round_trip(sys, p, pass)?;
                }
                if traced {
                    let t = Instant::now();
                    sys.step_profiled(&mut pass.timers);
                    pass.step_ns.push(t.elapsed().as_nanos() as u64);
                } else {
                    sys.step();
                }
            }
        }
        Engine::Sharded(workers) => {
            // Helper threads are joined when `run_with` returns, so their
            // on-CPU time is sampled at every boundary while they live.
            let schedule = p.cfg.schedule;
            let mut last = Instant::now();
            let step_ns = &mut pass.step_ns;
            let threads = &mut pass.threads;
            let mut hook = |s: &mut System| {
                if schedule.is_boundary(s.now()) {
                    threads.extend(thread_stats());
                }
                if traced {
                    let now = Instant::now();
                    if s.now() > 0 {
                        step_ns.push((now - last).as_nanos() as u64);
                    }
                    last = now;
                }
            };
            sys.run_with(workers, &mut hook);
        }
    }
    pass.seg_s.push(mark.elapsed().as_secs_f64());
    let run_s = start.elapsed().as_secs_f64();
    pass.run_s += run_s;
    Ok(sys)
}

/// Runs every point of a workload once, timing a `yard` chunk after each
/// point.
fn run_pass(pts: &[Point], engine: Engine, traced: bool, yard: Option<&Yardstick>) -> Pass {
    let before = thread_stats();
    let mut pass = Pass::default();
    for p in pts {
        let drove = drive(p, engine, traced, &mut pass);
        if let Some(y) = yard {
            pass.yard_s.push(y.chunk_s());
        }
        let mut sys = match drove {
            Ok(sys) => sys,
            Err(e) => {
                pass.errors.push(e);
                continue;
            }
        };
        pass.outcomes.push(Outcome::collect(&sys, p.load));
        pass.cycles += sys.now();
        pass.windows += sys.now() / p.cfg.schedule.window;
        pass.injected += sys.metrics().injected_total;
        pass.tx_wait_cycles += sys.metrics().tx_wait.sum();
        pass.relocks += sys.srs().relocks_applied();
        for b in 0..p.cfg.boards {
            let st = sys.board(b).router().stats();
            pass.flits += st.traversed;
            pass.sa_stalls += st.sa_stalls;
            pass.va_stalls += st.va_stalls;
        }
        pass.state_bytes = pass.state_bytes.max(sys.approx_memory_bytes());
        pass.dropped += sys.trace_dropped();
        pass.records += sys.take_trace_records().len() as u64;
    }
    // On-CPU time each thread spent in this pass.
    pass.threads.extend(thread_stats());
    for (tid, st) in &mut pass.threads {
        st.cpu_s -= before.get(tid).map_or(0.0, |b| b.cpu_s);
    }
    pass.threads.retain(|_, st| st.cpu_s > 0.0);
    pass
}

/// Setup-only samples: `System::new` over every point, summed.
fn setup_sample(pts: &[Point]) -> f64 {
    pts.iter()
        .map(|p| {
            let plan = default_plan(p.cfg.schedule.window);
            let t = Instant::now();
            let sys = System::new(p.cfg.clone(), p.pattern.clone(), p.load, plan);
            let s = t.elapsed().as_secs_f64();
            std::hint::black_box(&sys);
            s
        })
        .sum()
}

/// Fixed work whose host time is the benchmark's yardstick of host speed:
/// a queue fed and drained at random over a 256 KiB table, the branchy,
/// cache-resident kind of work a simulated cycle does. It shares no code
/// with the simulator, so a change to the simulator cannot move it.
///
/// The host this benchmark was written on runs the same work up to 2x
/// slower from one minute to the next, and the simulator and the yardstick
/// slow down largely together. Time metrics are therefore reported at the
/// reference host speed, [`YARDSTICK_REF_S`] per chunk.
struct Yardstick {
    table: Vec<u64>,
}

/// Host seconds of one yardstick chunk at the reference speed (about what
/// [`EndToEnd::speed`] measures on a 2-vCPU Intel Xeon host, so figures
/// there read about as measured).
const YARDSTICK_REF_S: f64 = 0.0038;
const YARDSTICK_ROUNDS: u32 = 600_000;

impl Yardstick {
    fn new() -> Self {
        let table = (0..1u64 << 15)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Yardstick { table }
    }

    /// Runs one chunk (the same work every time); returns its host seconds.
    fn chunk_s(&self) -> f64 {
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let mut queue = std::collections::VecDeque::new();
        let mut x: u64 = 0x1234_5678;
        let mut acc = 0u64;
        for r in 0..YARDSTICK_ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            if self.table[i] & 3 == 0 {
                queue.push_back(x);
            } else if let Some(v) = queue.pop_front() {
                acc ^= v.wrapping_add(self.table[i]);
            }
            if r % 64 == 0 && queue.len() > 1000 {
                queue.clear();
            }
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// Checks passes against the expected per-point digests.
struct Checker {
    expected: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn check(&mut self, label: &str, pass: &Pass) {
        self.attempted += (self.expected.len() as u64).max(pass.outcomes.len() as u64);
        self.attempted += pass.round_trips;
        for e in &pass.errors {
            eprintln!("error in {label} pass: {e}");
        }
        self.failed += pass.errors.len() as u64;
        if pass.outcomes.len() != self.expected.len() {
            // Errored points are already counted; otherwise the pins list
            // another number of points than the workload runs.
            if pass.errors.is_empty() {
                eprintln!(
                    "{label} pass produced {} results, expected {}",
                    pass.outcomes.len(),
                    self.expected.len()
                );
                self.failed += 1;
            }
            return;
        }
        for (i, (o, want)) in pass.outcomes.iter().zip(&self.expected).enumerate() {
            if o.digest() != *want {
                eprintln!(
                    "{label} pass: point {i} differs from the expected result (digest {:016x} != {want:016x}): {o:?}",
                    o.digest()
                );
                self.failed += 1;
            }
        }
    }
}

/// Pinned per-point digests: `(workload@size, seed) -> digests`.
type Pins = BTreeMap<(String, u64), Vec<u64>>;

fn pin_key(name: &str, small: bool) -> String {
    format!("{name}@{}", if small { "small" } else { "full" })
}

fn read_pins(path: &str) -> Result<Pins, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut pins = Pins::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("{path}:{}: malformed pin line", n + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        let [key, seed, point, digest] = f[..] else {
            return Err(bad());
        };
        let seed: u64 = seed.parse().map_err(|_| bad())?;
        let point: usize = point.parse().map_err(|_| bad())?;
        let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
        let v = pins.entry((key.to_string(), seed)).or_default();
        if v.len() != point {
            return Err(bad());
        }
        v.push(digest);
    }
    Ok(pins)
}

/// Prints pin lines for every workload at each seed (sequential,
/// uninterrupted engine).
fn write_pins(first: u64, last: u64, small: bool) -> ExitCode {
    println!("# <workload>@<size> <seed> <point> <FNV-1a-64 of every RunResult field's bits>");
    for seed in first..=last {
        for w in [
            Workload::Paper64Sweep,
            Workload::B32Complement,
            Workload::IncastCheckpoint,
        ] {
            let pass = run_pass(&points(w, small, seed), Engine::Sequential, false, None);
            if !pass.errors.is_empty() {
                eprintln!("{}: {:?}", w.name(), pass.errors);
                return ExitCode::FAILURE;
            }
            for (i, o) in pass.outcomes.iter().enumerate() {
                println!(
                    "{} {seed} {i} {:016x}",
                    pin_key(w.name(), small),
                    o.digest()
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// (Q1, median, Q3) by linear interpolation.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if s.is_empty() {
            return 0.0;
        }
        let x = (s.len() - 1) as f64 * q;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        if s[lo] == s[hi] {
            // Also keeps an infinite latency infinite, not NaN.
            return s[lo];
        }
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// min/max agreement of two counts (1 = identical).
fn agreement(a: u64, b: u64) -> f64 {
    if a == b {
        1.0
    } else {
        a.min(b) as f64 / a.max(b) as f64
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
    perturb_pin: bool,
}

const USAGE: &str =
    "usage: erapid-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--size full|small] [--perturb-pin]\n       \
erapid-perfbench --write-pins <first-seed> <last-seed> [--size full|small]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut small = false;
    let mut perturb_pin = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => {
                small = match value()?.as_str() {
                    "full" => false,
                    "small" => true,
                    _ => return Err("--size takes full or small".into()),
                }
            }
            "--perturb-pin" => perturb_pin = true,
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        small,
        perturb_pin,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-pins") {
        let small = argv.get(3).map(String::as_str) == Some("--size")
            && argv.get(4).map(String::as_str) == Some("small");
        return match (
            argv.get(1).and_then(|s| s.parse().ok()),
            argv.get(2).and_then(|s| s.parse().ok()),
        ) {
            (Some(a), Some(b)) => write_pins(a, b, small),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pins = match read_pins(PINS) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot read pins: {e}");
            return ExitCode::from(2);
        }
    };
    bench(&args, &pins)
}

/// The sum over positions `i` of the fastest `rows[_][i]`.
fn fastest_sum(rows: &[Vec<f64>]) -> f64 {
    let n = rows.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| rows.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// What the untraced timed passes measured.
struct EndToEnd {
    /// Simulated cycles of one pass (the same in every pass).
    cycles: u64,
    /// Host seconds of each pass's timed region.
    pass_s: Vec<f64>,
    /// Host seconds of each segment, per pass.
    seg_s: Vec<Vec<f64>>,
    /// Host seconds of each yardstick chunk, per pass.
    yard_s: Vec<Vec<f64>>,
    setups: Vec<f64>,
}

impl EndToEnd {
    /// Cycles over the sum of each segment's fastest host time across the
    /// passes. Within one run the host ran identical passes anywhere from
    /// 1x to 2x slower; the fastest time of each millisecond-scale slice of
    /// identical work repeats far better from run to run than a median,
    /// and it still moves with the program's own cost.
    fn rate(&self) -> f64 {
        ratio(self.cycles as f64, fastest_sum(&self.seg_s))
    }

    /// Host speed over the reference speed (above 1 on a faster host): the
    /// yardstick chunk timed after each point is taken at its fastest over
    /// the passes, as the segments are, and averaged over the points.
    fn speed(&self) -> f64 {
        let points = self.yard_s.first().map_or(0, Vec::len);
        ratio(YARDSTICK_REF_S * points as f64, fastest_sum(&self.yard_s))
    }

    fn pass_rates(&self) -> Vec<f64> {
        self.pass_s
            .iter()
            .map(|s| ratio(self.cycles as f64, *s))
            .collect()
    }
}

fn bench(args: &Args, pins: &Pins) -> ExitCode {
    let w = args.workload;
    let engine = w.engine();
    let pts = points(w, args.small, args.seed);
    let main_tid = current_tid();

    // Untimed warm-up pass on the reference (sequential, uninterrupted)
    // engine; its results are the fallback expectation for unpinned seeds.
    let reference = run_pass(&pts, Engine::Sequential, false, None);
    let pinned = pins.get(&(pin_key(w.name(), args.small), args.seed));
    let mut expected: Vec<u64> = match pinned {
        Some(d) => d.clone(),
        None => reference.outcomes.iter().map(Outcome::digest).collect(),
    };
    if args.perturb_pin {
        if let Some(d) = expected.first_mut() {
            *d ^= 1;
        }
    }
    let mut checker = Checker {
        expected,
        attempted: 0,
        failed: 0,
    };
    checker.check("reference", &reference);

    // Timed passes until the budget is spent (at least one each). A traced
    // run alternates untraced and traced passes so the tracing overhead is
    // measured under the same conditions.
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut e2e = EndToEnd {
        cycles: reference.cycles,
        pass_s: Vec::new(),
        seg_s: Vec::new(),
        yard_s: Vec::new(),
        setups: Vec::new(),
    };
    let mut untraced_walls = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut shard_walls = Vec::new();
    let mut shard: Option<Pass> = None;
    let mut last_threads;
    let yard = Yardstick::new();
    loop {
        let t = Instant::now();
        let pass = run_pass(&pts, engine, false, Some(&yard));
        checker.check("timed", &pass);
        if pass.outcomes.len() == pts.len() {
            e2e.pass_s.push(pass.run_s);
            e2e.seg_s.push(pass.seg_s.clone());
            e2e.yard_s.push(pass.yard_s.clone());
        }
        e2e.setups.push(pass.setup_s);
        untraced_walls.push(pass.run_s);
        last_threads = pass.threads;
        let slice = Instant::now();
        for _ in 0..MAX_SETUP_PER_PASS {
            e2e.setups.push(setup_sample(&pts));
            if slice.elapsed() >= SETUP_SLICE {
                break;
            }
        }
        if args.trace {
            let mut pass = run_pass(&pts, engine, true, None);
            checker.check("traced", &pass);
            pass.step_ns.shrink_to_fit();
            traced.push(pass);
            if w.sharded() {
                let pass = run_pass(&pts, Engine::Sharded(SHARD_WORKERS), false, None);
                checker.check("2-worker", &pass);
                shard_walls.push(pass.run_s);
                shard = Some(pass);
            }
        }
        let elapsed = t0.elapsed();
        if elapsed + t.elapsed() > budget {
            break;
        }
    }
    let passes = untraced_walls.len();
    while e2e.setups.len() < MIN_SETUP_SAMPLES {
        e2e.setups.push(setup_sample(&pts));
    }

    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if args.trace {
        layer_metrics(
            args,
            &pts,
            engine,
            &mut checker,
            &traced,
            shard.as_ref(),
            &untraced_walls,
            &shard_walls,
            &mut metrics,
        );
    } else {
        let n = reference.outcomes.len().max(1) as f64;
        let mean = |f: fn(&Outcome) -> f64| reference.outcomes.iter().map(f).sum::<f64>() / n;
        let speed = e2e.speed();
        metrics.push(("sim_cycles_per_s", e2e.rate() / speed, "cycles/s"));
        metrics.push(("setup_s", median(&e2e.setups) * speed, "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MiB"));
        metrics.push(("sim_throughput_norm", mean(|o| o.throughput_norm), "N_c"));
        metrics.push(("sim_power_mw", mean(|o| o.power_mw), "mW"));
        // Latency is printed, not gated: the model's p95 overflows its
        // 16k-cycle histogram (+inf) on saturated points, and on the incast
        // point even the mean moves by half from one seed to the next.
        let p95: Vec<f64> = reference.outcomes.iter().map(|o| o.latency_p95).collect();
        let over = p95.iter().filter(|v| v.is_infinite()).count();
        println!(
            "sim_latency_p95_cycles {} cycles (median over points; {over} of {} points beyond the 16k-cycle histogram)",
            median(&p95),
            p95.len()
        );
        println!(
            "sim_latency_cycles {} cycles (mean over points)",
            mean(|o| o.latency)
        );
        let rates = e2e.pass_rates();
        let (q1, med, q3) = quartiles(&rates);
        let each: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        println!("sim_cycles_per_s per pass over {passes} passes: q1 {q1:.0} median {med:.0} q3 {q3:.0} (each: {})", each.join(" "));
        let (q1, med, q3) = quartiles(&e2e.setups);
        println!(
            "setup_s over {} samples: q1 {q1:.6} median {med:.6} q3 {q3:.6}",
            e2e.setups.len()
        );
        println!(
            "host speed {speed:.4} x reference ({} yardstick chunks per pass); \
             sim_cycles_per_s and setup_s below are at reference speed, as measured: {:.0} cycles/s (fastest per {SEGMENT}-cycle segment over {} segments), {:.6} s",
            e2e.yard_s.first().map_or(0, Vec::len),
            e2e.rate(),
            e2e.seg_s.first().map_or(0, Vec::len),
            median(&e2e.setups)
        );
    }

    // Shared run header.
    println!(
        "# workload {} size {} seed {} (sim seed {:#018x}) trace {}",
        w.name(),
        if args.small { "small" } else { "full" },
        args.seed,
        sim_seed(args.seed),
        u8::from(args.trace)
    );
    println!(
        "# pins {}",
        if pinned.is_some() {
            "pinned seed: results compared with pins.txt"
        } else {
            "unpinned seed: results compared with this process's reference run"
        }
    );
    println!(
        "# available_parallelism {}",
        std::thread::available_parallelism().map_or(0, NonZeroUsize::get)
    );
    println!("# cpu_model {}", cpu_model());
    println!(
        "# passes {passes} timed, setup samples {}",
        e2e.setups.len()
    );
    for (tid, st) in &last_threads {
        let role = if Some(*tid) == main_tid {
            "main"
        } else {
            "worker"
        };
        println!(
            "# thread {tid} ({role}) on_cpu_s {:.3} last_cpu {} (last timed pass)",
            st.cpu_s, st.last_cpu
        );
    }

    let failed_frac = ratio(checker.failed as f64, checker.attempted as f64);
    println!(
        "failed_frac {failed_frac} ({} of {} operations)",
        checker.failed, checker.attempted
    );
    for (name, v, unit) in &metrics {
        println!("{name} {v} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted.max(1),
        checker.failed,
        body.join(", ")
    );
    if checker.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Per-layer metrics of a traced run, from the traced pass whose wall time
/// is the median.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    args: &Args,
    pts: &[Point],
    engine: Engine,
    checker: &mut Checker,
    traced: &[Pass],
    shard: Option<&Pass>,
    untraced_walls: &[f64],
    shard_walls: &[f64],
    out: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let mut order: Vec<&Pass> = traced.iter().collect();
    order.sort_by(|a, b| a.run_s.total_cmp(&b.run_s));
    let tp = order[order.len() / 2];
    let t = &tp.timers;
    let (reconfig, inject, route, optical, stats) = (
        t.reconfig.as_secs_f64(),
        t.inject.as_secs_f64(),
        t.route.as_secs_f64(),
        t.optical.as_secs_f64(),
        t.stats.as_secs_f64(),
    );
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.run_s).collect();
    out.push((
        "trace.overhead_frac",
        ratio(median(&traced_walls), median(untraced_walls)) - 1.0,
        "frac",
    ));
    out.push(("system.reconfig_s", reconfig, "s"));
    out.push(("system.inject_s", inject, "s"));
    out.push(("system.route_s", route, "s"));
    out.push(("system.optical_s", optical, "s"));
    out.push(("system.stats_s", stats, "s"));
    out.push((
        "system.route_frac",
        ratio(route, t.total().as_secs_f64()),
        "frac",
    ));
    out.push(("system.step_us_p50", tp.step_us(0.5), "us"));
    out.push(("system.step_us_p99", tp.step_us(0.99), "us"));
    out.push(("system.state_bytes", tp.state_bytes as f64, "bytes"));

    out.push(("router.flits_traversed", tp.flits as f64, "count"));
    out.push(("router.sa_stalls", tp.sa_stalls as f64, "count"));
    out.push(("router.va_stalls", tp.va_stalls as f64, "count"));
    out.push((
        "router.sa_grant_ratio",
        ratio(tp.flits as f64, (tp.flits + tp.sa_stalls) as f64),
        "frac",
    ));
    out.push((
        "router.ns_per_flit",
        ratio(route * 1e9, tp.flits as f64),
        "ns",
    ));

    out.push(("inject.packets", tp.injected as f64, "count"));
    out.push((
        "inject.ns_per_packet",
        ratio(inject * 1e9, tp.injected as f64),
        "ns",
    ));

    out.push(("srs.relocks", tp.relocks as f64, "count"));
    out.push(("srs.tx_wait_cycles", tp.tx_wait_cycles, "cycles"));
    out.push((
        "srs.ns_per_cycle",
        ratio(optical * 1e9, tp.cycles as f64),
        "ns",
    ));

    let sum = |f: fn(&Outcome) -> u64| tp.outcomes.iter().map(f).sum::<u64>() as f64;
    out.push(("reconfig.dbr_grants", sum(|o| o.grants), "count"));
    out.push(("reconfig.dpm_retunes", sum(|o| o.retunes), "count"));
    out.push(("reconfig.ls_retries", sum(|o| o.ls_retries), "count"));
    out.push((
        "reconfig.us_per_window",
        ratio(reconfig * 1e6, tp.windows as f64),
        "us",
    ));

    // Control-plane parity on the incast point: the analytic shortcut
    // against the message-level protocol it stands in for.
    let analytic = incast_point(args.small, incast_seed(args.seed, 0));
    let mut message = analytic.clone();
    message.cfg.control_plane = ControlPlane::MessageLevel;
    let a = run_pass(
        std::slice::from_ref(&analytic),
        Engine::Sequential,
        false,
        None,
    );
    let m = run_pass(
        std::slice::from_ref(&message),
        Engine::Sequential,
        false,
        None,
    );
    let parity = match (a.outcomes.first(), m.outcomes.first()) {
        (Some(a), Some(m)) => {
            println!(
                "plane parity (incast): analytic grants {} retunes {} delivered {}; message-level grants {} retunes {} delivered {}",
                a.grants, a.retunes, a.delivered, m.grants, m.retunes, m.delivered
            );
            (agreement(a.grants, m.grants)
                + agreement(a.retunes, m.retunes)
                + agreement(a.delivered, m.delivered))
                / 3.0
        }
        _ => {
            eprintln!("plane parity run failed: {:?} {:?}", a.errors, m.errors);
            0.0
        }
    };
    out.push(("reconfig.plane_parity", parity, "frac"));

    // Telemetry cost: the workload's points with tracing on against off,
    // both on the sequential engine. Results must not move.
    let mut on = pts.to_vec();
    let mut off = pts.to_vec();
    for p in &mut on {
        p.cfg.trace = TraceConfig::on();
    }
    for p in &mut off {
        p.cfg.trace = TraceConfig::off();
    }
    let p_off = run_pass(&off, Engine::Sequential, false, None);
    checker.check("telemetry off", &p_off);
    let p_on = run_pass(&on, Engine::Sequential, false, None);
    checker.check("telemetry on", &p_on);
    let records = if engine == Engine::Checkpointed {
        tp.records
    } else {
        p_on.records
    };
    out.push(("telemetry.records", records as f64, "count"));
    out.push(("telemetry.dropped", p_on.dropped as f64, "count"));
    out.push((
        "telemetry.overhead_frac",
        ratio(p_on.run_s, p_off.run_s) - 1.0,
        "frac",
    ));

    let ck = tp.encode_s + tp.restore_s;
    out.push(("checkpoint.snapshots", tp.snapshots as f64, "count"));
    out.push((
        "checkpoint.bytes",
        ratio(tp.snap_bytes as f64, tp.snapshots as f64),
        "bytes",
    ));
    out.push(("checkpoint.encode_s", tp.encode_s, "s"));
    out.push(("checkpoint.restore_s", tp.restore_s, "s"));
    out.push((
        "checkpoint.mb_per_s",
        ratio(tp.snap_bytes as f64 / 1e6, ck),
        "MB/s",
    ));
    out.push(("checkpoint.wall_frac", ratio(ck, tp.run_s), "frac"));

    // Threads that ran during the last 2-worker pass (the main thread plus
    // the board workers it spawned), or else the median traced pass.
    let (workers, sp, speedup) = match shard {
        Some(sp) => (
            SHARD_WORKERS.get(),
            sp,
            ratio(median(untraced_walls), median(shard_walls)),
        ),
        None => (1, tp, 1.0),
    };
    let cpu: f64 = sp.threads.values().map(|s| s.cpu_s).sum();
    out.push(("shard.workers", workers as f64, "count"));
    out.push(("shard.worker_cpu_s", cpu / workers as f64, "s"));
    out.push(("shard.concurrency", ratio(cpu, sp.run_s), "frac"));
    out.push(("shard.speedup_vs_seq", speedup, "ratio"));
}
