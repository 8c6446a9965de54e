//! Checkpoint/restore and streaming-export contract tests.
//!
//! The contract under test (DESIGN.md §13): a run that is killed mid-way
//! and resumed from its newest checkpoint produces **byte-identical**
//! artifacts — streamed JSONL trace, `.erpd` delivery log, and final
//! metrics to the bit — to the same run uninterrupted, in all four
//! network modes.
//! And corruption of a snapshot (truncation, bit flips, version or config
//! mismatch) is always *detected*, falling back to the previous good
//! checkpoint rather than panicking or restoring garbage.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::desim::rng::Pcg32;
use erapid_suite::erapid_core::checkpoint::{
    self, config_fingerprint, decode_snapshot, encode_snapshot, latest_valid, resume_latest,
    Checkpointer,
};
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::stream::{
    read_deliveries, run_streaming, StreamCursor, StreamPaths, StreamSink,
};
use erapid_suite::erapid_core::system::System;
use erapid_suite::erapid_telemetry::TraceConfig;
use erapid_suite::traffic::pattern::TrafficPattern;
use std::path::{Path, PathBuf};

const WINDOW: u64 = 2000;

fn cfg(mode: NetworkMode) -> SystemConfig {
    let mut c = SystemConfig::small(mode);
    c.trace = TraceConfig::on();
    c.packet_log = true;
    c
}

/// 2 warm-up windows, 8 measured, capped at 14 — several checkpoints and
/// DBR rounds within a fast test run.
fn full_plan() -> PhasePlan {
    PhasePlan::new(2 * WINDOW, 8 * WINDOW).with_max_cycles(14 * WINDOW)
}

fn build(mode: NetworkMode, plan: PhasePlan) -> System {
    System::new(cfg(mode), TrafficPattern::Complement, 0.5, plan)
}

fn tdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("erapid-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create test dir");
    d
}

fn paths(dir: &Path) -> StreamPaths {
    StreamPaths {
        trace: Some(dir.join("trace.jsonl")),
        deliveries: Some(dir.join("deliv.erpd")),
    }
}

/// Everything observable about a streamed run, exact.
#[derive(PartialEq, Debug)]
struct Artifacts {
    trace: Vec<u8>,
    deliv: Vec<u8>,
    injected: u64,
    delivered: u64,
    throughput_bits: u64,
    latency_bits: u64,
    power_bits: u64,
    cycles: u64,
}

fn artifacts(sys: &System, end: u64, p: &StreamPaths) -> Artifacts {
    let m = sys.metrics();
    Artifacts {
        trace: std::fs::read(p.trace.as_deref().expect("path")).expect("read trace"),
        deliv: std::fs::read(p.deliveries.as_deref().expect("path")).expect("read deliv"),
        injected: m.injected_total,
        delivered: m.delivered_total,
        throughput_bits: m.throughput_ppc().to_bits(),
        latency_bits: m.mean_latency().to_bits(),
        power_bits: m.average_power_mw().to_bits(),
        cycles: end,
    }
}

/// The uninterrupted reference run.
fn run_full(mode: NetworkMode, dir: &Path) -> Artifacts {
    let p = paths(dir);
    let mut sys = build(mode, full_plan());
    let mut sink = StreamSink::create(&p).expect("create sink");
    let end = run_streaming(&mut sys, &mut sink, None).expect("stream run");
    sink.finalize().expect("finalize");
    artifacts(&sys, end, &p)
}

/// The crash leg: run with checkpoints until `kill_at`, drop everything
/// unfinalized (the on-disk state a SIGKILL leaves: checkpoints at
/// cadence plus un-checkpointed stream tail). Returns the checkpoint dir.
fn run_killed(mode: NetworkMode, dir: &Path, kill_at: u64, every_windows: u64) -> PathBuf {
    let p = paths(dir);
    let ckpt_dir = dir.join("ckpt");
    let mut sys = build(mode, full_plan().with_max_cycles(kill_at));
    let mut sink = StreamSink::create(&p).expect("create sink");
    let mut ck = Checkpointer::new(&ckpt_dir, every_windows, WINDOW).expect("checkpointer");
    run_streaming(&mut sys, &mut sink, Some(&mut ck)).expect("killed leg");
    assert!(ck.written_count() > 0, "kill_at must lie past a checkpoint");
    // No finalize, no trailer: the crash.
    ckpt_dir
}

/// The resume leg: fresh identical system, newest valid checkpoint, files
/// truncated to its cursor, run to the end.
fn run_resumed(mode: NetworkMode, dir: &Path, every_windows: u64) -> Artifacts {
    let p = paths(dir);
    let ckpt_dir = dir.join("ckpt");
    let mut sys = build(mode, full_plan());
    let (_, cursor) = resume_latest(&mut sys, &ckpt_dir).expect("no checkpoint to resume");
    assert!(sys.now() > 0, "restore must land mid-run");
    let mut sink = StreamSink::resume(&p, cursor).expect("reopen sink");
    let mut ck = Checkpointer::new(&ckpt_dir, every_windows, WINDOW).expect("checkpointer");
    let end = run_streaming(&mut sys, &mut sink, Some(&mut ck)).expect("resume leg");
    sink.finalize().expect("finalize");
    artifacts(&sys, end, &p)
}

fn kill_resume_equals_full(mode: NetworkMode, kill_at: u64, tag: &str) {
    let full_dir = tdir(&format!("{tag}-full"));
    let crash_dir = tdir(&format!("{tag}-crash"));
    let full = run_full(mode, &full_dir);
    run_killed(mode, &crash_dir, kill_at, 1);
    let resumed = run_resumed(mode, &crash_dir, 1);
    assert_eq!(
        full, resumed,
        "killed+resumed run diverged ({mode:?}, kill at {kill_at})"
    );
    // The streamed delivery log itself must verify and decode.
    let back = read_deliveries(paths(&full_dir).deliveries.as_deref().expect("path"))
        .expect("delivery log verifies");
    assert_eq!(back.len() as u64, full.delivered);
    let _ = std::fs::remove_dir_all(full_dir);
    let _ = std::fs::remove_dir_all(crash_dir);
}

/// The golden pin of the tentpole contract: kill mid-window at 60 % of
/// the horizon, resume, byte-identical.
#[test]
fn golden_kill_resume_byte_identical_sequential() {
    kill_resume_equals_full(NetworkMode::PB, 8 * WINDOW + 777, "gold-seq");
}

/// The kill/resume contract holds with the scenario engine driving
/// injection: its per-node RNG streams ride the snapshot, so a resumed
/// run's stream continues exactly where the killed run stopped — every
/// scenario.
#[test]
fn scenario_kill_resume_byte_identical() {
    use erapid_suite::erapid_workloads::ScenarioSpec;
    let scen_cfg = |spec: &ScenarioSpec| {
        let mut c = cfg(NetworkMode::PB);
        c.scenario = Some(spec.clone());
        c
    };
    for spec in ScenarioSpec::paper_suite().iter() {
        let build = || System::new(scen_cfg(spec), TrafficPattern::Uniform, 0.5, full_plan());

        // Uninterrupted reference.
        let full_dir = tdir(&format!("scen-{}-full", spec.name()));
        let p = paths(&full_dir);
        let mut sys = build();
        let mut sink = StreamSink::create(&p).expect("create sink");
        let end = run_streaming(&mut sys, &mut sink, None).expect("full leg");
        sink.finalize().expect("finalize");
        let full = artifacts(&sys, end, &p);

        // Crash leg: checkpoints at every window, killed mid-window.
        let crash_dir = tdir(&format!("scen-{}-crash", spec.name()));
        let pc = paths(&crash_dir);
        let ckpt_dir = crash_dir.join("ckpt");
        let mut sys = System::new(
            scen_cfg(spec),
            TrafficPattern::Uniform,
            0.5,
            full_plan().with_max_cycles(8 * WINDOW + 777),
        );
        let mut sink = StreamSink::create(&pc).expect("create sink");
        let mut ck = Checkpointer::new(&ckpt_dir, 1, WINDOW).expect("checkpointer");
        run_streaming(&mut sys, &mut sink, Some(&mut ck)).expect("killed leg");
        assert!(ck.written_count() > 0, "kill must lie past a checkpoint");

        // Resume leg: fresh system, newest checkpoint, run to the end.
        let mut sys = build();
        let (_, cursor) = resume_latest(&mut sys, &ckpt_dir).expect("no checkpoint to resume");
        assert!(sys.now() > 0, "restore must land mid-run");
        let mut sink = StreamSink::resume(&pc, cursor).expect("reopen sink");
        let mut ck = Checkpointer::new(&ckpt_dir, 1, WINDOW).expect("checkpointer");
        let end = run_streaming(&mut sys, &mut sink, Some(&mut ck)).expect("resume leg");
        sink.finalize().expect("finalize");
        let resumed = artifacts(&sys, end, &pc);

        assert_eq!(
            full,
            resumed,
            "[{}] killed+resumed scenario run diverged",
            spec.name()
        );
        let _ = std::fs::remove_dir_all(full_dir);
        let _ = std::fs::remove_dir_all(crash_dir);
    }
}

/// The kill/resume contract holds with the online threshold controller
/// live on a scenario workload: the controller's milli-unit thresholds and
/// counters ride the snapshot (tag `TUNC`), and the restore retargets the
/// DBR buffer watches to the restored `B_max`, so a resumed run adapts
/// exactly like the uninterrupted one.
#[test]
fn controller_kill_resume_byte_identical() {
    use erapid_suite::erapid_tune::ControllerSpec;
    use erapid_suite::erapid_workloads::ScenarioSpec;
    let tuned_cfg = || {
        let mut c = cfg(NetworkMode::PB);
        c.scenario = Some(ScenarioSpec::incast());
        c.tune = Some(ControllerSpec::paper_pb());
        c
    };
    let build = || System::new(tuned_cfg(), TrafficPattern::Uniform, 0.5, full_plan());

    // Uninterrupted reference.
    let full_dir = tdir("tune-full");
    let p = paths(&full_dir);
    let mut sys = build();
    let mut sink = StreamSink::create(&p).expect("create sink");
    let end = run_streaming(&mut sys, &mut sink, None).expect("full leg");
    sink.finalize().expect("finalize");
    let full = artifacts(&sys, end, &p);
    let full_ctrl = sys.controller().expect("controller is on").clone();
    assert!(
        full_ctrl.windows_seen() > 0,
        "controller must observe windows in the reference run"
    );

    // Crash leg: checkpoints every window, killed mid-window.
    let crash_dir = tdir("tune-crash");
    let pc = paths(&crash_dir);
    let ckpt_dir = crash_dir.join("ckpt");
    let mut sys = System::new(
        tuned_cfg(),
        TrafficPattern::Uniform,
        0.5,
        full_plan().with_max_cycles(8 * WINDOW + 777),
    );
    let mut sink = StreamSink::create(&pc).expect("create sink");
    let mut ck = Checkpointer::new(&ckpt_dir, 1, WINDOW).expect("checkpointer");
    run_streaming(&mut sys, &mut sink, Some(&mut ck)).expect("killed leg");
    assert!(ck.written_count() > 0, "kill must lie past a checkpoint");

    // Resume leg.
    let mut sys = build();
    let (_, cursor) = resume_latest(&mut sys, &ckpt_dir).expect("no checkpoint to resume");
    assert!(sys.now() > 0, "restore must land mid-run");
    let mut sink = StreamSink::resume(&pc, cursor).expect("reopen sink");
    let mut ck = Checkpointer::new(&ckpt_dir, 1, WINDOW).expect("checkpointer");
    let end = run_streaming(&mut sys, &mut sink, Some(&mut ck)).expect("resume leg");
    sink.finalize().expect("finalize");
    let resumed = artifacts(&sys, end, &pc);

    assert_eq!(full, resumed, "killed+resumed controller run diverged");
    assert_eq!(
        sys.controller().expect("controller is on"),
        &full_ctrl,
        "resumed controller state diverged"
    );
    let _ = std::fs::remove_dir_all(full_dir);
    let _ = std::fs::remove_dir_all(crash_dir);
}

/// Kill at two seeded-random cycles in every mode: resume equivalence is
/// not a property of one lucky cycle.
#[test]
fn kill_at_random_window_all_modes() {
    let mut rng = Pcg32::new(0x0C0FFEE5, 7);
    for mode in [
        NetworkMode::NpNb,
        NetworkMode::PNb,
        NetworkMode::NpB,
        NetworkMode::PB,
    ] {
        for leg in 0..2 {
            // Past the first checkpoint (window 1), inside the horizon.
            let kill_at = WINDOW + 500 + rng.below((9 * WINDOW) as u32) as u64;
            kill_resume_equals_full(mode, kill_at, &format!("rand-{mode:?}-{leg}"));
        }
    }
}

/// Snapshot corruption property: truncating or bit-flipping the newest
/// snapshot at a random offset is always detected, and the fallback chain
/// serves the previous good checkpoint instead.
#[test]
fn corrupt_snapshot_always_detected_with_fallback() {
    let dir = tdir("corrupt");
    let ckpt_dir = run_killed(NetworkMode::PB, &dir, 9 * WINDOW + 50, 2);
    let config = cfg(NetworkMode::PB);
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
        .expect("list")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ersp"))
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "need a fallback candidate");
    let newest = snaps.last().expect("newest").clone();
    let older = snaps[snaps.len() - 2].clone();
    let pristine = std::fs::read(&newest).expect("read newest");

    let mut rng = Pcg32::new(0xBADC_0DE5, 3);
    for trial in 0..40 {
        let mut bytes = pristine.clone();
        if rng.bernoulli(0.5) {
            bytes.truncate(rng.below(bytes.len() as u32) as usize);
        } else {
            let at = rng.below(bytes.len() as u32) as usize;
            bytes[at] ^= 1 << rng.below(8);
        }
        std::fs::write(&newest, &bytes).expect("write corrupted");
        let fp = config_fingerprint(&config);
        assert!(
            decode_snapshot(&bytes, fp).is_err(),
            "trial {trial}: corruption not detected"
        );
        let (valid, _) = latest_valid(&ckpt_dir, &config)
            .unwrap_or_else(|| panic!("trial {trial}: fallback chain came up empty"));
        assert_eq!(
            valid, older,
            "trial {trial}: fallback picked wrong snapshot"
        );
    }

    // End-to-end through the fallback: with the newest snapshot corrupt,
    // the resume (from the *older* checkpoint) still reproduces the
    // uninterrupted run byte-for-byte.
    let full_dir = tdir("corrupt-full");
    let full = run_full(NetworkMode::PB, &full_dir);
    let resumed = run_resumed(NetworkMode::PB, &dir, 2);
    assert_eq!(full, resumed);

    // Every snapshot corrupt (including any the resume leg just wrote)
    // -> clean None, not a panic.
    for e in std::fs::read_dir(&ckpt_dir).expect("list") {
        let p = e.expect("entry").path();
        if p.extension().is_some_and(|x| x == "ersp") {
            std::fs::write(p, b"ERSPgarbage").expect("trash snapshot");
        }
    }
    assert!(latest_valid(&ckpt_dir, &config).is_none());
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(full_dir);
}

/// Version and config-fingerprint mismatches are typed errors.
#[test]
fn version_and_config_mismatch_rejected() {
    use erapid_suite::desim::snap::SnapError;
    let sys = build(NetworkMode::PB, full_plan());
    let bytes = encode_snapshot(&sys, StreamCursor::start()).expect("encode");
    let fp = config_fingerprint(sys.config());

    // Pristine decodes.
    assert!(decode_snapshot(&bytes, fp).is_ok());

    // Wrong config fingerprint (e.g. a different mode's system).
    let other = config_fingerprint(&cfg(NetworkMode::NpNb));
    assert!(matches!(
        decode_snapshot(&bytes, other),
        Err(SnapError::Mismatch(_))
    ));

    // Future version: patch the version field and re-seal the checksum so
    // only the version check can object.
    let mut v2 = bytes.clone();
    v2[4] = 0xFF;
    let body_len = v2.len() - 8;
    let sum = erapid_suite::desim::snap::fnv1a(&v2[..body_len]);
    v2[body_len..].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        decode_snapshot(&v2, fp),
        Err(SnapError::Version(0xFF))
    ));

    // Truncation below the checksum is Format, inside is Checksum.
    assert!(decode_snapshot(&bytes[..4], fp).is_err());
    assert!(matches!(
        decode_snapshot(&bytes[..bytes.len() - 1], fp),
        Err(SnapError::Checksum { .. })
    ));
}

/// A restored system overlaid onto a *differently-shaped* fresh system is
/// refused with a typed mismatch, not a panic: the board-count geometry
/// check fires before any state is trusted.
#[test]
fn restore_into_wrong_geometry_is_refused() {
    let src = build(NetworkMode::PB, full_plan());
    let bytes = encode_snapshot(&src, StreamCursor::start()).expect("encode");
    let mut wrong = System::new(
        {
            let mut c = cfg(NetworkMode::PB);
            c.boards = 8;
            c.timing.boards = 8;
            c
        },
        TrafficPattern::Complement,
        0.5,
        full_plan(),
    );
    assert!(checkpoint::restore_system(&mut wrong, &bytes).is_err());
}
