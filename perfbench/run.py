#!/usr/bin/env python3
"""E-RAPID host-speed benchmark.

Builds the `erapid-perfbench` binary from source (cargo, release profile,
into `$CARGO_TARGET_DIR`, default `.bench_build` at the repository root)
and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones. The
exit code is 0 only when every simulated result matched its pin (or, for an
unpinned seed, the same process's reference run).

Other modes:

    --workload all            every workload, each in its own process, and a
                              table of the end-to-end metrics with failed_frac
    --repeat N                steadiness report: N runs per workload on seeds
                              seed..seed+N-1, with median, quartiles and
                              spread (IQR / median) of each end-to-end metric
                              against a third of its bound

Extra arguments (`--size small`, `--perturb-pin`) are passed to the binary
unchanged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper64_sweep", "b32_complement", "incast_checkpoint"]
# One run may take at most 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def binary():
    return os.path.join(target_dir(), "release", "erapid-perfbench")


def build():
    """Builds the benchmark binary; returns True on success."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"cannot run cargo: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def header():
    """Run header lines: source revision and compiler."""
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True)
    return [f"# git_sha {sha}", f"# rustc {rustc.stdout.strip() or 'unknown'}"]


def run_one(workload, seed, seconds, trace, extra=()):
    """Runs the binary once; returns (exit code, stdout lines, result or None)."""
    cmd = [binary(), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return 1, out.splitlines(), None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, lines, result


def failed_frac(result):
    return result["failed"] / max(result["attempted"], 1)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(args, extra):
    worst = 0
    for w in WORKLOADS:
        code, lines, result = run_one(w, args.seed, args.seconds, args.trace, extra)
        if result is None:
            print(f"{w}: no result (exit {code})")
            worst = worst or code or 1
            continue
        worst = worst or code
        print(f"{w}: failed_frac {failed_frac(result)} ({result['failed']} of {result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"  {name} {m['value']} {m['unit']}")
        # Printed, not reported as metrics: see the binary's comments.
        for line in lines:
            if line.startswith("sim_latency"):
                print(f"  {line}")
    return worst


def steadiness(args, extra):
    """N runs per workload on consecutive seeds; spread of each metric."""
    spec = bench_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    summary = {}
    for w in workloads:
        values = {}
        for i in range(args.repeat):
            code, _, result = run_one(w, args.seed + i, args.seconds, args.trace, extra)
            if code != 0 or result is None:
                print(f"{w} seed {args.seed + i}: run failed (exit {code})")
                worst = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        summary[w] = {}
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = f"  <-- spread at or above a third of bound {bound}"
            print(f"  {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}{flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    print(json.dumps(summary))
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--repeat", type=int, default=0)
    args, extra = p.parse_known_args()
    if not build():
        print("build failed", file=sys.stderr)
        return 2
    for line in header():
        print(line, flush=True)
    if args.repeat > 0:
        return steadiness(args, extra)
    if args.workload == "all":
        return run_all(args, extra)
    code, lines, _ = run_one(args.workload, args.seed, args.seconds, args.trace, extra)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
