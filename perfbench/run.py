#!/usr/bin/env python3
"""procsim's benchmark: runs one workload and prints its result.

    python3 perfbench/run.py --workload <farm|debug|monitor|timetravel> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds `perfbench/` (a package of its
own) with `cargo build --release`, into `$CARGO_TARGET_DIR` or else
`.bench_build/`, then runs the workload: the closed loop of the same name
in `perfbench/src`, in a process of its own, for `--seconds` in ROUNDS
segments with SETUPS more timed set-ups before each.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer
ones, which come from spans the loop records around its calls into the
program, and the tracing overhead against an untraced copy of the loop
taking the same turns. Every workload reports the same end-to-end
metrics, about its own unit of work, its op (OPS). A run whose outputs
fail a check reports no metrics and exits with 1. The line before it
records provenance: profile, host cores, seed, run length, source
revision, and every figure the loop measured under its own name.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Each workload's op, as the loop's own name for its p90 latency: a
# chunk of 1M guest instructions, a breakpoint fielding, a remote ps
# pass, a goto_tick jump.
OPS = {
    "farm": "chunk_p90_us",
    "debug": "bp_p90_us",
    "monitor": "ps_pass_p90_us",
    "timetravel": "goto_p90_us",
}
ROUNDS = 10
# Set-ups timed before each segment; the median of all is reported.
SETUPS = 5


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the phase program; returns its path, or exits on failure."""
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = ["cargo", "build", "--release", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Compiler output goes to stderr so the result stays the last line.
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed ({r.returncode})")
    return os.path.join(target, "release", "perfbench")


class Phase:
    """One loop process: set up on start, then driven one segment at a
    time over a line protocol on its standard input and output."""

    def __init__(self, exe, loop, seed, trace, spans):
        self.loop = loop
        cmd = [exe, "--loop", loop, "--seed", str(seed), "--trace", "1" if trace else "0"]
        if spans:
            cmd += ["--spans", spans]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     cwd=ROOT, text=True, bufsize=1)
        self.result = None
        self._expect("ready")

    def _expect(self, word):
        line = self.proc.stdout.readline().strip()
        if line.startswith("{"):
            self.result = json.loads(line)
        elif line != word:
            raise RuntimeError(f"{self.loop}: expected {word!r}, got {line!r}")

    def run(self, seconds, left):
        """One segment of `seconds`; `left` counts it and those to come."""
        if self.result is None:
            self.proc.stdin.write(f"run {seconds!r} {left}\n")
            self._expect("ok")

    def setup_again(self):
        if self.result is None:
            self.proc.stdin.write("setup\n")
            self._expect("ok")

    def end(self):
        if self.result is None:
            self.proc.stdin.write("end\n")
            self._expect("")
        self.proc.stdin.close()
        if self.proc.wait() not in (0, 1) or self.result is None:
            raise RuntimeError(f"{self.loop}: exited with {self.proc.returncode}")
        return self.result

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_workload(exe, workload, seed, seconds, trace, out_dir):
    """Sets the workload's loop up, then runs it for `seconds` in ROUNDS
    segments, timing SETUPS more set-ups before each, so that the
    reported set-up time is a median over the whole run. A traced run adds an
    untraced process of the same loop, taking the same turns, as the
    baseline for the tracing overhead. Returns each process's result:
    the loop first, the baseline last."""
    specs = [(trace, os.path.join(out_dir, f"spans-{workload}-{seed}.tsv") if trace else None)]
    if trace:
        specs.append((False, None))
    phases = []
    try:
        for traced, spans in specs:
            phases.append(Phase(exe, workload, seed, traced, spans))
        for r in range(ROUNDS):
            for ph in phases:
                for _ in range(SETUPS):
                    ph.setup_again()
                ph.run(seconds / ROUNDS, ROUNDS - r)
        return [ph.end() for ph in phases]
    finally:
        for ph in phases:
            ph.kill()


def revision():
    """The git revision, or in a tree without git a digest of the sources
    the benchmark builds."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            if not os.path.relpath(d, ROOT).startswith(("perfbench/out", "perfbench/target"))
            for f in fs)
        for f in files:
            if f.endswith((".rs", ".toml", ".lock", ".py", ".md")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    spec = benchmark_json()
    exe = build()
    trace = a.trace == 1
    out_dir = os.path.join(HERE, "out")
    phases = run_workload(exe, a.workload, a.seed, a.seconds, trace, out_dir)
    primary = phases[0]

    errors = [f"{ph['loop']}: {e}" for ph in phases for e in ph["errors"]]
    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    metrics = {}
    if trace:
        base = phases.pop()
        overhead = 100.0 * (base["headline"] - primary["headline"]) / base["headline"]
        for m in spec["per_layer"]:
            name = m["name"]
            v = overhead if name == "trace.overhead_pct" else primary["layer"].get(name)
            # A layer this workload does not reach reads 0.
            metrics[name] = {"value": v if v is not None else 0.0, "unit": m["unit"]}
    else:
        measured = {
            "setup_s": primary["setup_s"],
            "peak_rss_mb": primary["peak_rss_mb"],
            "op_p90_us": primary["e2e"].get(OPS[a.workload]),
        }
        for m in spec["end_to_end"]:
            v = measured.get(m["name"])
            if v is None:
                errors.append(f"{a.workload} did not measure {m['name']}")
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    provenance = {
        "profile": "release",
        "host_cores": os.cpu_count(),
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "revision": revision(),
        "vanished": primary["vanished"],
        "measured": primary["e2e"],
    }
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
