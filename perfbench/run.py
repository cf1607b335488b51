"""Benchmark of the parakenmotsu command line.

    python3 perfbench/run.py --workload warped|rotated|commands \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client drives the CLI in a
closed loop, one invocation at a time, each in a fresh interpreter, as a
user would.  Every invocation's output is checked against the closed
forms in `oracle.py` and against the bytes of the first pass at the same
seed.  With `--trace 0` the timed passes give the end-to-end metrics;
with `--trace 1` untraced passes alternate with traced ones (see
`traced.py`) and the per-layer metrics are reported.  Times are wall
times scaled by a speed probe that runs beside each child on the one CPU
the run pins itself to (see Runner).  The last line of stdout is one
JSON object; progress and failures go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import docs
from oracle import KINDS, Expect, verify

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60.0  # per invocation; the slowest (check at n = 3) takes ~5 s
SETUP_REPEATS = 9
COMMAND_KINDS = ("check", "select", "solve", "condition", "factors")
PROBE_REF_S = 0.005  # reference time of speed_probe(), see Runner
PROBE_EXPONENT = 1.1
PROBE_GAP_S = 0.03


@dataclass(frozen=True)
class Invocation:
    kind: str  # which of COMMAND_KINDS its time is summed into
    argv: tuple[str, ...]
    expect: Expect


@dataclass(frozen=True)
class Outcome:
    code: int | None  # None when the time limit killed it
    out: bytes
    err: bytes
    wall: float  # seconds
    seconds: float  # wall seconds scaled to the reference speed, see Runner


# -- workloads -------------------------------------------------------------


def _write(workdir: Path, stem: str, text: str) -> tuple[str, str]:
    path = workdir / f"{stem}.pk"
    path.write_text(text, encoding="utf-8")
    return str(path), text.split("\n", 1)[0].split()[1]


def build_workload(workload: str, rng: random.Random, workdir: Path) -> list[Invocation]:
    """The seeded invocations of one pass.

    Every workload runs each command at least once, so that every
    end-to-end metric exists on every workload; the documents and the
    bulk of each pass are what set the workloads apart.
    """
    inv: list[Invocation] = []

    def add(kind, argv, what, n=0, name="", arg=None):
        inv.append(Invocation(kind, tuple(argv), Expect(what, n, name, arg)))

    if workload == "warped":
        # Single-term scalars; the dense d^5 condition residuals dominate.
        w2, w2_name = _write(workdir, "warped2", docs.warped(2, rng))
        w3, w3_name = _write(workdir, "warped3", docs.warped(3, rng))
        add("check", ["check", w2], "check", 2, w2_name)
        add("check", ["check", w3], "check", 3, w3_name)
        add("select", ["check", w2, "--select", "axioms"], "select", 2, w2_name, ("axioms",))
        add("solve", ["solve", w3], "solve", 3, w3_name)
        add("condition", ["condition", w2, "--kind", "S.W2"], "condition", 2, w2_name, "S.W2")
        add("factors", ["factors", "--n", "3"], "factors", 3)
    elif workload == "rotated":
        # Same structure as warped at n = 2, but multi-term scalars that
        # must cancel through the connection, curvature and identities.
        r1, r1_name = _write(workdir, "rotated_a", docs.rotated(rng))
        r2, r2_name = _write(workdir, "rotated_b", docs.rotated(rng))
        add("check", ["check", r1], "check", 2, r1_name)
        add("check", ["check", r2], "check", 2, r2_name)
        sel = ("connection", "curvature")
        add("select", ["check", r2, "--select", ",".join(sel)], "select", 2, r2_name, sel)
        add("solve", ["solve", r1], "solve", 2, r1_name)
        add("condition", ["condition", r2, "--kind", "R.S"], "condition", 2, r2_name, "R.S")
        add("factors", ["factors", "--n", "2"], "factors", 2)
    elif workload == "commands":
        # Start-up and the paths specific to each command dominate.
        c1, c1_name = _write(workdir, "small1", docs.warped(1, rng))
        c2, c2_name = _write(workdir, "small2", docs.warped(2, rng))
        flat, _ = _write(workdir, "flat2", docs.warped(2, rng, warp=False))
        bad_text, bad_line = docs.malformed(rng)
        bad, _ = _write(workdir, "malformed", bad_text)
        add("select", ["check", c2, "--select", "axioms"], "select", 2, c2_name, ("axioms",))
        sel = ("connection", "curvature")
        add("select", ["check", c1, "--select", ",".join(sel)], "select", 1, c1_name, sel)
        add("solve", ["solve", c1], "solve", 1, c1_name)
        add("solve", ["solve", c2], "solve", 2, c2_name)
        for kind in KINDS:
            add("condition", ["condition", c2, "--kind", kind], "condition", 2, c2_name, kind)
        for n in (1, 2, 3):
            add("factors", ["factors", "--n", str(n)], "factors", n)
        add("check", ["check", flat], "flat", 2)
        add("check", ["check", bad], "malformed", arg=bad_line)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inv


# -- running -----------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed hashing, so set iteration and hence operation counts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def speed_probe() -> float:
    """CPU time of this thread for a fixed pure-Python computation of the
    kind the program does: Fraction arithmetic, tuple keys, dict updates
    and sorts."""
    start = time.thread_time()
    acc: dict = {}
    for i in range(1, 700):
        key = (i % 17, (i * 7) % 5)
        q = Fraction(i % 23 + 1, i % 19 + 2)
        acc[key] = acc.get(key, Fraction(0)) + q * q
        if i % 50 == 0:
            sorted(acc.items())
    return time.thread_time() - start


class Runner:
    """Runs `python <args>` in a fresh interpreter and times it.

    On a shared machine the same code runs up to twice as slow from one
    second to the next, which would swamp any change to the program.  So
    while the child runs, a thread of this process runs `speed_probe()`
    every PROBE_GAP_S on the same CPU (the benchmark pins itself to one
    CPU, and children inherit it), and the child's wall time is scaled by
    (PROBE_REF_S / mean probe time) ** PROBE_EXPONENT: the result is in
    seconds at the speed where the probe takes PROBE_REF_S.  The program
    slows a little more than the probe when the machine is busy; on a
    2-core shared machine, re-scaling the passes of 30 runs with 1.1
    instead of 1 cut the run-to-run spread 1.6 to 2.2 times on every
    workload.  The probe shares no code with the program, so a change to
    the program moves the scaled time as much as the wall time.
    """

    def __init__(self, workdir: Path):
        self.env = child_env()
        self.out_path = workdir / "child.out"
        self.err_path = workdir / "child.err"

    def __call__(self, args: list[str]) -> Outcome:
        probes: list[float] = []
        done = threading.Event()

        def probe():
            probes.append(speed_probe())
            while not done.wait(PROBE_GAP_S):
                probes.append(speed_probe())

        prober = threading.Thread(target=probe)
        killed = threading.Event()
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            prober.start()
            try:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, *args], cwd=ROOT, env=self.env, stdout=out, stderr=err
                )

                def kill():
                    killed.set()
                    proc.kill()

                timer = threading.Timer(TIMEOUT_S, kill)
                timer.start()
                try:
                    code = proc.wait()
                finally:
                    timer.cancel()
                    if proc.poll() is None:  # interrupted while waiting
                        proc.kill()
                        proc.wait()
                wall = time.perf_counter() - start
            finally:
                done.set()
                prober.join()
        scaled = wall * (PROBE_REF_S / statistics.mean(probes)) ** PROBE_EXPONENT
        return Outcome(
            None if killed.is_set() else code,
            self.out_path.read_bytes(),
            self.err_path.read_bytes(),
            wall,
            scaled,
        )


def judge(inv: Invocation, outcome: Outcome, reference: bytes | None) -> str | None:
    """Why the invocation failed, or None.

    Fails on a time-out, on any answer other than the closed form, and on
    stdout bytes that differ from the first pass at the same seed.
    """
    if outcome.code is None:
        return f"exceeded {TIMEOUT_S:g} s"
    reason = verify(inv.expect, outcome.code, outcome.out, outcome.err)
    if reason is None and reference is not None and outcome.out != reference:
        reason = "stdout differs from the first pass at this seed"
    return reason


class Tally:
    """Attempted and failed invocations, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, inv: Invocation, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{' '.join(inv.argv)}: {reason}")


def run_pass(invs, runner, tally, references, tracer=None):
    """One pass over the workload: the scaled seconds of each invocation,
    the wall seconds of the pass, and the traces (with `tracer`)."""
    times, traces = [], []
    wall = 0.0
    for i, inv in enumerate(invs):
        if tracer is None:
            outcome = runner(["-m", "parakenmotsu.cli", *inv.argv])
        else:
            outcome, trace = tracer(inv)
            trace["scale"] = outcome.seconds / outcome.wall
            traces.append(trace)
        times.append(outcome.seconds)
        wall += outcome.wall
        reason = judge(inv, outcome, references.get(i))
        tally.record(inv, reason)
        if reason is None:
            references.setdefault(i, outcome.out)
    return times, wall, traces


def median_sum(passes: list[list[float]], keep=lambda i: True) -> float:
    """Sum over invocations of each one's median over the passes."""
    return sum(statistics.median(col) for i, col in enumerate(zip(*passes)) if keep(i))


def measure_setup(runner) -> tuple[list[float], list[float]]:
    """Scaled start-up of a fresh interpreter with and without the CLI."""
    imports, bare = [], []
    first = runner(["-c", "import parakenmotsu.cli"])  # writes bytecode
    if first.code != 0:
        raise SystemExit(f"cannot import the program: {first.err.decode(errors='replace')}")
    for _ in range(SETUP_REPEATS):
        imports.append(runner(["-c", "import parakenmotsu.cli"]).seconds)
        bare.append(runner(["-c", "pass"]).seconds)
    return imports, bare


# -- per-layer metrics from spans and counts ---------------------------------

LAYER_SPANS = {
    "cli.self_s": ("cli.cmd_check", "cli.cmd_solve", "cli.cmd_condition", "cli.cmd_factors"),
    "dsl.parse_s": ("dsl.parse_manifold",),
    "dsl.structure_s": ("dsl.build_structure",),
    "connection.koszul_s": ("connection.koszul_connection",),
    "curvature.riemann_s": ("curvature.riemann",),
    "curvature.ricci_s": ("curvature.ricci",),
    "curvature.w2_s": ("curvature.w2_tensor",),
    "structure.axioms_s": ("structure.check_axioms",),
    "structure.para_kenmotsu_s": ("structure.check_para_kenmotsu",),
    "structure.identities_s": ("structure.kenmotsu_identity_suite",),
    "soliton.solve_s": ("soliton.solve_soliton",),
    "soliton.split_s": ("soliton.quasi_einstein_decompose",),
    "soliton.condition_s": (
        "soliton.condition_check",
        "soliton.condition_residual",
        "soliton.condition_residual_xi_paired",
    ),
    "soliton.factors_s": ("soliton.symbolic_factor_check", "soliton.phi_ricci_prefactor"),
    "soliton.parallel_s": ("soliton.soliton_from_parallel_check", "soliton.mu_zero_variant_check"),
    "soliton.phi_ricci_s": ("soliton.phi_ricci_symmetric_check",),
    "suite.self_s": ("suite.run_suite", "suite.stage:*"),
    "report.emit_s": ("report.emit_report",),
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


_SPAN_LAYER = {span: layer for layer, spans in LAYER_SPANS.items() for span in spans}


def span_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer times of one traced pass, summed over its invocations."""
    out = dict.fromkeys(LAYER_SPANS, 0.0)
    out.update({"suite.run_s": 0.0, "soliton.residual_builds": 0})
    wasted = 0.0
    for trace in traces:
        spans, scale = trace["spans"], trace["scale"]
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            stage = name.startswith("suite.stage:")
            out[_SPAN_LAYER["suite.stage:*" if stage else name]] += own * scale
            if name == "suite.run_suite":
                out["suite.run_s"] += (end - start) * scale
            elif name == "soliton.condition_residual":
                out["soliton.residual_builds"] += 1
            elif stage and name.split(":", 1)[1] in trace["wasted_stages"]:
                wasted += (end - start) * scale
    run = out["suite.run_s"]
    out["suite.useful_ratio"] = 1.0 - wasted / run if run else 1.0
    return out


def count_metrics(traces: list[dict]) -> dict[str, float]:
    total = defaultdict(int)
    for trace in traces:
        for key, value in trace["counts"].items():
            total[key] += value
    calls = total["normalize_calls"]
    built = total["components_built"]
    return {
        "scalar.normalize_calls": calls,
        "scalar.mul_calls": total["mul_calls"],
        "scalar.add_calls": total["add_calls"],
        "scalar.diff_calls": total["diff_calls"],
        "scalar.terms_out": total["terms_out"],
        "scalar.zero_ratio": total["zero_results"] / calls if calls else 0.0,
        "geometry.components_built": built,
        "geometry.nonzero_ratio": total["components_nonzero"] / built if built else 0.0,
        "geometry.getitem_calls": total["getitem_calls"],
    }


def make_tracer(mode: str, runner: Runner, workdir: Path, seed: int):
    """Runs an invocation under traced.py and loads the trace it writes."""
    counter = itertools.count()
    script = str(Path(__file__).with_name("traced.py"))

    def tracer(inv: Invocation):
        trace_id = f"{seed}-{mode}-{next(counter)}"
        path = workdir / f"trace-{trace_id}.json"
        outcome = runner([script, mode, str(path), trace_id, "--", *inv.argv])
        trace = {"spans": [], "wasted_stages": [], "counts": {}}
        if path.exists():
            trace = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
        return outcome, trace

    return tracer


# -- main --------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, workdir: Path) -> dict:
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    runner = Runner(workdir)
    imports, bare = measure_setup(runner)
    invs = build_workload(args.workload, random.Random(args.seed), workdir)
    tally, references = Tally(), {}
    deadline = time.perf_counter() + args.seconds
    plain_passes, span_passes, span_layers = [], [], []

    def timed_pass(tracer=None):
        start = time.perf_counter()
        times, wall, traces = run_pass(invs, runner, tally, references, tracer)
        print(
            f"{'traced' if tracer else 'timed'} pass: {sum(times):.3f} s scaled,"
            f" {wall:.3f} s wall",
            file=sys.stderr,
        )
        return time.perf_counter() - start, times, traces

    # closed loop: start another pass (or cycle) only if it should end
    # before the deadline; there is always at least one
    if not args.trace:
        while True:
            elapsed, times, _ = timed_pass()
            plain_passes.append(times)
            if time.perf_counter() + elapsed > deadline:
                break
        metrics = {
            "setup_s": metric(statistics.median(imports), "s"),
            "total_s": metric(median_sum(plain_passes), "s"),
        }
        for kind in COMMAND_KINDS:
            value = median_sum(plain_passes, lambda i: invs[i].kind == kind)
            metrics[f"{kind}_s"] = metric(value, "s")
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics["peak_rss_mb"] = metric(peak_kb / 1024, "MB")
    else:
        spans_tracer = make_tracer("spans", runner, workdir, args.seed)
        while True:
            plain_elapsed, times, _ = timed_pass()
            plain_passes.append(times)
            span_elapsed, times, traces = timed_pass(spans_tracer)
            span_passes.append(times)
            span_layers.append(span_metrics(traces))
            if time.perf_counter() + plain_elapsed + span_elapsed > deadline:
                break
        counts_tracer = make_tracer("counts", runner, workdir, args.seed)
        _, count_times, traces = timed_pass(counts_tracer)
        plain = median_sum(plain_passes)
        metrics = {
            "cli.import_s": metric(statistics.median(imports) - statistics.median(bare), "s")
        }
        for key in span_layers[0]:
            unit = "s" if key.endswith("_s") else ("count" if key.endswith("builds") else "ratio")
            metrics[key] = metric(statistics.median(p[key] for p in span_layers), unit)
        for key, value in count_metrics(traces).items():
            metrics[key] = metric(value, "ratio" if key.endswith("ratio") else "count")
        metrics["trace.overhead_s"] = metric(median_sum(span_passes) - plain, "s")
        metrics["trace.count_overhead_s"] = metric(sum(count_times) - plain, "s")

    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("warped", "rotated", "commands"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "parakenmotsu" / "cli.py").is_file():
        print(f"error: no parakenmotsu sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
