"""Tests of the benchmark itself: python -m pytest perfbench/test_bench.py"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import docs
import run
from oracle import Expect, verify


def _outcome(text: str, code: int = 0) -> run.Outcome:
    return run.Outcome(code, text.encode(), b"", 0.01, 0.01)


def test_generators_are_seeded():
    for make in (lambda r: docs.warped(3, r), docs.rotated, docs.malformed):
        assert make(random.Random(7)) == make(random.Random(7))
    assert docs.rotated(random.Random(1)) != docs.rotated(random.Random(2))


def test_corrupted_output_is_counted_as_failed():
    solve = run.Invocation("solve", ("solve", "doc.pk"), Expect("solve", 2, "m"))
    good = "manifold m  (dimension 5, n = 2)\nlambda = 3\nmu = 1\nclassification = Einstein\n"
    answers = {
        "good": _outcome(good),
        "wrong lambda": _outcome(good.replace("lambda = 3", "lambda = -1")),
        "wrong exit": _outcome(good, code=1),
        "time-out": run.Outcome(None, b"", b"", 60.0, 60.0),
    }
    references: dict[int, bytes] = {}
    for label, outcome in answers.items():
        tally = run.Tally()
        run.run_pass([solve], None, tally, references, lambda inv: (outcome, {}))
        assert (tally.attempted, tally.failed) == (1, label != "good"), label

    # right answer, but other bytes than the first pass at this seed
    drifted = _outcome(good.replace("manifold m ", "manifold m"))
    assert run.judge(solve, drifted, references[0]) is not None


def test_oracle_rejects_a_wrong_condition_verdict():
    e = Expect("condition", 1, "m", "S.R")
    text = (
        "condition S.R  (manifold m, n = 1)\nresidual zero: no\n"
        "soliton constants: lambda = 1, mu = 1\n"
        "advertised constants: (-3, 5)\nconsistent: yes\n"
    )
    assert verify(e, 0, text.encode(), b"") is None
    flipped = text.replace("zero: no", "zero: yes")
    assert verify(e, 0, flipped.encode(), b"") is not None


def _traced(mode: str, doc: Path, out: Path) -> dict:
    script = Path(run.__file__).with_name("traced.py")
    proc = subprocess.run(
        [sys.executable, str(script), mode, str(out), "t", "--", "check", str(doc)],
        cwd=run.ROOT,
        env=run.child_env(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(b"summary: 46 pass, 0 fail, 0 skipped\n")
    return json.loads(out.read_text())


def test_traced_counts_repeat_exactly(tmp_path):
    doc = tmp_path / "w.pk"
    doc.write_text(docs.warped(1, random.Random(3)))
    first = _traced("counts", doc, tmp_path / "a.json")["counts"]
    second = _traced("counts", doc, tmp_path / "b.json")["counts"]
    assert first == second
    assert first["normalize_calls"] > 0 and first["components_built"] > 0


def test_spans_cover_every_layer(tmp_path):
    doc = tmp_path / "w.pk"
    doc.write_text(docs.warped(1, random.Random(3)))
    trace = _traced("spans", doc, tmp_path / "s.json")
    names = {span[0] for span in trace["spans"]}
    wanted = {name for group in run.LAYER_SPANS.values() for name in group}
    wanted -= {"suite.stage:*", "cli.cmd_solve", "cli.cmd_condition", "cli.cmd_factors"}
    assert wanted <= names
    metrics = run.span_metrics([dict(trace, scale=1.0)])
    assert metrics["soliton.residual_builds"] == 6
    assert metrics["suite.useful_ratio"] == 1.0
    # self times partition the root span
    root = next(s for s in trace["spans"] if s[3] == -1)
    assert abs(sum(run.self_times(trace["spans"])) - (root[2] - root[1])) < 1e-6


def test_runner_kills_an_invocation_past_the_time_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TIMEOUT_S", 0.5)
    outcome = run.Runner(tmp_path)(["-c", "import time; time.sleep(30)"])
    assert outcome.code is None
    assert outcome.wall < 10 and outcome.seconds > 0
