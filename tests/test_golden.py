"""Golden CLI outputs: exact stdout bytes and exit codes.

Each case runs `parakenmotsu.cli.main` in process and compares against
tests/data/golden/<case>.out and the exit code in exit_codes.json.  To
record the goldens again after an intended change of output, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from parakenmotsu import cli

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
DOCS = {
    "example_r3": "manifolds/example_r3.pk",
    "example_r5": "manifolds/example_r5.pk",
    "failing_flat3": "tests/data/failing_flat3.pk",
}
SELECTIONS = (None, "axioms", "connection,curvature", "identities/eta-closed", "factors")
FORMATS = ("text", "json-like")
KINDS = ("R.S", "S.R", "W2.S", "S.W2")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for fmt in FORMATS:
        for stem, path in DOCS.items():
            for sel in SELECTIONS:
                argv = ["check", str(ROOT / path), "--format", fmt]
                if sel is not None:
                    argv += ["--select", sel]
                tag = (sel or "all").replace("/", "~").replace(",", "+")
                cases[f"check-{stem}-{tag}-{fmt}"] = argv
        for stem in ("example_r3", "example_r5"):
            path = str(ROOT / DOCS[stem])
            cases[f"solve-{stem}-{fmt}"] = ["solve", path, "--format", fmt]
            for kind in KINDS:
                argv = ["condition", path, "--kind", kind, "--format", fmt]
                cases[f"condition-{stem}-{kind}-{fmt}"] = argv
        for n in (1, 2):
            cases[f"factors-{n}-{fmt}"] = ["factors", "--n", str(n), "--format", fmt]
    return cases


CASES = _cases()


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one in-process CLI invocation."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
        out.flush()
    return code, buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, stdout = run(CASES[case])
    assert stdout == (GOLDEN / f"{case}.out").read_bytes()
    assert code == codes[case]


def test_selected_r3_report_keeps_the_reference_notes():
    text = (GOLDEN / "check-example_r3-axioms-text.out").read_text()
    notes = [line for line in text.splitlines() if line.startswith("  - ")]
    assert len(notes) == 7


def _record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], stdout = run(argv)
        (GOLDEN / f"{case}.out").write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


if __name__ == "__main__":
    _record()
