import json

import pytest

from parakenmotsu.report import (
    CheckReport,
    SolitonSummary,
    SuiteResult,
    emit_report,
    exit_code,
    report_from_failures,
    witness_at,
)


def _result() -> SuiteResult:
    checks = (
        CheckReport.passed("axioms/phi-square", "A1"),
        CheckReport.failed("identities/xi-curvature", "I1", "[E1, E1]: -1"),
        CheckReport.skipped("soliton/constants", "L1"),
    )
    return SuiteResult(
        manifold="demo",
        dimension=3,
        n=1,
        checks=checks,
        notes=("reference table disagrees here",),
        soliton=SolitonSummary("1", "1", "Einstein"),
    )


def test_text_format_contents():
    out = emit_report(_result(), "text").decode("utf-8")
    assert out.startswith("manifold demo  (dimension 3, n = 1)\n")
    assert "  pass  axioms/phi-square" in out
    assert "  FAIL  identities/xi-curvature" in out
    assert "witness: [E1, E1]: -1" in out
    assert "  skip  soliton/constants" in out
    assert "  - reference table disagrees here" in out
    assert "soliton: lambda = 1, mu = 1  (Einstein)" in out
    assert out.endswith("summary: 1 pass, 1 fail, 1 skipped\n")


def test_structured_format_contents():
    doc = json.loads(emit_report(_result(), "json-like"))
    assert doc["manifold"] == "demo"
    assert doc["dimension"] == 3
    assert doc["n"] == 1
    assert [c["status"] for c in doc["checks"]] == ["pass", "fail", "skipped"]
    assert doc["checks"][0]["paper_ref"] == "A1"
    assert doc["checks"][1]["witness"] == "[E1, E1]: -1"
    assert "witness" not in doc["checks"][0]
    assert doc["notes"] == ["reference table disagrees here"]
    assert doc["soliton"] == {
        "lambda": "1",
        "mu": "1",
        "classification": "Einstein",
    }


def test_empty_suite_serializes():
    empty = SuiteResult("void", 3, 1, ())
    out = emit_report(empty, "text").decode("utf-8")
    assert "summary: 0 pass, 0 fail, 0 skipped" in out
    doc = json.loads(emit_report(empty, "json-like"))
    assert doc["checks"] == [] and doc["soliton"] is None


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(_result(), "yaml")


def test_exit_code_and_any_failed():
    ok = (CheckReport.passed("a", "A1"), CheckReport.skipped("b", "A2"))
    assert exit_code(ok) == 0
    bad = ok + (CheckReport.failed("c", "A3", "w"),)
    assert exit_code(bad) == 1


def test_status_validation():
    with pytest.raises(ValueError):
        CheckReport("x", "maybe", "A1")


def test_witness_at_formats_frame_indices():
    assert witness_at((0, 2), "-1") == "[E1, E3]: -1"


def test_report_from_failures_picks_first_witness():
    report = report_from_failures("t", "A1", [((1, 1), "2"), ((0, 0), "3")])
    assert report.status == "fail"
    assert report.witness == "[E2, E2]: 2"
    assert report_from_failures("t", "A1", []).status == "pass"


