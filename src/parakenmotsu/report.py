"""Check reports and deterministic text / structured serialization.

Serialized bytes must be identical across runs on identical input.
"""

from __future__ import annotations

from typing import Iterable


class CheckReport:
    def __init__(
        self,
        name: str,
        status: str,  # "pass" | "fail" | "skipped"
        ref: str,  # catalog tag, e.g. "A4"; see README for the tag table
        witness: str | None = None,
    ):
        if status not in ("pass", "fail", "skipped"):
            raise ValueError(f"unknown check status {status!r}")
        self.name = name
        self.status = status
        self.ref = ref
        self.witness = witness

    @staticmethod
    def passed(name: str, ref: str) -> "CheckReport":
        return CheckReport(name, "pass", ref)

    @staticmethod
    def failed(name: str, ref: str, witness: str) -> "CheckReport":
        return CheckReport(name, "fail", ref, witness)

    @staticmethod
    def skipped(name: str, ref: str) -> "CheckReport":
        return CheckReport(name, "skipped", ref)


def witness_at(idx: tuple[int, ...], expr) -> str:
    """Witness text locating a residual at a frame-index tuple."""
    place = ", ".join(f"E{i + 1}" for i in idx)
    return f"[{place}]: {expr}"


def report_from_failures(name: str, ref: str, failures: list) -> CheckReport:
    """Pass unless failures is nonempty; first failure becomes the witness."""
    if failures:
        idx, expr = failures[0]
        return CheckReport.failed(name, ref, witness_at(idx, expr))
    return CheckReport.passed(name, ref)


class SolitonSummary:
    def __init__(self, lam: str, mu: str, classification: str):
        self.lam = lam
        self.mu = mu
        self.classification = classification


class SuiteResult:
    def __init__(
        self,
        manifold: str,
        dimension: int,
        n: int,
        checks: tuple[CheckReport, ...],
        notes: tuple[str, ...] = (),
        soliton: SolitonSummary | None = None,
    ):
        self.manifold = manifold
        self.dimension = dimension
        self.n = n
        self.checks = checks
        self.notes = notes
        self.soliton = soliton


def exit_code(checks: Iterable[CheckReport]) -> int:
    return 1 if any(c.status == "fail" for c in checks) else 0


def emit_report(result: SuiteResult, format: str) -> bytes:
    if format == "text":
        return emit_text(result)
    if format == "json-like":
        return emit_structured(result)
    raise ValueError(f"unknown report format {format!r}")


def emit_text(result: SuiteResult) -> bytes:
    lines = [
        f"manifold {result.manifold}  (dimension {result.dimension}, n = {result.n})"
    ]
    width = max((len(c.name) for c in result.checks), default=0)
    tags = {"pass": "pass", "fail": "FAIL", "skipped": "skip"}
    for c in result.checks:
        line = f"  {tags[c.status]}  {c.name.ljust(width)}  [{c.ref}]"
        if c.witness is not None:
            line += f"  witness: {c.witness}"
        lines.append(line)
    if result.notes:
        lines.append("notes:")
        for note in result.notes:
            lines.append(f"  - {note}")
    if result.soliton is not None:
        s = result.soliton
        lines.append(
            f"soliton: lambda = {s.lam}, mu = {s.mu}  ({s.classification})"
        )
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for c in result.checks:
        counts[c.status] += 1
    lines.append(
        f"summary: {counts['pass']} pass, {counts['fail']} fail,"
        f" {counts['skipped']} skipped"
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_structured(result: SuiteResult) -> bytes:
    checks = []
    for c in result.checks:
        entry: dict = {"name": c.name, "status": c.status, "paper_ref": c.ref}
        if c.witness is not None:
            entry["witness"] = c.witness
        checks.append(entry)
    soliton = None
    if result.soliton is not None:
        soliton = {
            "lambda": result.soliton.lam,
            "mu": result.soliton.mu,
            "classification": result.soliton.classification,
        }
    doc = {
        "manifold": result.manifold,
        "dimension": result.dimension,
        "n": result.n,
        "checks": checks,
        "notes": list(result.notes),
        "soliton": soliton,
    }
    return json_bytes(doc)


def json_bytes(payload) -> bytes:
    """The bytes of every json-like output: `payload` indented by 2, newline."""
    import json  # only json-like output needs it; keeps it off the start-up path

    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
