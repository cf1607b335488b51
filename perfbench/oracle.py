"""Expected answers from the paper's closed forms, never from the package.

For the para-Kenmotsu structures the benchmark generates, the paper gives
S = -2n g, so the eta-Ricci soliton has lambda = 2n - 1 and mu = 1 and is
Einstein.  With lambda + mu = 2n the four curvature conditions reduce to
polynomials in mu whose roots are
    R.S: {1},  S.R: {4n + 1},  W2.S and S.W2: {1, 2n + 1},
so at mu = 1 the condition residual vanishes for every kind but S.R.
The check catalog has 46 checks in these groups (tags A1-A10, C1, K1,
I1-I14, C2-C5, L1-L2 with T1-T2, D1-D4, F1-F5, P1-P3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

GROUP_SIZES = {
    "axioms": 10,
    "connection": 1,
    "para-kenmotsu": 1,
    "identities": 14,
    "curvature": 4,
    "soliton": 4,
    "condition": 4,
    "factors": 5,
    "phi-ricci": 3,
}
TOTAL_CHECKS = sum(GROUP_SIZES.values())  # 46
KINDS = ("R.S", "S.R", "W2.S", "S.W2")


def mu_roots(kind: str, n: int) -> list[Fraction]:
    if kind == "R.S":
        return [Fraction(1)]
    if kind == "S.R":
        return [Fraction(4 * n + 1)]
    return [Fraction(1), Fraction(2 * n + 1)]


def pairs(kind: str, n: int) -> list[tuple[Fraction, Fraction]]:
    """(lambda, mu) pairs of a condition: lambda = 2n - mu at each root."""
    return sorted((2 * n - mu, mu) for mu in mu_roots(kind, n))


def _pair_text(kind: str, n: int) -> str:
    return ", ".join(f"({a}, {b})" for a, b in pairs(kind, n))


@dataclass(frozen=True)
class Expect:
    """What one invocation must print and return.

    `what` is one of check, select, solve, condition, factors, flat,
    malformed; `arg` is the selection, the condition kind or the
    malformed line, as `what` needs.
    """

    what: str
    n: int = 0
    name: str = ""
    arg: object = None


def verify(e: Expect, code: int, out: bytes, err: bytes) -> str | None:
    """None when the output is the closed-form answer, else the reason."""
    try:
        text = out.decode("utf-8")
        errtext = err.decode("utf-8")
    except UnicodeDecodeError:
        return "output is not UTF-8"
    lines = text.splitlines()
    n, lam = e.n, 2 * e.n - 1
    header = f"manifold {e.name}  (dimension {2 * n + 1}, n = {n})"

    if e.what == "check":
        want = [
            f"soliton: lambda = {lam}, mu = 1  (Einstein)",
            f"summary: {TOTAL_CHECKS} pass, 0 fail, 0 skipped",
        ]
        return _expect(code, 0, lines[:1] + lines[-2:], [header] + want)
    if e.what == "select":
        passed = sum(GROUP_SIZES[g] for g in e.arg)
        summary = f"summary: {passed} pass, 0 fail, {TOTAL_CHECKS - passed} skipped"
        return _expect(code, 0, lines[:1] + lines[-1:], [header, summary])
    if e.what == "solve":
        want = [header, f"lambda = {lam}", "mu = 1", "classification = Einstein"]
        return _expect(code, 0, lines, want)
    if e.what == "condition":
        kind = e.arg
        want = [
            f"condition {kind}  (manifold {e.name}, n = {n})",
            f"residual zero: {'no' if kind == 'S.R' else 'yes'}",
            f"soliton constants: lambda = {lam}, mu = 1",
            f"advertised constants: {_pair_text(kind, n)}",
            "consistent: yes",
        ]
        return _expect(code, 0, lines, want)
    if e.what == "factors":
        return _factors(code, lines, n)
    if e.what == "flat":
        if code != 1:
            return f"exit {code}, expected 1"
        if not any(re.match(r"  FAIL  para-kenmotsu/covariant-phi\s+\[K1\]", l) for l in lines):
            return "para-kenmotsu/covariant-phi is not reported as FAIL"
        return None
    if e.what == "malformed":
        if code != 2:
            return f"exit {code}, expected 2"
        if out:
            return "a rejected document printed a report"
        if not re.match(rf"error: {e.arg}:\d+: ", errtext):
            return f"stderr lacks the position {e.arg}:<col>: {errtext.strip()!r}"
        return None
    raise ValueError(f"unknown expectation {e.what!r}")


def _expect(code: int, want_code: int, got: list[str], want: list[str]) -> str | None:
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if got != want:
        return f"got {got!r}, expected {want!r}"
    return None


_FACTOR_LINE = re.compile(
    r"  (\S+)\s+polynomial .*  mu roots (.*)  pairs (.*)$"
)


def _factors(code: int, lines: list[str], n: int) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    if not lines or lines[0] != f"factor analysis at n = {n}  (dimension {2 * n + 1})":
        return f"bad factor header {lines[:1]!r}"
    seen = {}
    for line in lines[1:]:
        m = _FACTOR_LINE.match(line)
        if m:
            seen[m.group(1)] = (m.group(2), m.group(3))
    for kind in KINDS:
        want = (", ".join(str(r) for r in mu_roots(kind, n)), _pair_text(kind, n))
        if seen.get(kind) != want:
            return f"{kind}: got {seen.get(kind)!r}, expected {want!r}"
    if not lines[-1].startswith("  phi-Ricci prefactor: polynomial "):
        return "missing phi-Ricci prefactor line"
    return None
