"""Acceptance gate: one test per advertised guarantee of the package.

Run with ``pytest tests/test_acceptance.py -v`` to get exactly one
pass/fail line per criterion.  Every comparison here is exact — no
tolerances — because all arithmetic is rational or closed-form
exponential.
"""

import importlib
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from oracle import NotParallel, parallel_tensor_classify
from parakenmotsu.connection import koszul_connection
from parakenmotsu.curvature import lie_derivative, ricci, riemann
from parakenmotsu.dsl import load_manifold
from parakenmotsu.geometry import Tensor, contract
from parakenmotsu.report import exit_code
from parakenmotsu.soliton import (
    ConditionKind,
    quasi_einstein_decompose,
    soliton_from_parallel_check,
    solve_soliton,
    symbolic_factor_check,
    theorem_expected,
)
from parakenmotsu.structure import check_axioms, kenmotsu_identity_suite
from parakenmotsu.suite import run_suite

ROOT = Path(__file__).parent.parent
MANIFOLDS = ROOT / "manifolds"
MALFORMED = ROOT / "tests" / "data" / "malformed"
FLAT = ROOT / "tests" / "data" / "failing_flat3.pk"


def _structure(stem):
    return load_manifold(MANIFOLDS / f"{stem}.pk").to_structure()


def _r3_pipeline():
    s = _structure("example_r3")
    conn = koszul_connection(s.frame)
    riem = riemann(conn)
    return s, conn, riem, ricci(riem)


def test_criterion_1_axioms_and_identities_exact_on_both_fixtures():
    start = time.perf_counter()
    for stem in ("example_r3", "example_r5"):
        s = _structure(stem)
        conn = koszul_connection(s.frame)
        witnesses = check_axioms(s) + kenmotsu_identity_suite(s, conn, riemann(conn))
        refs = [f"A{i}" for i in range(1, 11)] + [f"I{i}" for i in range(1, 15)]
        entries = list(zip(refs, witnesses, strict=True))
        assert len(entries) == 24
        bad = [(ref, w) for ref, w in entries if w is not None]
        assert not bad, bad
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"axiom + identity suite took {elapsed:.2f}s"
    print(f"criterion 1: PASS  axioms + identities exact on both fixtures"
          f" in {elapsed:.2f}s")


def test_criterion_2_connection_golden_values_and_conflict_notes():
    s, conn, _, _ = _r3_pipeline()
    golden = {
        (0, 0): {2: Fraction(-1)},   # nabla_{E1} E1 = -E3
        (0, 1): {},                  # nabla_{E1} E2 = 0
        (0, 2): {0: Fraction(1)},    # nabla_{E1} E3 = E1
        (1, 0): {},                  # nabla_{E2} E1 = 0
        (1, 1): {2: Fraction(1)},    # nabla_{E2} E2 = E3
        (1, 2): {1: Fraction(1)},    # nabla_{E2} E3 = E2
        (2, 2): {},                  # nabla_{E3} E3 = 0
        (2, 0): {},                  # nabla_{E3} E1 = 0 (reference table disagrees)
        (2, 1): {},                  # nabla_{E3} E2 = 0 (reference table disagrees)
    }
    chart = s.chart
    for (i, j), components in golden.items():
        for a in range(3):
            expected = chart.const(components.get(a, 0))
            assert (conn.coefficient(i, j, a) - expected).is_zero(), (i, j, a)

    notes = run_suite(load_manifold(MANIFOLDS / "example_r3.pk")).notes
    assert "reference table lists nabla_{E3} E1 = E1; computed value is 0" in notes
    assert "reference table lists nabla_{E3} E2 = E2; computed value is 0" in notes
    print("criterion 2: PASS  connection matches the seven consistent golden"
          " entries; disagreements surfaced as notes")


def test_criterion_3_curvature_golden_values_and_identities():
    s, conn, riem, S = _r3_pipeline()
    chart = s.chart
    d = 3

    def const(q):
        return chart.const(q)

    # riem[a, x, y, z] is the E_{a+1}-component of R(E_{x+1}, E_{y+1}) E_{z+1}
    golden_vectors = {
        (0, 1, 1): {0: 1},    # R(E1,E2)E2 = E1
        (0, 2, 2): {0: -1},   # R(E1,E3)E3 = -E1
        (1, 0, 0): {1: -1},   # R(E2,E1)E1 = -E2
        (1, 2, 2): {1: -1},   # R(E2,E3)E3 = -E2
    }
    for (x, y, z), components in golden_vectors.items():
        for a in range(d):
            expected = const(components.get(a, 0))
            assert (riem[a, x, y, z] - expected).is_zero(), (a, x, y, z)

    assert (S[2, 2] - const(-2)).is_zero()

    eta = [s.eta[i] for i in range(d)]
    xif = s.xi
    g = s.metric()

    # R(X, Y) xi = eta(X) Y - eta(Y) X on every frame pair
    for x in range(d):
        for y in range(d):
            for a in range(d):
                value = sum(
                    (riem[a, x, y, z] * xif[z] for z in range(d)),
                    chart.zero(),
                )
                expected = eta[x] * const(1 if a == y else 0) - eta[y] * const(
                    1 if a == x else 0
                )
                assert (value - expected).is_zero(), ("on-xi", x, y, a)

    # eta(R(X, Y) Z) = g(X, Z) eta(Y) - g(Y, Z) eta(X) on every frame triple
    for x in range(d):
        for y in range(d):
            for z in range(d):
                value = sum(
                    (eta[a] * riem[a, x, y, z] for a in range(d)), chart.zero()
                )
                expected = g[x, z] * eta[y] - g[y, z] * eta[x]
                assert (value - expected).is_zero(), ("eta-of", x, y, z)

    # R(xi, X) Y = eta(Y) X - g(X, Y) xi on every frame pair
    for y in range(d):
        for z in range(d):
            for a in range(d):
                value = sum(
                    (xif[x] * riem[a, x, y, z] for x in range(d)), chart.zero()
                )
                expected = eta[z] * const(1 if a == y else 0) - g[y, z] * xif[a]
                assert (value - expected).is_zero(), ("from-xi", y, z, a)

    # first Bianchi identity on every frame triple
    for x in range(d):
        for y in range(d):
            for z in range(d):
                for a in range(d):
                    cyclic = (
                        riem[a, x, y, z] + riem[a, y, z, x] + riem[a, z, x, y]
                    )
                    assert cyclic.is_zero(), ("bianchi", x, y, z, a)
    print("criterion 3: PASS  curvature golden values, xi-curvature identities,"
          " and first Bianchi identity exact")


def test_criterion_4_soliton_constants_exact_with_flagged_comparison():
    expected = {"example_r3": (1, 1), "example_r5": (3, 1)}
    for stem, (lam, mu) in expected.items():
        s = _structure(stem)
        conn = koszul_connection(s.frame)
        S = ricci(riemann(conn))
        sol = solve_soliton(s, S)
        assert (sol.lam, sol.mu) == (Fraction(lam), Fraction(mu)), stem
        assert sol.lam + sol.mu == 2 * s.n, stem
        a, b = quasi_einstein_decompose(S, s.metric(), s.eta)
        assert (a, b) == (-(sol.lam + 1), -(sol.mu - 1)), stem

    result = run_suite(load_manifold(MANIFOLDS / "example_r3.pk"))
    assert (result.soliton.lam, result.soliton.mu) == ("1", "1")
    assert (
        "reference table lists soliton constants (lambda, mu) = (-1, 3);"
        " computed values are (1, 1)" in result.notes
    )
    print("criterion 4: PASS  soliton constants (1, 1) and (3, 1) exact;"
          " reference pair (-1, 3) flagged, not computed")


def test_criterion_5_factor_polynomials_exact_for_n_1_2_3():
    for n in (1, 2, 3):
        targets = {
            ConditionKind.R_DOT_S: "mu - 1",
            ConditionKind.S_DOT_R: f"{4 * n + 1} - mu",
            ConditionKind.W2_DOT_S: f"(mu - 1)*({2 * n + 1} - mu)",
            ConditionKind.S_DOT_W2: f"mu^2 - {2 * (n + 1)}*mu + {2 * n + 1}",
        }
        for kind, text in targets.items():
            result = symbolic_factor_check(kind, n)
            got = oracle.to_sympy(result.polynomial, ("mu",))
            assert oracle.is_zero(got - oracle.to_sympy(text, ("mu",))), (kind, n)
            # sympy solves the polynomial; the package only records its roots
            roots = oracle.mu_roots(result.polynomial)
            assert roots == result.roots, (kind, n)
            pairs = {(Fraction(2 * n) - mu, mu) for mu in roots}
            assert pairs == theorem_expected(kind, n), (kind, n)
            assert all(mu != 0 for mu in roots), (kind, n)
    print("criterion 5: PASS  all four factor polynomials exact for"
          " n in {1, 2, 3}; advertised pairs are the roots; every mu nonzero")


def test_criterion_6_parallel_tensor_oracle_and_lambda_recovery():
    s, conn, riem, S = _r3_pipeline()
    for c in (Fraction(1), Fraction(5), Fraction(-3, 2)):
        multiple = Tensor.build(s.frame, 0, 2, contract("c g[ij] -> ij", c=c, g=s.metric()))
        assert parallel_tensor_classify(multiple, conn, s) == c

    with pytest.raises(NotParallel) as info:
        parallel_tensor_classify(s.eta_square(), conn, s)
    assert str(info.value) == "nabla along E1 at [E1, E3]: 1"

    sol = solve_soliton(s, S)
    alpha = contract(
        "lg[ij] + 2 S[ij] + c eta[i] eta[j] -> ij",
        lg=lie_derivative(s.xi, s.metric()), S=S, c=2 * sol.mu, eta=s.eta,
    )
    recovered = -contract("a[ij] xi[i] xi[j] ->", a=alpha, xi=s.xi).as_rational() / 2
    assert recovered == sol.lam
    assert soliton_from_parallel_check(s, conn, S, sol) is None
    print("criterion 6: PASS  parallel multiples classified exactly;"
          " eta x eta rejected with witness; recovered lambda matches solver")


def test_criterion_7_property_suites_run_at_least_100_cases():
    required = {
        "scalar ring laws": ("test_scalar", "test_ring_laws"),
        "scalar derivation rules": ("test_scalar", "test_derivation_rules"),
        "scalar canonical form": ("test_scalar", "test_canonical_form_is_stable"),
        "bracket Jacobi identity": ("test_geometry", "test_jacobi_identity"),
        "torsion-free + metric connection": (
            "test_connection",
            "test_koszul_connection_is_torsion_free_and_metric",
        ),
        "Riemann and Ricci symmetries": (
            "test_curvature",
            "test_riemann_and_ricci_invariants_hold",
        ),
    }
    counts = {}
    for label, (module_name, fn_name) in required.items():
        module = importlib.import_module(module_name)
        fn = getattr(module, fn_name)
        settings = fn._hypothesis_internal_use_settings
        counts[label] = settings.max_examples
        assert settings.max_examples >= 100, (label, settings.max_examples)
    print("criterion 7: PASS  randomized property suites configured for"
          f" >= 100 cases each: {counts}")


def test_criterion_8_cli_determinism_exit_codes_and_positioned_errors():
    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "parakenmotsu.cli", *map(str, args)],
            capture_output=True,
            cwd=ROOT,
        )

    args = ("check", MANIFOLDS / "example_r3.pk", "--format", "json-like")
    first, second = run_cli(*args), run_cli(*args)
    assert first.stdout == second.stdout and first.stdout
    assert first.returncode == second.returncode == 0

    assert run_cli("check", MANIFOLDS / "example_r5.pk").returncode == 0
    assert run_cli("check", FLAT).returncode == 1
    assert run_cli("check", "missing.pk").returncode == 2

    positioned = [
        "even_coords.pk",
        "unknown_symbol.pk",
        "missing_equals.pk",
        "unknown_member.pk",
        "bad_gram_entry.pk",
        "duplicate_section.pk",
    ]
    assert len(positioned) >= 5
    for name in positioned:
        proc = run_cli("check", MALFORMED / name)
        assert proc.returncode == 2, name
        message = proc.stderr.decode("utf-8")
        assert re.match(r"^error: \d+:\d+: ", message), (name, message)
    print("criterion 8: PASS  CLI byte-deterministic; exit codes 0/1/2 honored;"
          f" {len(positioned)} malformed documents give positioned errors")
