"""How often check, solve and condition build each derived product.

Calls are counted by rebinding a function's module-level names in every
module that imported it, so the count sees each caller.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

from parakenmotsu import (
    cli,
    connection,
    curvature,
    dsl,
    geometry,
    products,
    soliton,
    structure,
    suite,
)
from parakenmotsu.dsl import load_manifold
from parakenmotsu.fixtures import build_warped
from parakenmotsu.scalar import ScalarExpr

ROOT = Path(__file__).parent.parent
MODULES = (cli, connection, curvature, products, soliton, structure, suite)


def _count(monkeypatch, module, name, counts: Counter, where=lambda *args: True):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        if where(*args):
            counts[name] += 1
        return original(*args, **kwargs)

    for mod in MODULES:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


def test_full_suite_builds_each_residual_and_the_riemann_tensor_once(monkeypatch):
    s = build_warped(2)
    counts = Counter()
    _count(monkeypatch, soliton, "condition_residual", counts)
    _count(
        monkeypatch, curvature, "riemann", counts, lambda conn, *_: conn.frame is s.frame
    )
    result = suite.run_suite(s)
    assert all(c.status == "pass" for c in result.checks)
    assert counts == {"condition_residual": 4, "riemann": 1}


def test_condition_command_builds_its_residual_once(monkeypatch, capsys):
    counts = Counter()
    _count(monkeypatch, soliton, "condition_residual", counts)
    doc = str(ROOT / "manifolds" / "example_r3.pk")
    assert cli.main(["condition", doc, "--kind", "S.W2"]) == 0
    assert "consistent: yes" in capsys.readouterr().out
    assert counts["condition_residual"] == 1


def test_a_selected_condition_builds_only_its_residual(monkeypatch, capsys):
    counts = Counter()
    _count(monkeypatch, soliton, "condition_residual", counts)
    doc = str(ROOT / "manifolds" / "example_r5.pk")
    assert cli.main(["check", doc, "--select", "condition/S.R"]) == 0
    assert "  pass  condition/S.R" in capsys.readouterr().out
    assert counts["condition_residual"] == 1
    assert cli.main(["check", doc, "--select", "soliton/constants"]) == 0
    assert "  pass  soliton/constants" in capsys.readouterr().out
    assert counts["condition_residual"] == 1


def test_axioms_selection_builds_no_connection(monkeypatch):
    counts = Counter()
    _count(monkeypatch, connection, "koszul_connection", counts)
    result = suite.run_suite(build_warped(2), selection={"axioms"})
    statuses = {c.name: c.status for c in result.checks}
    assert statuses["axioms/phi-square"] == "pass"
    assert statuses["connection/koszul"] == "skipped"
    assert counts["koszul_connection"] == 0


def test_factors_selection_extracts_only_the_selected_factor(monkeypatch, capsys):
    soliton._generic.cache_clear()
    soliton._generic_w2.cache_clear()
    counts = Counter()
    _count(monkeypatch, soliton, "symbolic_factor_check", counts)
    _count(monkeypatch, curvature, "w2_tensor", counts)
    doc = str(ROOT / "manifolds" / "example_r3.pk")
    assert cli.main(["check", doc, "--select", "factors/R.S"]) == 0
    out = capsys.readouterr().out
    assert "  pass  factors/R.S" in out
    assert "  skip  factors/W2.S" in out
    assert counts == {"symbolic_factor_check": 1}


def test_factor_extraction_builds_the_generic_w2_once(monkeypatch):
    soliton._generic.cache_clear()
    soliton._generic_w2.cache_clear()
    counts = Counter()
    _count(monkeypatch, curvature, "w2_tensor", counts)
    soliton.symbolic_factor_check(soliton.ConditionKind.R_DOT_S, 1)
    soliton.phi_ricci_prefactor(1)
    assert counts["w2_tensor"] == 0
    soliton.symbolic_factor_check(soliton.ConditionKind.W2_DOT_S, 1)
    soliton.symbolic_factor_check(soliton.ConditionKind.S_DOT_W2, 1)
    assert counts["w2_tensor"] == 1


def test_full_check_builds_the_lie_derivative_of_the_metric_once(monkeypatch, capsys):
    counts = Counter()
    _count(
        monkeypatch,
        curvature,
        "lie_derivative",
        counts,
        lambda x, t: t is t.frame.metric_tensor,
    )
    doc = str(ROOT / "manifolds" / "example_r5.pk")
    assert cli.main(["check", doc]) == 0
    assert "summary: 46 pass, 0 fail, 0 skipped" in capsys.readouterr().out
    assert counts["lie_derivative"] == 1


def test_a_full_check_builds_each_frame_table_once(monkeypatch, capsys):
    # the document's frame and the generic warped frame of the factor
    # checks each invert their members and take their derivatives once
    soliton._generic.cache_clear()
    soliton._generic_w2.cache_clear()
    frames, inverses, brackets = [], Counter(), Counter()
    mat_inverse, derivatives = geometry.mat_inverse, geometry.derivatives

    def inverse(m):
        frame = sys._getframe(1).f_locals["self"]  # the Frame inverting its members
        frames.append(frame)
        inverses[id(frame)] += 1
        return mat_inverse(m)

    def derived(frame, comps):
        if comps is frame.members:
            frames.append(frame)
            brackets[id(frame)] += 1
        return derivatives(frame, comps)

    monkeypatch.setattr(geometry, "mat_inverse", inverse)
    monkeypatch.setattr(geometry, "derivatives", derived)
    doc = str(ROOT / "manifolds" / "example_r5.pk")
    assert cli.main(["check", doc]) == 0
    assert "summary: 46 pass, 0 fail, 0 skipped" in capsys.readouterr().out
    assert len(set(map(id, frames))) == 2
    assert inverses == brackets == dict.fromkeys(map(id, frames), 1)


@pytest.mark.parametrize("stem, most", [("rotated5", 25), ("dense9", 600)])
def test_frame_inverse_normalizes_few_entries(monkeypatch, stem, most):
    # each eliminated entry p a - f b is normalized once before its exact
    # division, which takes one normalize per quotient term; an entry 0
    # over a zero stays 0, and the unit scaling at the end divides term by
    # term: neither normalizes (57 and 3,507 calls when each was normalized)
    frame = load_manifold(ROOT / "tests" / "data" / f"{stem}.pk").to_structure().frame
    transposed = geometry.contract("m[ka] -> ak", m=frame.members)
    calls = []
    normalize = ScalarExpr.normalize

    def counted(symbols, terms):
        calls.append(symbols)
        return normalize(symbols, terms)

    monkeypatch.setattr(ScalarExpr, "normalize", staticmethod(counted))
    inv = geometry.mat_inverse(transposed)
    assert len(calls) <= most
    assert inv == frame.component_inverse


def test_contract_multiplies_into_its_outputs_without_normalizing(monkeypatch):
    # the last factor's products are merged into each output's table of
    # like terms, which is made canonical once: no output is normalized
    # from a list of raw product terms (one call per output before)
    frame = load_manifold(ROOT / "tests" / "data" / "rotated5.pk").to_structure().frame
    g, c = frame.metric_tensor, frame.structure_constants
    spec = "g[lm] c[ijm] + g[jm] c[lim] - g[im] c[jlm] -> ijl"
    calls = []
    normalize = ScalarExpr.normalize

    def counted(symbols, terms):
        calls.append(symbols)
        return normalize(symbols, terms)

    monkeypatch.setattr(ScalarExpr, "normalize", staticmethod(counted))
    koszul = geometry.contract(spec, g=g, c=c)
    assert calls == []
    monkeypatch.undo()
    assert max(len(value.terms) for _, value in koszul.nonzero()) > 1
    for (i, j, l), value in koszul.nonzero():
        assert value == g[l, l] * c[i, j, l] + g[j, j] * c[l, i, j] - g[i, i] * c[j, l, i]


@pytest.mark.parametrize(
    "stem, message, shapes",
    [
        ("nonunit_frame", "4:1: frame determinant -x is not a unit", [(1, 2), (3, 3)]),
        ("dependent_frame", "3:1: frame members are not linearly independent", [(3, 3)]),
    ],
)
def test_singular_frame_determinant_is_eliminated_once(monkeypatch, stem, message, shapes):
    # (rows, columns) of each elimination: the blocks of the inverse, then
    # the one determinant that both the inverse and the document error read
    calls = []
    eliminate = geometry._eliminate

    def counted(rows, zero, jordan=False):
        calls.append((len(rows), len(rows[0])))
        return eliminate(rows, zero, jordan)

    monkeypatch.setattr(geometry, "_eliminate", counted)
    doc = load_manifold(ROOT / "tests" / "data" / "malformed" / f"{stem}.pk")
    with pytest.raises(dsl.DocumentError) as info:
        doc.to_structure()
    assert str(info.value) == message
    assert calls == shapes
