"""How often check, solve and condition build each derived product.

Calls are counted by rebinding a function's module-level names in every
module that imported it, so the count sees each caller.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from parakenmotsu import cli, connection, curvature, dsl, geometry, soliton, structure, suite
from parakenmotsu.dsl import load_manifold
from parakenmotsu.fixtures import build_warped
from parakenmotsu.geometry import Tensor

ROOT = Path(__file__).parent.parent
MODULES = (cli, connection, curvature, soliton, structure, suite)


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
        lambda x, t: isinstance(t, Tensor)
        and t.components == t.frame.metric_tensor().components,
    )
    doc = str(ROOT / "manifolds" / "example_r5.pk")
    assert cli.main(["check", doc]) == 0
    assert "summary: 46 pass, 0 fail, 0 skipped" in capsys.readouterr().out
    assert counts["lie_derivative"] == 1


def _flat(value) -> list:
    """An operand's components as one flat list, however it is nested."""
    value = getattr(value, "components", value)  # a Tensor's table
    if not isinstance(value, (list, tuple)):
        return [value]
    return [c for row in value for c in _flat(row)]


def test_full_check_scans_no_tensor_for_nonzeros_twice(monkeypatch):
    # every table handed to contract finds its nonzero components at most
    # once, counted per operand object (a Tensor's per its components), not
    # per list contract may flatten it into; a contraction hands its result
    # the nonzero components it found
    soliton._generic.cache_clear()
    soliton._generic_w2.cache_clear()
    active, kept, counts = [], [], Counter()
    scan, contract = geometry._nonzero_entries, geometry.contract

    def counted_contract(spec, **operands):
        active.append(list(operands.values()))
        kept.append(operands)  # keeps every id in use until the end
        try:
            return contract(spec, **operands)
        finally:
            active.pop()

    def counted_scan(components, d, rank):
        owner = components
        if active:
            ops = active[-1]
            same = [o for o in ops if getattr(o, "components", o) is components]
            equal = [o for o in ops if _flat(o) == list(components)]
            owner = (same or equal or [components])[0]
            owner = getattr(owner, "components", owner)
        kept.append(owner)
        counts[id(owner)] += 1
        return scan(components, d, rank)

    for mod in (geometry, dsl) + MODULES:
        if getattr(mod, "contract", None) is contract:
            monkeypatch.setattr(mod, "contract", counted_contract)
    monkeypatch.setattr(geometry, "_nonzero_entries", counted_scan)
    warped = suite.run_suite(build_warped(3))
    rotated = suite.run_suite(load_manifold(ROOT / "tests" / "data" / "rotated5.pk"))
    assert all(c.status == "pass" for c in warped.checks + rotated.checks)
    assert counts and max(counts.values()) == 1
