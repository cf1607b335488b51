import ast
from fractions import Fraction
from pathlib import Path

import pytest

from strategies import build_flat, tabulate
from parakenmotsu import suite
from parakenmotsu.curvature import CurvatureError
from parakenmotsu.dsl import load_manifold
from parakenmotsu.fixtures import build_warped
from parakenmotsu.products import Products
from parakenmotsu.report import exit_code
from parakenmotsu.soliton import SolitonSolution
from parakenmotsu.structure import ParacontactStructure
from parakenmotsu.suite import CATALOG, run_suite, selectable_names

MANIFOLDS = Path(__file__).parent.parent / "manifolds"
DATA = Path(__file__).parent / "data"
DOCUMENTS = sorted(MANIFOLDS.glob("*.pk")) + sorted(DATA.glob("*.pk"))
SOURCES = Path(__file__).parent.parent / "src" / "parakenmotsu"


def _broken_phi(n=1):
    s = build_warped(n)
    ident = tabulate(
        s.frame, 1, 1,
        lambda a, i: s.frame.chart.const(1 if a == i else 0),
    )
    return ParacontactStructure(s.frame, ident, s.xi, s.eta, s.n)


def test_catalog_names_and_refs_are_unique():
    names = [name for _, name, _ in CATALOG]
    refs = [ref for _, _, ref in CATALOG]
    assert len(names) == len(CATALOG) == 46
    assert len(set(names)) == len(names)
    assert len(set(refs)) == len(refs)


def test_selectable_names_include_groups_and_full_names():
    names = selectable_names()
    assert "axioms" in names
    assert "axioms/phi-square" in names
    assert "condition/R.S" in names
    assert "condition" in names


def test_full_suite_passes_on_r3_document():
    result = run_suite(load_manifold(MANIFOLDS / "example_r3.pk"))
    assert result.manifold == "example_r3"
    assert (result.dimension, result.n) == (3, 1)
    assert [c.name for c in result.checks] == [name for _, name, _ in CATALOG]
    assert all(c.status == "pass" for c in result.checks), [
        (c.name, c.witness) for c in result.checks if c.status != "pass"
    ]
    assert exit_code(result.checks) == 0
    assert result.soliton is not None
    assert (result.soliton.lam, result.soliton.mu) == ("1", "1")
    assert result.soliton.classification == "Einstein"
    # the conflicting published table is surfaced as informational notes
    assert len(result.notes) == 7


def test_full_suite_passes_on_r5_document():
    result = run_suite(load_manifold(MANIFOLDS / "example_r5.pk"))
    assert all(c.status == "pass" for c in result.checks)
    assert (result.soliton.lam, result.soliton.mu) == ("3", "1")
    # the reference-table comparison is anchored to the 3-dimensional case
    assert result.notes == ()


def test_reference_notes_render_a_coefficient_other_than_one():
    # the table lists R(E1, E2)E2 = E1; a Riemann tensor bumped there to
    # 2 E1, beside the unbumped Ricci tensor, renders its value as (2)*E1
    p = Products(load_manifold(MANIFOLDS / "example_r3.pk").to_structure())
    riem = p.riem
    p.ricci = p.ricci  # built from the unbumped tensor, and kept
    p.riem = tabulate(
        riem.frame, 1, 3, lambda *idx: riem[idx] + (idx == (0, 0, 1, 1))
    )
    assert suite.reference_conflict_notes(p, solved=True) == [
        "reference table lists nabla_{E3} E1 = E1; computed value is 0",
        "reference table lists nabla_{E3} E2 = E2; computed value is 0",
        "reference table lists R(E1, E2)E2 = E1; computed value is (2)*E1",
        "reference table lists R(E3, E1)E1 = E3; computed value is -E3",
        "reference table lists R(E3, E2)E2 = -E3; computed value is E3",
        "reference table lists S(E1, E1) = 0; computed value is -2",
        "reference table lists S(E2, E2) = 0; computed value is 2",
        "reference table lists soliton constants (lambda, mu) = (-1, 3);"
        " computed values are (1, 1)",
    ]


def test_selection_reports_only_chosen_group():
    result = run_suite(_broken_phi(), selection={"axioms"})
    by_name = {c.name: c for c in result.checks}
    assert by_name["axioms/phi-square"].status == "fail"
    assert by_name["axioms/eta-xi-pairing"].status == "pass"
    non_axioms = [c for c in result.checks if not c.name.startswith("axioms/")]
    assert len(non_axioms) == 36
    assert all(c.status == "skipped" for c in non_axioms)
    assert exit_code(result.checks) == 1


def test_unselected_failures_do_not_affect_exit_code():
    # factors have no dependencies, so they pass even with a broken phi,
    # and the axiom failures are reported as skipped rather than failed
    result = run_suite(_broken_phi(), selection={"factors"})
    by_name = {c.name: c for c in result.checks}
    assert by_name["factors/R.S"].status == "pass"
    assert by_name["axioms/phi-square"].status == "skipped"
    assert exit_code(result.checks) == 0


def test_single_check_selection():
    result = run_suite(
        load_manifold(MANIFOLDS / "example_r3.pk"),
        selection={"identities/eta-closed"},
    )
    statuses = {c.name: c.status for c in result.checks}
    assert statuses.pop("identities/eta-closed") == "pass"
    assert set(statuses.values()) == {"skipped"}
    assert exit_code(result.checks) == 0


def test_failed_stage_skips_dependents():
    result = run_suite(build_flat(1), name="flat")
    by_name = {c.name: c for c in result.checks}
    assert by_name["para-kenmotsu/covariant-phi"].status == "fail"
    assert by_name["axioms/phi-square"].status == "pass"
    # generic curvature only needs the connection, so it still runs
    assert by_name["curvature/riemann-symmetries"].status == "pass"
    # but everything downstream of the failed stage is skipped
    for name in (
        "identities/xi-covariant-derivative",
        "curvature/ricci-on-xi",
        "soliton/constants",
        "condition/R.S",
        "soliton/parallel-deformation-recovery",
        "phi-ricci/phi-square-of-nabla-q",
    ):
        assert by_name[name].status == "skipped", name
    # document-independent factor checks are unaffected
    assert by_name["factors/W2.S"].status == "pass"
    assert exit_code(result.checks) == 1
    assert result.soliton is None


def test_the_split_witness_prints_both_pairs_as_numbers():
    # S = -2 g on the warped n = 1 structure; constants (2, 0) imply
    # S = -3 g + eta x eta, so L2 reports both pairs
    p = Products(build_warped(1))
    p.sol = SolitonSolution(Fraction(2), Fraction(0), 1)
    (witness,) = [read for _, _, tag, read in suite._ROWS if tag == "L2"]
    assert witness(p) == "split gives (-2, 0), soliton implies (-3, 1)"


def test_a_failed_riemann_build_skips_every_stage_that_reads_it(monkeypatch):
    def broken(products):
        raise CurvatureError("curvature not antisymmetric at (0,0,1,1)")

    monkeypatch.setattr(suite.Products, "riem", property(broken))
    result = run_suite(build_warped(1))
    by_name = {c.name: c for c in result.checks}
    c2 = by_name["curvature/riemann-symmetries"]
    assert (c2.status, c2.witness) == ("fail", "curvature not antisymmetric at (0,0,1,1)")
    assert {c.name for c in result.checks if c.status == "skipped"} == {
        "curvature/ricci-symmetric",
        "curvature/ricci-on-xi",
        "curvature/q-commutes-with-phi",
        "soliton/constants",
        "soliton/quasi-einstein-split",
        "condition/R.S",
        "condition/S.R",
        "condition/W2.S",
        "condition/S.W2",
        "soliton/parallel-deformation-recovery",
        "soliton/mu-zero-deformation-not-parallel",
        "phi-ricci/phi-square-of-nabla-q",
        "phi-ricci/q-parallel-along-xi",
        "phi-ricci/s-parallel-along-xi",
    }
    # identities read an unverified Riemann tensor of their own instead
    identities = [by_name[name] for stage, name, _ in CATALOG if stage == "identities"]
    assert {c.status for c in identities} == {"pass"}
    assert exit_code(result.checks) == 1
    assert result.soliton is None and result.notes == ()


def test_structure_input_uses_fallback_name():
    result = run_suite(build_warped(1), selection={"connection"})
    assert result.manifold == "manifold"
    assert run_suite(build_warped(1), selection={"connection"}, name="w").manifold == "w"


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda path: path.stem)
def test_a_check_selected_alone_reads_as_in_the_full_run(path):
    # a selection computes fewer rows, never a different verdict or witness
    doc = load_manifold(path)
    full = {c.name: (c.status, c.witness) for c in run_suite(doc).checks}
    for _, name, _ in CATALOG:
        alone = {c.name: (c.status, c.witness) for c in run_suite(doc, {name}).checks}
        assert alone[name] == full[name], name


def test_check_names_and_tags_are_written_only_in_the_catalog():
    written = {name for _, name, _ in CATALOG} | {ref for _, _, ref in CATALOG}
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "suite.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in written
        }
        assert not found, (path.name, found)
