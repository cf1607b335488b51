import pytest

from parakenmotsu import suite
from parakenmotsu.connection import koszul_connection
from parakenmotsu.curvature import riemann
from parakenmotsu.fixtures import build_flat, build_warped
from parakenmotsu.geometry import Tensor, ValenceError
from parakenmotsu.structure import (
    ParacontactStructure,
    check_axioms,
    check_para_kenmotsu,
    kenmotsu_identity_suite,
)

AXIOM_REFS = tuple(f"A{i}" for i in range(1, 11))
IDENTITY_REFS = tuple(f"I{i}" for i in range(1, 15))


@pytest.mark.parametrize("n", [1, 2])
def test_axioms_all_pass_on_warped(n):
    reports = check_axioms(build_warped(n))
    assert [r.ref for r in reports] == list(AXIOM_REFS)
    assert all(r.status == "pass" for r in reports)
    assert all(r.witness is None for r in reports)


@pytest.mark.parametrize("n", [1, 2])
def test_identity_suite_all_pass_on_warped(n):
    s = build_warped(n)
    conn = koszul_connection(s.frame)
    assert check_para_kenmotsu(s, conn).status == "pass"
    reports = kenmotsu_identity_suite(s, conn, riemann(conn))
    assert [r.ref for r in reports] == list(IDENTITY_REFS)
    assert all(r.status == "pass" for r in reports), [
        (r.name, r.witness) for r in reports if r.status != "pass"
    ]


def test_axioms_pass_with_symbolic_parameter():
    s = build_warped(1, params=("mu",))
    assert all(r.status == "pass" for r in check_axioms(s))


def test_identity_phi_square_fails_for_identity_phi():
    s = build_warped(1)
    ident = Tensor.build(
        s.frame, 1, 1,
        lambda a, i: s.frame.chart.const(1 if a == i else 0),
    )
    broken = ParacontactStructure(s.frame, ident, s.xi, s.eta, s.n)
    by_ref = {r.ref: r for r in check_axioms(broken)}
    assert by_ref["A4"].status == "fail"
    assert by_ref["A4"].witness == "[E3, E3]: 1"
    assert by_ref["A2"].status == "fail"  # phi xi = xi != 0
    assert {r.ref: r.witness for r in by_ref.values() if r.status != "pass"} == {
        "A2": "[E3]: 1",
        "A3": "[E3]: 1",
        "A4": "[E3, E3]: 1",
        "A5": "[E1, E1]: 2",
        "A6": "[E1, E1]: 2",
        "A10": "eigendistribution ranks (0, 2), expected (1, 1)",
    }


# First failing index of every check the flat fixture fails; each pins the
# order in which its check walks the frame indices.
FLAT_WITNESSES = {
    1: {
        "K1": "[E3, E1, E2]: 1",
        "I1": "[E1, E1]: -1",
        "I4": "[E1, E1, E3]: 1",
        "I5": "[E1, E3, E1]: -1",
        "I7": "[E1, E1]: -1",
        "I12": "[E1, E1]: -2",
        "C4": "[E3]: 2",
    },
    2: {
        "K1": "[E5, E1, E2]: 1",
        "I1": "[E1, E1]: -1",
        "I4": "[E1, E1, E5]: 1",
        "I5": "[E1, E5, E1]: -1",
        "I7": "[E1, E1]: -1",
        "I12": "[E1, E1]: -2",
        "C4": "[E5]: 4",
    },
}


@pytest.mark.parametrize("n", [1, 2])
def test_flat_fixture_witnesses_of_every_failing_check(n):
    s = build_flat(n)
    conn = koszul_connection(s.frame)
    reports = [
        *check_axioms(s),
        check_para_kenmotsu(s, conn),
        *kenmotsu_identity_suite(s, conn, riemann(conn)),
        *suite._run_curvature_pk(suite.Products(s)),
    ]
    assert len(reports) == 10 + 1 + 14 + 2
    failing = {r.ref: r.witness for r in reports if r.status != "pass"}
    assert failing == FLAT_WITNESSES[n]


def test_flat_fixture_fails_para_kenmotsu_with_witness():
    s = build_flat(1)
    assert all(r.status == "pass" for r in check_axioms(s))
    conn = koszul_connection(s.frame)
    report = check_para_kenmotsu(s, conn)
    assert report.status == "fail"
    assert report.witness == "[E3, E1, E2]: 1"


def test_flat_fixture_identity_witnesses():
    s = build_flat(1)
    conn = koszul_connection(s.frame)
    reports = {r.ref: r for r in kenmotsu_identity_suite(s, conn)}
    # nabla xi = 0 on the flat fixture instead of Id - eta x xi
    assert reports["I1"].status == "fail"
    assert reports["I1"].witness == "[E1, E1]: -1"
    # d(eta) = 0 still holds there
    assert reports["I13"].status == "pass"
    assert reports["I14"].status == "pass"


def test_structure_validates_dimension_and_valence():
    s = build_warped(1)
    with pytest.raises(ValenceError):
        ParacontactStructure(s.frame, s.metric(), s.xi, s.eta, s.n)
    with pytest.raises(ValenceError):
        ParacontactStructure(s.frame, s.phi, s.xi, s.eta, s.n + 1)


def test_signature_axiom_counts_signs():
    s = build_warped(2)
    report = next(r for r in check_axioms(s) if r.ref == "A9")
    assert report.status == "pass"
    # flipping one horizontal sign breaks the (n+1, n) count
    rows = [list(row) for row in s.frame.gram]
    rows[0][0] = s.frame.chart.const(-1)
    from parakenmotsu.geometry import Frame

    flipped_frame = Frame(s.frame.chart, s.frame.members, tuple(map(tuple, rows)))
    flipped = ParacontactStructure(flipped_frame, s.phi, s.xi, s.eta, s.n)
    report = next(r for r in check_axioms(flipped) if r.ref == "A9")
    assert report.status == "fail"


def test_reports_carry_names_and_elapsed():
    s = build_warped(1)
    for r in check_axioms(s):
        assert r.name.startswith("axioms/")
        assert r.elapsed >= 0.0
