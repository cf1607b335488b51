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
    vanishing_check,
)

AXIOM_REFS = tuple(f"A{i}" for i in range(1, 11))
IDENTITY_REFS = tuple(f"I{i}" for i in range(1, 15))


@pytest.mark.parametrize("n", [1, 2])
def test_axioms_all_pass_on_warped(n):
    witnesses = check_axioms(build_warped(n))
    assert witnesses == [None] * len(AXIOM_REFS)


@pytest.mark.parametrize("n", [1, 2])
def test_identity_suite_all_pass_on_warped(n):
    s = build_warped(n)
    conn = koszul_connection(s.frame)
    assert check_para_kenmotsu(s, conn) is None
    witnesses = dict(
        zip(IDENTITY_REFS, kenmotsu_identity_suite(s, conn, riemann(conn)), strict=True)
    )
    assert all(w is None for w in witnesses.values()), witnesses


def test_axioms_pass_with_symbolic_parameter():
    s = build_warped(1, params=("mu",))
    assert check_axioms(s) == [None] * len(AXIOM_REFS)


def test_identity_phi_square_fails_for_identity_phi():
    s = build_warped(1)
    ident = Tensor.build(
        s.frame, 1, 1,
        lambda a, i: s.frame.chart.const(1 if a == i else 0),
    )
    broken = ParacontactStructure(s.frame, ident, s.xi, s.eta, s.n)
    by_ref = dict(zip(AXIOM_REFS, check_axioms(broken), strict=True))
    # phi xi = xi != 0 fails A2
    assert {ref: w for ref, w in by_ref.items() if w is not None} == {
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
    witnesses = [
        *check_axioms(s),
        check_para_kenmotsu(s, conn),
        *kenmotsu_identity_suite(s, conn, riemann(conn)),
        *suite._run_curvature_pk(suite.Products(s)),
    ]
    refs = AXIOM_REFS + ("K1",) + IDENTITY_REFS + ("C4", "C5")
    by_ref = dict(zip(refs, witnesses, strict=True))
    assert {ref: w for ref, w in by_ref.items() if w is not None} == FLAT_WITNESSES[n]


def test_flat_fixture_fails_para_kenmotsu_with_witness():
    s = build_flat(1)
    assert check_axioms(s) == [None] * len(AXIOM_REFS)
    conn = koszul_connection(s.frame)
    assert check_para_kenmotsu(s, conn) == "[E3, E1, E2]: 1"


def test_flat_fixture_identity_witnesses():
    s = build_flat(1)
    conn = koszul_connection(s.frame)
    witnesses = dict(
        zip(IDENTITY_REFS, kenmotsu_identity_suite(s, conn), strict=True)
    )
    # nabla xi = 0 on the flat fixture instead of Id - eta x xi
    assert witnesses["I1"] == "[E1, E1]: -1"
    # d(eta) = 0 still holds there
    assert witnesses["I13"] is None
    assert witnesses["I14"] is None


def test_structure_validates_dimension_and_valence():
    s = build_warped(1)
    with pytest.raises(ValenceError):
        ParacontactStructure(s.frame, s.metric(), s.xi, s.eta, s.n)
    with pytest.raises(ValenceError):
        ParacontactStructure(s.frame, s.phi, s.xi, s.eta, s.n + 1)


def test_signature_axiom_counts_signs():
    s = build_warped(2)
    a9 = AXIOM_REFS.index("A9")
    assert check_axioms(s)[a9] is None
    # flipping one horizontal sign breaks the (n+1, n) count
    from parakenmotsu.geometry import Frame

    flipped_frame = Frame(s.frame.chart, s.frame.members, (-1,) + s.frame.signs[1:])
    flipped = ParacontactStructure(flipped_frame, s.phi, s.xi, s.eta, s.n)
    assert check_axioms(flipped)[a9] == "signature (2, 3), expected (3, 2)"


def test_vanishing_check_witnesses():
    s = build_warped(1)
    chart = s.chart
    values = {(0, 2): 3, (2, 0): 2}
    t = Tensor.build(
        s.frame, 0, 2, lambda i, j: chart.const(values.get((i, j), 0))
    )
    # the first nonzero component in the order of the output letters
    assert vanishing_check("T[ij] -> ij", {"T": t}) == "[E1, E3]: 3"
    assert vanishing_check("T[ij] -> ji", {"T": t}) == "[E1, E3]: 2"
    # labels respell the index of that component
    assert vanishing_check("T[ij] -> ji", {"T": t}, labels="ij") == "[E3, E1]: 2"
    assert vanishing_check("T[ii] - 1 ->", {"T": t}) == "[]: -1"
    assert vanishing_check("T[ij] - T[ij] -> ij", {"T": t}) is None
