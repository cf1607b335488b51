import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from strategies import CHART3, dense, frames3, parse_scalar, scalars, tabulate, vector_fields
from parakenmotsu.connection import koszul_connection
from parakenmotsu.curvature import (
    CurvatureError,
    _verify_riemann,
    lie_derivative,
    nijenhuis,
    ricci,
    ricci_operator,
    riemann,
    w2_tensor,
)
from parakenmotsu.fixtures import build_warped
from parakenmotsu.geometry import Tensor, ValenceError, contract


@pytest.fixture(scope="module", params=[1, 2])
def warped(request):
    n = request.param
    s = build_warped(n)
    conn = koszul_connection(s.frame)
    riem = riemann(conn)
    return n, s, conn, riem


def test_riemann_is_constant_negative_curvature(warped):
    n, s, conn, riem = warped
    g = s.metric()
    d = s.dim
    # R(X, Y)Z = -(g(Y, Z) X - g(X, Z) Y)
    delta = lambda a, b: s.frame.chart.const(1 if a == b else 0)
    for a in range(d):
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    expected = -(g[j, k] * delta(a, i) - g[i, k] * delta(a, j))
                    assert (riem[a, i, j, k] - expected).is_zero()


def test_golden_riemann_entries_dim3():
    s = build_warped(1)
    riem = riemann(koszul_connection(s.frame))
    one = s.frame.chart.const(1)
    # frame components of R(E_i, E_j)E_k
    assert riem[0, 0, 1, 1] == one  # R(E1,E2)E2 = E1
    assert riem[0, 0, 2, 2] == -one  # R(E1,E3)E3 = -E1
    assert riem[1, 1, 0, 0] == -one  # R(E2,E1)E1 = -E2
    assert riem[1, 1, 2, 2] == -one  # R(E2,E3)E3 = -E2
    # corrected values for the two inconsistent published entries
    assert riem[2, 2, 0, 0] == -one  # R(E3,E1)E1 = -E3
    assert riem[2, 2, 1, 1] == one  # R(E3,E2)E2 = E3


def test_ricci_equals_minus_2n_times_metric(warped):
    n, s, conn, riem = warped
    S = ricci(riem)
    residual = contract("S[ij] + c g[ij] -> ij", S=S, c=2 * n, g=s.metric())
    assert residual.nonzero() == ()
    assert S[s.dim - 1, s.dim - 1] == s.frame.chart.const(-2 * n)


def test_ricci_operator_and_scalar(warped):
    n, s, conn, riem = warped
    S = ricci(riem)
    q = ricci_operator(S)
    d = s.dim
    for a in range(d):
        for b in range(d):
            expected = s.frame.chart.const(-2 * n if a == b else 0)
            assert q[a, b] == expected
    assert contract("Q[aa] ->", Q=q) == s.frame.chart.const(-2 * n * (2 * n + 1))


def test_w2_tensor_vanishes_on_fixture(warped):
    n, s, conn, riem = warped
    q = ricci_operator(ricci(riem))
    assert w2_tensor(riem, q, n).is_zero()


def test_ricci_matches_oracle_on_warped3():
    s = build_warped(1)
    S = ricci(riemann(koszul_connection(s.frame)))
    coords = s.frame.chart.coords
    members = oracle.frame_members(s.frame)
    gram = oracle.diagonal_gram(s.frame.signs)
    expected = oracle.frame_ricci(coords, members, gram)
    for a in range(3):
        for b in range(3):
            got = oracle.to_sympy(S[a, b], coords)
            assert oracle.is_zero(got - expected[a, b])


def test_riemann_matches_oracle_on_warped3():
    s = build_warped(1)
    riem = riemann(koszul_connection(s.frame))
    coords = s.frame.chart.coords
    members = oracle.frame_members(s.frame)
    gram = oracle.diagonal_gram(s.frame.signs)
    expected = oracle.frame_riemann(coords, members, gram)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for a in range(3):
                    got = oracle.to_sympy(riem[a, i, j, k], coords)
                    assert oracle.is_zero(got - expected[i][j][k][a])


@settings(max_examples=8, deadline=None)
@given(frames3())
def test_ricci_matches_oracle_on_random_frames(frame):
    S = ricci(riemann(koszul_connection(frame)))
    coords = frame.chart.coords
    members = oracle.frame_members(frame)
    expected = oracle.frame_ricci(coords, members, oracle.diagonal_gram(frame.signs))
    for a in range(3):
        for b in range(3):
            got = oracle.to_sympy(S[a, b], coords)
            assert oracle.is_zero(got - expected[a, b])


@settings(max_examples=120, deadline=None)
@given(frames3())
def test_riemann_and_ricci_invariants_hold(frame):
    # riemann() verifies antisymmetry, first Bianchi, and pair symmetry;
    # ricci() verifies symmetry of the trace.  Construction succeeding is
    # the property; a couple of instances are re-checked explicitly.
    conn = koszul_connection(frame)
    riem = riemann(conn, verify=True)
    S = ricci(riem)
    d = frame.dim
    for a in range(d):
        assert (riem[a, 0, 1, 2] + riem[a, 1, 0, 2]).is_zero()
        first_bianchi = riem[a, 0, 1, 2] + riem[a, 1, 2, 0] + riem[a, 2, 0, 1]
        assert first_bianchi.is_zero()
    assert (S[0, 1] - S[1, 0]).is_zero()


def test_lie_derivative_of_metric_along_xi(warped):
    n, s, conn, riem = warped
    flow = lie_derivative(s.xi, s.metric())
    residual = contract("lg[ij] - 2 g[ij] + 2 eta[i] eta[j] -> ij", lg=flow, **s.operands())
    assert residual.nonzero() == ()


@settings(max_examples=60, deadline=None)
@given(frames3(), vector_fields())
def test_lie_derivative_matches_connection_formula(frame, x):
    # (L_X g)(Y, Z) = g(nabla_Y X, Z) + g(Y, nabla_Z X)
    conn = koszul_connection(frame)
    g = frame.metric_tensor
    flow = lie_derivative(x, g)
    nx = conn.nabla(Tensor(frame, 1, 0, x))  # [i, m]: nabla_i X
    d = frame.dim
    for i in range(d):
        for j in range(d):
            expected = frame.chart.zero()
            for m in range(d):
                expected = expected + nx[i, m] * g[m, j] + g[i, m] * nx[j, m]
            assert (flow[i, j] - expected).is_zero()


def test_lie_derivative_of_eta_and_phi(warped):
    n, s, conn, riem = warped
    assert lie_derivative(s.xi, s.eta).is_zero()
    assert lie_derivative(s.xi, s.phi).is_zero()


def test_lie_derivative_rejects_a_vector_field(warped):
    n, s, conn, riem = warped
    with pytest.raises(ValenceError):
        lie_derivative(s.xi, s.xi)


def test_nijenhuis_vanishes_on_fixture(warped):
    n, s, conn, riem = warped
    assert nijenhuis(s.phi).is_zero()


def test_nijenhuis_antisymmetry_on_phi_like_tensors():
    s = build_warped(1)
    # swap with a z-dependent coefficient: integrable no longer, but the
    # tensor must stay antisymmetric in its two arguments
    f = parse_scalar("exp(z)", s.frame.chart.symbols)
    phi = tabulate(
        s.frame,
        1,
        1,
        lambda a, i: f if (a, i) in ((0, 1), (1, 0)) else s.frame.chart.zero(),
    )
    t = nijenhuis(phi)
    assert not t.is_zero()
    d = s.dim
    for a in range(d):
        for i in range(d):
            for j in range(d):
                assert (t[a, i, j] + t[a, j, i]).is_zero()


def _sympy_frame(frame):
    return frame.chart.coords, oracle.frame_members(frame)


def _sympy_matrix(t, coords):
    d = t.frame.dim
    return [[oracle.to_sympy(t[a, i], coords) for i in range(d)] for a in range(d)]


def _nonconstant(entries):
    return any(not c.is_constant() for c in entries)


@settings(max_examples=8, deadline=None)
@given(frames3(), st.lists(scalars(), min_size=9, max_size=9).filter(_nonconstant))
def test_nijenhuis_matches_oracle_on_random_frames(frame, entries):
    phi = Tensor(frame, 1, 1, dense(entries, 2, 3))
    coords, members = _sympy_frame(frame)
    expected = oracle.frame_nijenhuis(coords, members, _sympy_matrix(phi, coords))
    got = nijenhuis(phi)
    d = frame.dim
    for a in range(d):
        for i in range(d):
            for j in range(d):
                value = oracle.to_sympy(got[a, i, j], coords)
                assert oracle.is_zero(value - expected[a][i][j])


@settings(max_examples=8, deadline=None)
@given(
    frames3(),
    vector_fields(),
    st.lists(scalars(), min_size=9, max_size=9).filter(_nonconstant),
    st.lists(scalars(), min_size=9, max_size=9),
    st.lists(scalars(), min_size=3, max_size=3),
)
def test_lie_derivatives_match_oracle_on_random_frames(frame, x, phi, t, w):
    phi = Tensor(frame, 1, 1, dense(phi, 2, 3))
    t = Tensor(frame, 0, 2, dense(t, 2, 3))
    w = Tensor(frame, 0, 1, dense(w, 1, 3))
    coords, members = _sympy_frame(frame)
    d = frame.dim
    # the oracle takes X in coordinates: x^a = x[k] m[ka]
    xs = [
        sum(oracle.to_sympy(x[k], coords) * members[k][a] for k in range(d))
        for a in range(d)
    ]
    for tensor, formula in (
        (phi, oracle.frame_lie_endomorphism),
        (t, oracle.frame_lie_covariant2),
    ):
        got = lie_derivative(x, tensor)
        expected = formula(coords, members, xs, _sympy_matrix(tensor, coords))
        for a in range(d):
            for i in range(d):
                value = oracle.to_sympy(got[a, i], coords)
                assert oracle.is_zero(value - expected[a, i])
    got = lie_derivative(x, w)
    expected = oracle.frame_lie_oneform(
        coords, members, xs, [oracle.to_sympy(c, coords) for c in w.components]
    )
    for i in range(d):
        assert oracle.is_zero(oracle.to_sympy(got.components[i], coords) - expected[i])


@pytest.fixture(scope="module")
def riem3():
    return riemann(koszul_connection(build_warped(1).frame))


def _bumped(riem, bumps):
    """riem plus the rationals `bumps` at (a, i, j, k)."""
    return tabulate(riem.frame, 1, 3, lambda *idx: riem[idx] + bumps.get(idx, 0))


@pytest.mark.parametrize(
    "bumps, message",
    [
        ({(0, 0, 1, 1): 1}, "curvature not antisymmetric at (0,0,1,1)"),
        # skew in (i, j), so only the cyclic sum fails
        ({(0, 0, 1, 2): 1, (0, 1, 0, 2): -1}, "first Bianchi identity fails at (0,0,1,2)"),
    ],
)
def test_verify_riemann_names_the_first_failing_symmetry(riem3, bumps, message):
    with pytest.raises(CurvatureError) as info:
        _verify_riemann(_bumped(riem3, bumps))
    assert str(info.value) == message


def test_verify_riemann_names_a_pair_symmetry_failure(riem3):
    # T(X,Y)Z = d(Y,Z) UX - d(X,Z) UY, with d the identity matrix of the
    # frame and U E1 = E3, is skew in (X, Y) and satisfies the first
    # Bianchi identity, but g(T(X,Y)Z, W) is not symmetric in the pairs
    chart = riem3.frame.chart
    u = dense(
        [chart.const(int(at == (2, 0))) for at in itertools.product(range(3), repeat=2)], 2, 3
    )
    comps = contract("R[aijk] + delta[jk] U[ai] - delta[ik] U[aj] -> aijk", R=riem3, U=u)
    with pytest.raises(CurvatureError) as info:
        _verify_riemann(Tensor.build(riem3.frame, 1, 3, comps))
    assert str(info.value) == "pair symmetry fails at (0,1,1,2)"


def test_ricci_rejects_an_asymmetric_trace(riem3):
    # R(E1, E2)E3 gains E1: the trace S[1, 2] gains 1 and S[2, 1] does not
    with pytest.raises(CurvatureError) as info:
        ricci(_bumped(riem3, {(0, 0, 1, 2): 1}))
    assert str(info.value) == "Ricci tensor not symmetric at (1,2)"
