import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from strategies import CHART3, dense, frames3, parse_scalar, scalars, vector_fields
from parakenmotsu.connection import (
    ConnectionError_,
    FrameConnection,
    _verify_connection,
    koszul_connection,
)
from parakenmotsu.fixtures import build_warped
from parakenmotsu.geometry import Tensor, ValenceError, derivatives


def sc(text):
    return parse_scalar(text, CHART3.symbols)


@pytest.fixture(scope="module")
def warped3():
    s = build_warped(1)
    return s, koszul_connection(s.frame)


# The nine covariant derivatives of the dim-3 warped fixture, frozen
# against the sympy oracle (see test_connection_matches_oracle).
GOLDEN_NABLA = {
    (0, 0): ("0", "0", "-1"),
    (0, 1): ("0", "0", "0"),
    (0, 2): ("1", "0", "0"),
    (1, 0): ("0", "0", "0"),
    (1, 1): ("0", "0", "1"),
    (1, 2): ("0", "1", "0"),
    (2, 0): ("0", "0", "0"),
    (2, 1): ("0", "0", "0"),
    (2, 2): ("0", "0", "0"),
}


def test_connection_golden_table(warped3):
    s, conn = warped3
    for (i, j), expected in GOLDEN_NABLA.items():
        got = tuple(conn.coefficient(i, j, a) for a in range(3))
        want = tuple(sc(t) for t in expected)
        assert got == want, f"nabla_E{i+1} E{j+1}"


def _oracle_inputs(frame):
    coords = frame.chart.coords
    return coords, oracle.frame_members(frame), oracle.diagonal_gram(frame.signs)


def test_coefficient_rejects_indices_outside_the_frame(warped3):
    # (0, 1, 3) once read gamma[0, 2, 0] = 1 through its row-major offset
    s, conn = warped3
    assert conn.coefficient(0, 2, 0) == sc("1")
    for idx, message in (
        ((0, 1, 3), "frame index 3 outside range(3)"),
        ((3, 0, 0), "frame index 3 outside range(3)"),
        ((0, -1, 2), "frame index -1 outside range(3)"),
    ):
        with pytest.raises(ValenceError) as info:
            conn.coefficient(*idx)
        assert str(info.value) == message
    with pytest.raises(ValenceError) as info:
        conn.gamma[0, 2]
    assert str(info.value) == "expected 3 indices, got 2"


def test_connection_matches_oracle_on_warped3(warped3):
    s, conn = warped3
    coords, members, gram = _oracle_inputs(s.frame)
    expected = oracle.frame_connection(coords, members, gram)
    for i in range(3):
        for j in range(3):
            for a in range(3):
                got = oracle.to_sympy(conn.coefficient(i, j, a), coords)
                assert oracle.is_zero(got - expected[i][j][a])


@settings(max_examples=10, deadline=None)
@given(frames3())
def test_connection_matches_oracle_on_random_frames(frame):
    conn = koszul_connection(frame)
    coords, members, gram = _oracle_inputs(frame)
    expected = oracle.frame_connection(coords, members, gram)
    for i in range(3):
        for j in range(3):
            for a in range(3):
                got = oracle.to_sympy(conn.coefficient(i, j, a), coords)
                assert oracle.is_zero(got - expected[i][j][a])


@pytest.mark.parametrize("r, s", [(1, 0), (0, 1), (1, 1), (0, 2)])
@settings(max_examples=4, deadline=None)
@given(frame=frames3(), data=st.data())
def test_nabla_matches_oracle_on_random_frames(r, s, frame, data):
    conn = koszul_connection(frame)
    d = frame.dim
    size = d ** (r + s)
    comps = data.draw(st.lists(scalars(), min_size=size, max_size=size))
    coords, members, gram = _oracle_inputs(frame)
    expected = oracle.frame_covariant(
        coords, members, gram, [oracle.to_sympy(c, coords) for c in comps], r, s
    )
    got = conn.nabla(Tensor(frame, r, s, dense(comps, r + s, d)))
    for idx, value in zip(itertools.product(range(d), repeat=r + s + 1), got):
        assert oracle.is_zero(oracle.to_sympy(value, coords) - expected[idx]), idx


@settings(max_examples=120, deadline=None)
@given(frames3())
def test_koszul_connection_is_torsion_free_and_metric(frame):
    # construction verifies both properties internally and raises on failure
    conn = koszul_connection(frame)
    # spot-check metric compatibility through the tensor route as well
    assert not conn.nabla(frame.metric_tensor).nonzero()


def test_covariant_derivative_obeys_leibniz_on_vectors(warped3):
    s, conn = warped3
    frame = s.frame
    f = sc("y^2*exp(-z)")
    y = Tensor(frame, 1, 0, dense([sc("1"), sc("0"), sc("0")], 1, 3))  # E1
    fy = Tensor(frame, 1, 0, dense([f * c for c in y.components], 1, 3))
    # nabla_{E_i}(f Y) = E_i(f) Y + f nabla_{E_i} Y
    left, ny = conn.nabla(fy), conn.nabla(y)
    df = derivatives(frame, dense((f,), 0, 3))  # [i] = E_i(f)
    for i in range(3):
        for a in range(3):
            right = df[i] * y[a] + f * ny[i, a]
            assert (left[i, a] - right).is_zero()


def test_one_form_derivative_matches_dual_vector(warped3):
    s, conn = warped3
    # nabla eta = g - eta x eta for this structure; check eta as a (0,1) tensor
    d_eta = Tensor(s.frame, 0, 2, conn.nabla(s.eta))
    for i in range(3):
        for j in range(3):
            expected = s.metric()[i, j] - s.eta[i] * s.eta[j]
            assert (d_eta[i, j] - expected).is_zero()


def _bumped(conn, bumps):
    """A connection whose gamma is conn's plus the rationals `bumps` at (i, j, k)."""
    gamma = conn.gamma
    values = [gamma[idx] + bumps.get(idx, 0) for idx in itertools.product(range(3), repeat=3)]
    return FrameConnection(conn.frame, dense(values, 3, 3))


def test_verify_connection_names_the_first_failing_invariant(warped3):
    s, conn = warped3
    g = s.frame.metric_tensor
    with pytest.raises(ConnectionError_) as info:
        _verify_connection(_bumped(conn, {(0, 1, 2): 1}), g)
    assert str(info.value) == "torsion does not vanish at (0,1,2): 1"
    # a bump symmetric in (i, j) keeps the torsion zero
    with pytest.raises(ConnectionError_) as info:
        _verify_connection(_bumped(conn, {(0, 1, 2): 1, (1, 0, 2): 1}), g)
    assert str(info.value) == "metric compatibility fails at (0,1,2): -1"
