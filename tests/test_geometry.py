from fractions import Fraction

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import CHART3, frames3, scalars, vector_fields
from parakenmotsu.geometry import (
    Chart,
    Frame,
    OneForm,
    Tensor,
    ValenceError,
    VectorField,
    bracket,
    contract,
    differential,
    exterior_derivative,
    mat_det,
    mat_inverse,
    mat_rank,
    tensor_apply,
)
from parakenmotsu.scalar import NonInvertible, parse_scalar


def sc(text):
    return parse_scalar(text, CHART3.symbols)


def vf(*texts):
    return VectorField(CHART3, tuple(sc(t) for t in texts))


def test_chart_rejects_even_dimension():
    with pytest.raises(ValueError):
        Chart(("x", "y"))
    with pytest.raises(ValueError):
        Chart(("x", "y", "z"), params=("x",))


def test_chart_params_are_constant_symbols():
    chart = Chart(("x", "y", "z"), params=("mu",))
    mu = chart.coordinate("mu")
    e = VectorField(chart, (chart.const(1), chart.zero(), chart.zero()))
    assert e(mu).is_zero()
    assert not e(chart.coordinate("x")).is_zero()


def test_bracket_of_warped_members():
    e1 = vf("exp(z)", "0", "0")
    e3 = vf("0", "0", "-1")
    lie = bracket(e1, e3)
    assert lie.components == (sc("exp(z)"), sc("0"), sc("0"))


def test_bracket_coordinate_fields_commute():
    assert bracket(vf("1", "0", "0"), vf("0", "1", "0")).is_zero()


@settings(max_examples=120, deadline=None)
@given(vector_fields(), vector_fields())
def test_bracket_antisymmetry(x, y):
    assert (bracket(x, y) + bracket(y, x)).is_zero()


@settings(max_examples=120, deadline=None)
@given(vector_fields(), vector_fields(), vector_fields())
def test_jacobi_identity(x, y, z):
    total = (
        bracket(x, bracket(y, z))
        + bracket(y, bracket(z, x))
        + bracket(z, bracket(x, y))
    )
    assert total.is_zero()


@settings(max_examples=100, deadline=None)
@given(vector_fields(), vector_fields(), scalars())
def test_bracket_leibniz_in_second_slot(x, y, f):
    # [X, fY] = X(f) Y + f [X, Y]
    left = bracket(x, y.scale(f))
    right = y.scale(x(f)) + bracket(x, y).scale(f)
    assert (left - right).is_zero()


def test_mat_det_and_inverse_triangular():
    zero = CHART3.zero()
    m = [
        [sc("exp(z)"), zero, zero],
        [sc("x"), sc("2"), zero],
        [sc("y^2"), sc("x*y"), sc("-1/3*exp(-z)")],
    ]
    det = mat_det(m, zero)
    assert det == sc("-2/3")
    inv = mat_inverse(m, zero)
    for i in range(3):
        for j in range(3):
            acc = zero
            for k in range(3):
                acc = acc + m[i][k] * inv[k][j]
            assert acc == (sc("1") if i == j else zero)


def test_mat_inverse_rejects_singular():
    zero = CHART3.zero()
    m = [[sc("x"), sc("x")], [sc("1"), sc("1")]]
    with pytest.raises(NonInvertible):
        mat_inverse(m, zero)


def test_mat_rank_counts_independent_rows():
    zero = CHART3.zero()
    rows = [[sc("1"), sc("x")], [sc("2"), sc("2*x")], [sc("0"), sc("exp(z)")]]
    assert mat_rank(rows, zero) == 2
    assert mat_rank([[zero, zero]], zero) == 0


@settings(max_examples=120, deadline=None)
@given(frames3(), vector_fields())
def test_frame_expansion_round_trip(frame, x):
    comps = frame.to_frame(x)
    assert (frame.from_frame(comps) - x).is_zero()


@settings(max_examples=100, deadline=None)
@given(frames3())
def test_gram_signs_match_declared_diagonal(frame):
    signs = frame.gram_signs()
    assert all(s * s == 1 for s in signs)
    assert signs == tuple(frame.gram[i][i].as_rational() for i in range(3))


def test_metric_vv_agrees_with_gram_on_members():
    e1 = vf("exp(z)", "0", "0")
    e2 = vf("0", "exp(z)", "0")
    e3 = vf("0", "0", "-1")
    gram = tuple(
        tuple(CHART3.const(q if i == j else 0) for j, q in enumerate(row))
        for i, row in enumerate(((1, 1, 1), (1, -1, 1), (1, 1, 1)))
    )
    frame = Frame(CHART3, (e1, e2, e3), gram)
    assert frame.metric_vv(e1, e1) == sc("1")
    assert frame.metric_vv(e2, e2) == sc("-1")
    assert frame.metric_vv(e1, e2).is_zero()
    # bilinearity over functions of the first argument
    assert frame.metric_vv(e1.scale(sc("x*exp(z)")), e2.scale(sc("y"))).is_zero()
    assert frame.metric_vv(e1.scale(sc("x")), e1) == sc("x")


def test_tensor_symmetric_flag_is_validated():
    frame = _coordinate_frame()
    with pytest.raises(ValenceError):
        Tensor.build(
            frame, 0, 2, lambda i, j: sc("x") if (i, j) == (0, 1) else sc("0"),
            symmetric=True,
        )


def test_tensor_first_nonzero_reports_index_and_value():
    frame = _coordinate_frame()
    t = Tensor.build(frame, 0, 2, lambda i, j: sc("y") if (i, j) == (1, 2) else sc("0"))
    idx, expr = t.first_nonzero()
    assert idx == (1, 2)
    assert expr == sc("y")
    assert Tensor.build(frame, 0, 1, lambda i: sc("0")).first_nonzero() is None


def _coordinate_frame():
    members = (vf("1", "0", "0"), vf("0", "1", "0"), vf("0", "0", "1"))
    gram = tuple(
        tuple(CHART3.const((1, -1, 1)[i] if i == j else 0) for j in range(3))
        for i in range(3)
    )
    return Frame(CHART3, members, gram)


def test_tensor_apply_is_multilinear_over_functions():
    frame = _coordinate_frame()
    g = frame.metric_tensor()
    x = vf("x", "0", "1")
    y = vf("0", "exp(z)", "y")
    f = sc("x^2*exp(-z)")
    left = tensor_apply(g, (x.scale(f), y))
    right = f * tensor_apply(g, (x, y))
    assert (left - right).is_zero()


@settings(max_examples=100, deadline=None)
@given(frames3(), scalars())
def test_differential_of_product_obeys_leibniz(frame, f):
    g = parse_scalar("x*exp(z)", frame.chart.symbols)
    df = differential(f, frame)
    dg = differential(g, frame)
    dfg = differential(f * g, frame)
    for i in range(frame.dim):
        lhs = dfg.on_member(i)
        rhs = f * dg.on_member(i) + g * df.on_member(i)
        assert (lhs - rhs).is_zero()


@settings(max_examples=100, deadline=None)
@given(frames3(), scalars())
def test_second_exterior_derivative_vanishes(frame, f):
    ddf = exterior_derivative(differential(f, frame))
    assert ddf.is_zero()


def test_exterior_derivative_coordinate_example():
    frame = _coordinate_frame()
    omega = OneForm(frame, (sc("0"), sc("x"), sc("0")))  # x dy
    d_omega = exterior_derivative(omega)
    assert d_omega[0, 1] == sc("1")
    assert d_omega[1, 0] == sc("-1")
    assert d_omega[0, 2].is_zero() and d_omega[1, 2].is_zero()


def test_one_form_evaluates_against_frame_expansion():
    frame = _coordinate_frame()
    eta = OneForm(frame, (sc("0"), sc("0"), sc("1")))
    assert eta(vf("x", "y", "z")) == sc("z")
    assert eta.on_member(2) == sc("1")


def test_tensor_getitem_rejects_indices_outside_the_frame():
    frame = _coordinate_frame()
    t = Tensor.build(frame, 0, 2, lambda i, j: sc("x") if (i, j) == (1, 0) else sc("0"))
    assert t[1, 0] == sc("x")
    for idx in ((0, 3), (3, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValenceError):
            t[idx]


# -- the contraction primitive ------------------------------------------------


def _matrices():
    return st.lists(scalars(), min_size=9, max_size=9).map(
        lambda xs: (tuple(xs[0:3]), tuple(xs[3:6]), tuple(xs[6:9]))
    )


@settings(max_examples=100, deadline=None)
@given(_matrices(), _matrices(), st.lists(scalars(), min_size=3, max_size=3))
def test_contract_agrees_with_written_out_sums(a, b, v):
    got = contract(
        "a[ij] b[jk] v[k] - 2 a[ki] v[k] delta[ij] + c b[ij] -> ij",
        a=a,
        b=Tensor(_coordinate_frame(), 0, 2, tuple(c for row in b for c in row)),
        v=v,
        c=Fraction(1, 3),
    )
    for (i, j), value in zip(itertools.product(range(3), repeat=2), got):
        want = a[i][j] * sum((b[j][k] * v[k] for k in range(3)), CHART3.zero())
        if i == j:
            want = want - sum((a[k][i] * v[k] for k in range(3)), CHART3.zero()) * 2
        want = want + b[i][j] * Fraction(1, 3)
        assert value == want


def test_contract_traces_repeated_letters_and_returns_scalars():
    m = (
        (sc("x"), sc("1"), sc("0")),
        (sc("y"), sc("exp(z)"), sc("0")),
        (sc("0"), sc("0"), sc("-1")),
    )
    assert contract("m[ii] ->", m=m) == sc("x + exp(z) - 1")
    assert contract("m[ij] delta[ij] - 1 ->", m=m) == sc("x + exp(z) - 2")
    flat = tuple(c for row in m for c in row)
    transposed = tuple(m[j][i] for i in range(3) for j in range(3))
    assert contract("m[ji] -> ij", m=flat) == transposed


@pytest.mark.parametrize(
    "spec",
    [
        "m[ij]",  # no output part
        "m[ij] -> ik",  # output letter missing from the term
        "m[ij] + m[ii] -> ij",  # second term lacks j
        "m[ij] -> ii",  # repeated output letter
        "m[iJ] -> i",  # bad factor
        "m[ij] + -> ij",  # empty term
        "q[ij] -> ij",  # no such operand
    ],
)
def test_contract_rejects_malformed_specs(spec):
    m = ((sc("x"),) * 3,) * 3
    with pytest.raises(ValueError):
        contract(spec, m=m)


def test_contract_rejects_operands_that_do_not_fit():
    frame = _coordinate_frame()
    with pytest.raises(ValenceError):
        contract("g[ijk] -> i", g=frame.metric_tensor())
    with pytest.raises(ValenceError):
        contract("u[i] v[i] ->", u=(sc("x"),) * 3, v=(sc("x"),) * 5)
