from fractions import Fraction
from pathlib import Path

import ast
import itertools
import time

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from oracle import to_sympy
from strategies import CHART3, frames3, scalars, unit_scalars, vector_fields
from strategies import dense, parse_scalar, tabulate
from parakenmotsu.geometry import (
    Chart,
    Frame,
    Tensor,
    ValenceError,
    contract,
    derivatives,
    exterior_derivative,
    mat_det,
    mat_inverse,
    mat_rank,
)
from parakenmotsu.dsl import load_manifold
from parakenmotsu.scalar import NonInvertible, Rational, ScalarExpr, TooManyTerms


def sc(text):
    return parse_scalar(text, CHART3.symbols)


def vf(*texts):
    """A vector from its frame components."""
    return dense([sc(t) for t in texts], 1, 3)


def scaled(x, f):
    return contract("f x[i] -> i", f=f, x=x)


def pair(g, x, y):
    """g(x, y) of a (0,2) tensor g and two vectors."""
    return contract("g[ij] x[i] y[j] ->", g=g, x=x, y=y)


def members(*rows):
    """The member matrix of a frame on CHART3 from its rows of coordinate components."""
    return dense([sc(t) for row in rows for t in row], 2, 3)


def square(rows):
    """The rank-2 Components of a square matrix given by its rows."""
    return dense([e for row in rows for e in row], 2, len(rows))


def rows_of(m):
    """The rows of a rank-2 Components."""
    return [[m[i, j] for j in range(m.dim)] for i in range(m.dim)]


def test_chart_rejects_even_dimension():
    with pytest.raises(ValueError):
        Chart(("x", "y"))
    with pytest.raises(ValueError):
        Chart(("x", "y", "z"), params=("x",))


def test_chart_params_are_constant_symbols():
    chart = Chart(("x", "y", "z"), params=("mu",))
    one, zero = chart.const(1), chart.zero()
    identity = dense([one, zero, zero, zero, one, zero, zero, zero, one], 2, 3)
    frame = Frame(chart, identity, (1, -1, 1))
    along = [dense((chart.coordinate(name),), 0, 3) for name in ("mu", "x")]
    assert derivatives(frame, along[0]).nonzero() == ()
    assert derivatives(frame, along[1]).nonzero() == (((0,), one),)


_WARPED = members(("exp(z)", "0", "0"), ("0", "exp(z)", "0"), ("0", "0", "-1"))


def test_bracket_of_warped_members():
    # [E1, E3] = E1 and [E2, E3] = E2 for E1 = e^z d/dx, E2 = e^z d/dy, E3 = -d/dz
    c = Frame(CHART3, _WARPED, (1, -1, 1)).structure_constants
    one = sc("1")
    assert c.nonzero() == (
        ((0, 2, 0), one),
        ((1, 2, 1), one),
        ((2, 0, 0), -one),
        ((2, 1, 1), -one),
    )


def test_bracket_coordinate_fields_commute():
    assert _coordinate_frame().structure_constants.nonzero() == ()


@settings(max_examples=120, deadline=None)
@given(frames3())
def test_bracket_antisymmetry(frame):
    assert contract("c[ijk] + c[jik] -> ijk", c=frame.structure_constants).nonzero() == ()


@settings(max_examples=120, deadline=None)
@given(frames3())
def test_jacobi_identity(frame):
    # [E_i, [E_j, E_k]] = (E_i(c[jkl]) + c[jkm] c[iml]) E_l, summed cyclically
    c = frame.structure_constants
    total = contract(
        "dc[ijkl] + dc[jkil] + dc[kijl] + c[jkm] c[iml] + c[kim] c[jml] + c[ijm] c[kml]"
        " -> ijkl",
        dc=derivatives(frame, c),  # [i, j, k, l] = E_i(c[jkl])
        c=c,
    )
    assert total.nonzero() == ()


@settings(max_examples=8, deadline=None)
@given(frames3())
def test_brackets_match_oracle_on_random_frames(frame):
    coords = frame.chart.coords
    expected = oracle.frame_brackets(coords, oracle.frame_members(frame))
    c = frame.structure_constants
    for i, j, k in itertools.product(range(3), repeat=3):
        assert oracle.is_zero(to_sympy(c[i, j, k], coords) - expected[i][j][k]), (i, j, k)


def test_mat_det_and_inverse_triangular():
    zero = CHART3.zero()
    m = [
        [sc("exp(z)"), zero, zero],
        [sc("x"), sc("2"), zero],
        [sc("y^2"), sc("x*y"), sc("-1/3*exp(-z)")],
    ]
    det = mat_det(square(m))
    assert det == sc("-2/3")
    inv = mat_inverse(square(m))
    for i in range(3):
        for j in range(3):
            acc = zero
            for k in range(3):
                acc = acc + m[i][k] * inv[k, j]
            assert acc == (sc("1") if i == j else zero)


def test_mat_inverse_rejects_singular():
    m = [[sc("x"), sc("x")], [sc("1"), sc("1")]]
    with pytest.raises(NonInvertible):
        mat_inverse(square(m))


# -- determinant and inverse against sympy ------------------------------------
#
# The oracle writes exp(a*x + b*y + c*z) as E_x^a * E_y^b * E_z^c, so every
# entry is a Laurent polynomial, and takes sympy's determinant and rank by
# Gaussian elimination over the fraction field with sympy's own
# cancellation, which shares nothing with the package's block split,
# fraction-free elimination and exact division in the scalar ring.

_EXP = dict(zip(CHART3.symbols, sp.symbols("E_x E_y E_z")))


def _sympy(expr):
    def unwrap(arg):
        return sp.Mul(*(e ** arg.coeff(sp.Symbol(s)) for s, e in _EXP.items()))

    return to_sympy(expr, CHART3.symbols).replace(sp.exp, unwrap)


def _sympy_matrix(m):
    return sp.Matrix([[_sympy(e) for e in row] for row in m])


def _entries(exp_monomials: bool):
    """Small integers, or also single terms q * x^k * exp(l)."""
    integers = st.integers(-2, 2).map(CHART3.const)
    return st.one_of(integers, scalars(max_terms=1)) if exp_monomials else integers


@st.composite
def _unit_triangular_product(draw, d: int, exp_monomials: bool):
    """L*U for lower and upper triangular L, U whose diagonal entries are units."""
    zero = CHART3.zero()
    diagonal = unit_scalars() if exp_monomials else st.sampled_from((1, -1)).map(CHART3.const)
    entries = _entries(exp_monomials)

    def triangular(lower: bool):
        return tuple(
            tuple(
                draw(diagonal) if i == j else draw(entries) if (j < i) == lower else zero
                for j in range(d)
            )
            for i in range(d)
        )

    lower, upper = (square(triangular(t)) for t in (True, False))
    prod = contract("l[ij] u[jk] -> ik", l=lower, u=upper)
    return tuple(tuple(prod[i, j] for j in range(d)) for i in range(d))


@st.composite
def _permuted_block_diagonal(draw):
    """Exp-monomial blocks of size 1..3 on the diagonal, rows and columns shuffled."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= 8))
    d, zero = sum(sizes), CHART3.zero()
    m, at = [[zero] * d for _ in range(d)], 0
    for size in sizes:
        block = draw(_unit_triangular_product(size, exp_monomials=True))
        for i, j in itertools.product(range(size), repeat=2):
            m[at + i][at + j] = block[i][j]
        at += size
    rows, cols = draw(st.permutations(range(d))), draw(st.permutations(range(d)))
    return tuple(tuple(m[r][c] for c in cols) for r in rows)


def _invertible_matrices():
    return st.one_of(
        st.integers(1, 8).flatmap(lambda d: _unit_triangular_product(d, exp_monomials=False)),
        st.integers(1, 4).flatmap(lambda d: _unit_triangular_product(d, exp_monomials=True)),
        _permuted_block_diagonal(),
    )


@settings(max_examples=100, deadline=None)
@given(_invertible_matrices())
def test_mat_det_and_inverse_agree_with_sympy(m):
    d = len(m)
    assert sp.cancel(_sympy_matrix(m).det(method="domain-ge") - _sympy(mat_det(square(m)))) == 0
    inverse = rows_of(mat_inverse(square(m)))
    product = (_sympy_matrix(m) * _sympy_matrix(inverse)).applyfunc(sp.expand)
    assert product == sp.eye(d)


@st.composite
def _singular_matrices(draw):
    """An invertible matrix broken in one of four ways."""
    m = [list(row) for row in draw(_invertible_matrices())]
    d, zero = len(m), CHART3.zero()
    how = draw(st.sampled_from(("zero row", "non-square block", "dependent rows", "non-unit")))
    r, s = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if how == "zero row" or d == 1:
        m[r] = [zero] * d
    elif how == "non-square block":
        # as in dependent_frame.pk: two columns supported on one row only
        s = (r + 1) % d if r == s else s
        for i, j in itertools.product(range(d), (r, s)):
            m[i][j] = draw(unit_scalars()) if i == r else zero
        m[r] = [m[r][j] if j in (r, s) else zero for j in range(d)]
    elif how == "dependent rows":
        s = (r + 1) % d if r == s else s
        factor = draw(scalars(max_terms=1).filter(lambda f: not f.is_zero()))
        m[s] = [factor * e for e in m[r]]
    else:
        m[r] = [CHART3.coordinate("x") * e for e in m[r]]
    return tuple(map(tuple, m))


@settings(max_examples=100, deadline=None)
@given(_singular_matrices())
def test_singular_matrices_report_their_determinant(m):
    det = mat_det(square(m))
    assert sp.cancel(_sympy_matrix(m).det(method="domain-ge") - _sympy(det)) == 0
    with pytest.raises(NonInvertible) as info:
        mat_inverse(square(m))
    assert str(info.value) == f"matrix is not invertible over the ring: det = {det}"


def test_mat_rank_counts_independent_rows():
    zero = CHART3.zero()
    rows = [[sc("1"), sc("x")], [sc("2"), sc("2*x")], [sc("0"), sc("exp(z)")]]
    assert mat_rank(rows, zero) == 2
    assert mat_rank([[zero, zero]], zero) == 0


@settings(max_examples=100, deadline=None)
@given(st.one_of(_invertible_matrices(), _singular_matrices()))
def test_mat_rank_agrees_with_sympy(m):
    expected = _sympy_matrix(m).rank(iszerofunc=lambda e: sp.cancel(e) == 0)
    assert mat_rank(m, CHART3.zero()) == expected


def test_mat_rank_is_held_to_the_term_bound():
    """Check A10 ranks phi -+ I, and the DSL reports the bound at the phi
    lines; here the second pivot 1 - f g has 1,599 terms."""
    f, g = (sc(" + ".join(f"{v}^{i}" for i in range(40))) for v in "xy")
    with pytest.raises(TooManyTerms):
        mat_rank([[sc("-1"), f], [g, sc("-1")]], CHART3.zero())


def test_dense_six_by_six_determinant_is_fast():
    """The leading 6 x 6 block of hostile7.pk's rows, L*U for triangular L
    and U whose diagonals are units, has a single-term determinant."""
    doc = load_manifold(Path(__file__).parent / "data" / "malformed" / "hostile7.pk")
    zero = ScalarExpr.zero(doc.coords)
    rows = [{target[3:]: c for c, target in combo} for _, combo in doc.frames[:6]]
    m = square([[row.get(x, zero) for x in doc.coords[:6]] for row in rows])
    start = time.perf_counter()
    det = mat_det(m)
    assert time.perf_counter() - start < 0.1
    assert det == parse_scalar("exp(y + u + 2*v + w + t)", doc.coords)


@settings(max_examples=120, deadline=None)
@given(frames3(), vector_fields())
def test_frame_expansion_round_trip(frame, x):
    # frame components to coordinate components through the member matrix,
    # and back through its inverse
    coord = contract("x[k] m[ka] -> a", x=x, m=frame.members)
    back = contract("inv[ka] v[a] -> k", inv=frame.component_inverse, v=coord)
    assert back == x


@settings(max_examples=100, deadline=None)
@given(frames3())
def test_metric_is_the_diagonal_of_signs_and_its_own_inverse(frame):
    g = frame.metric_tensor
    for i, j in itertools.product(range(3), repeat=2):
        assert g[i, j] == CHART3.const(frame.signs[i] if i == j else 0)
    assert contract("g[ij] g[jk] - delta[ik] -> ik", g=g).nonzero() == ()


def test_metric_vv_agrees_with_gram_on_members():
    e1, e2 = vf("1", "0", "0"), vf("0", "1", "0")
    g = Frame(CHART3, _WARPED, (1, -1, 1)).metric_tensor
    assert pair(g, e1, e1) == sc("1")
    assert pair(g, e2, e2) == sc("-1")
    assert pair(g, e1, e2).is_zero()
    # bilinearity over functions of the first argument
    assert pair(g, scaled(e1, sc("x*exp(z)")), scaled(e2, sc("y"))).is_zero()
    assert pair(g, scaled(e1, sc("x")), e1) == sc("x")


def test_frame_rejects_signs_that_are_not_one_unit_per_member():
    identity = _coordinate_frame().members
    for signs in ((1, 2, 1), (1, 0, -1), (1, -1), (1, -1, 1, 1)):
        with pytest.raises(ValenceError, match="entries of \\+1 or -1"):
            Frame(CHART3, identity, signs)
    # each sign prints as a number, and rational +-1s are stored as ints
    with pytest.raises(ValenceError, match=r"^frame signs \(1, 1/2, -1\) are not 3 entries"):
        Frame(CHART3, identity, (Fraction(1), Fraction(1, 2), Rational(-1)))
    signs = Frame(CHART3, identity, (Fraction(1), Rational(-1), 1)).signs
    assert signs == (1, -1, 1) and {type(q) for q in signs} == {int}


def test_tensor_first_nonzero_reports_index_and_value():
    frame = _coordinate_frame()
    t = tabulate(frame, 0, 2, lambda i, j: sc("y") if (i, j) == (1, 2) else sc("0"))
    idx, expr = t.first_nonzero()
    assert idx == (1, 2)
    assert expr == sc("y")
    assert tabulate(frame, 0, 1, lambda i: sc("0")).first_nonzero() is None


def _coordinate_frame():
    identity = members(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))
    return Frame(CHART3, identity, (1, -1, 1))


def test_pairing_with_vectors_is_multilinear_over_functions():
    frame = _coordinate_frame()
    g = frame.metric_tensor
    x = vf("x", "0", "1")
    y = vf("0", "exp(z)", "y")
    f = sc("x^2*exp(-z)")
    left = pair(g, scaled(x, f), y)
    right = f * pair(g, x, y)
    assert (left - right).is_zero()


def differential(f, frame):
    """df as a (0,1) tensor on the frame: df(E_i) = E_i(f)."""
    return Tensor(frame, 0, 1, derivatives(frame, dense((f,), 0, frame.dim)))


@settings(max_examples=100, deadline=None)
@given(frames3(), scalars())
def test_differential_of_product_obeys_leibniz(frame, f):
    g = parse_scalar("x*exp(z)", frame.chart.symbols)
    df = differential(f, frame)
    dg = differential(g, frame)
    dfg = differential(f * g, frame)
    for i in range(frame.dim):
        lhs = dfg[i]
        rhs = f * dg[i] + g * df[i]
        assert (lhs - rhs).is_zero()


@settings(max_examples=100, deadline=None)
@given(frames3(), scalars())
def test_second_exterior_derivative_vanishes(frame, f):
    ddf = exterior_derivative(differential(f, frame))
    assert ddf.is_zero()


def test_exterior_derivative_coordinate_example():
    frame = _coordinate_frame()
    omega = Tensor(frame, 0, 1, dense((sc("0"), sc("x"), sc("0")), 1, 3))  # x dy
    d_omega = exterior_derivative(omega)
    assert d_omega[0, 1] == sc("1")
    assert d_omega[1, 0] == sc("-1")
    assert d_omega[0, 2].is_zero() and d_omega[1, 2].is_zero()


def test_one_form_evaluates_against_frame_expansion():
    frame = _coordinate_frame()
    eta = Tensor(frame, 0, 1, dense((sc("0"), sc("0"), sc("1")), 1, 3))
    assert contract("eta[i] v[i] ->", eta=eta, v=vf("x", "y", "z")) == sc("z")
    assert eta[2] == sc("1")


def test_tensor_getitem_rejects_indices_outside_the_frame():
    frame = _coordinate_frame()
    t = tabulate(frame, 0, 2, lambda i, j: sc("x") if (i, j) == (1, 0) else sc("0"))
    assert t[1, 0] == sc("x")
    for idx in ((0, 3), (3, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValenceError):
            t[idx]


def test_tensor_rejects_components_that_are_not_a_table():
    # a plain or nested sequence is refused as `contract` refuses it as an operand
    frame = _coordinate_frame()
    one = sc("1")
    for components in ([one] * 3, (one,) * 3, [[one] * 3] * 3, None):
        with pytest.raises(ValenceError):
            Tensor(frame, 0, 1, components)
    with pytest.raises(ValenceError):
        Tensor(frame, 0, 1, dense([one] * 9, 2, 3))


# -- sparse Components ---------------------------------------------------------


def _mostly_zero():
    return st.one_of(st.just(CHART3.zero()), st.just(CHART3.zero()), scalars())


def _dense_tables():
    """(rank, values): a row-major table over range(3), zeros likely."""
    return st.integers(0, 3).flatmap(
        lambda rank: st.tuples(
            st.just(rank), st.lists(_mostly_zero(), min_size=3**rank, max_size=3**rank)
        )
    )


@settings(max_examples=100, deadline=None)
@given(_dense_tables())
def test_components_round_trip_a_dense_table_in_row_major_order(table):
    rank, values = table
    c = dense(values, rank, 3)
    idx = list(itertools.product(range(3), repeat=rank))
    assert (c.rank, c.dim, len(c)) == (rank, 3, 3**rank)
    assert list(c) == values
    assert c.nonzero() == tuple((i, v) for i, v in zip(idx, values) if not v.is_zero())
    for i, v in zip(idx, values):
        assert c[i] == v
        if v.is_zero():  # a lookup off the stored entries
            assert c[i] is c.zero
    assert c.zero == CHART3.zero()
    if rank == 1:
        assert [c[i] for i in range(3)] == values


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(0, 1), (0, 2), (1, 1), (1, 2)]), st.data())
def test_tensor_sum_and_difference_equal_dense_arithmetic(valence, data):
    r, s = valence
    size, frame = 3 ** (r + s), _coordinate_frame()
    a, b = (data.draw(st.lists(_mostly_zero(), min_size=size, max_size=size)) for _ in "ab")
    ta, tb = (Tensor(frame, r, s, dense(x, r + s, 3)) for x in (a, b))
    ij = "ijk"[: r + s]
    plus, minus, negated, zero = (
        contract(spec.format(ij) + f" -> {ij}", a=ta, b=tb)
        for spec in ("a[{0}] + b[{0}]", "a[{0}] - b[{0}]", "- a[{0}]", "a[{0}] - a[{0}]")
    )
    assert list(plus) == [x + y for x, y in zip(a, b)]
    assert list(minus) == [x - y for x, y in zip(a, b)]
    assert list(negated) == [-x for x in a]
    assert zero.nonzero() == () and list(zero) == [CHART3.zero()] * size
    for t in (plus, minus, negated):
        assert all(not v.is_zero() for _, v in t.nonzero())


_ARITHMETIC = {
    f"__{op}__" for base in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "pow")
    for op in (base, "r" + base, "i" + base)
} | {"__neg__", "__pos__", "scale", "map", "_merge", "_match"}


def test_tensor_and_components_hold_no_arithmetic():
    """Every tensor sum or multiple is one `contract` call: neither class
    defines an arithmetic method, and no helper applies a tensor to vectors."""
    source = Path(__file__).parent.parent / "src" / "parakenmotsu" / "geometry.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    top = {node.name: node for node in tree.body if hasattr(node, "name")}
    assert "tensor_apply" not in top
    for cls in ("Tensor", "Components"):
        names = {node.name for node in top[cls].body if hasattr(node, "name")} | {
            target.id
            for node in top[cls].body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        }
        assert not names & _ARITHMETIC, (cls, sorted(names & _ARITHMETIC))


def test_contract_with_an_all_zero_operand_returns_zero_on_its_chart():
    chart = Chart(("x", "y", "z"), params=("mu",))
    zero, mu = chart.zero(), chart.coordinate("mu")
    table = dense([zero] * 9, 2, 3)
    vector = dense([mu, zero, mu], 1, 3)
    assert table.nonzero() == () and table.zero == zero
    for out in (
        contract("a[ij] b[jk] -> ik", a=table, b=table),
        contract("a[ij] v[j] -> i", a=table, v=vector),
    ):
        assert out.nonzero() == ()
        assert out.zero == zero and all(v == zero for v in out)
    assert contract("a[ij] a[ij] ->", a=table) == zero
    assert contract("a[ij] v[i] v[j] ->", a=table, v=vector) == zero


# -- the contraction primitive ------------------------------------------------


def _matrices():
    return st.lists(scalars(), min_size=9, max_size=9).map(
        lambda xs: (tuple(xs[0:3]), tuple(xs[3:6]), tuple(xs[6:9]))
    )


def _sparse_matrices():
    """Mostly-zero matrices, all-zero ones included."""
    entry = st.one_of(st.just(CHART3.zero()), st.just(CHART3.zero()), scalars())
    rows = st.lists(entry, min_size=9, max_size=9)
    zero = [CHART3.zero()] * 9
    return st.one_of(st.just(zero), rows).map(
        lambda xs: (tuple(xs[0:3]), tuple(xs[3:6]), tuple(xs[6:9]))
    )


def _dense_nonzero(components, rank):
    idx = itertools.product(range(3), repeat=rank)
    return tuple((i, c) for i, c in zip(idx, components) if not c.is_zero())


@settings(max_examples=100, deadline=None)
@given(
    _matrices(),
    st.one_of(_matrices(), _sparse_matrices()),
    st.lists(scalars(), min_size=3, max_size=3),
)
def test_contract_agrees_with_written_out_sums(a, b, v):
    frame = _coordinate_frame()
    tb = Tensor(frame, 0, 2, square(b))
    got = contract(
        "a[ij] b[jk] v[k] - 2 a[ki] v[k] delta[ij] + c b[ij] + b[kk] a[ji] -> ij",
        a=square(a),
        b=tb,
        v=dense(v, 1, 3),
        c=Fraction(1, 3),
    )
    trace = sum((b[k][k] for k in range(3)), CHART3.zero())
    for (i, j), value in zip(itertools.product(range(3), repeat=2), got):
        want = a[i][j] * sum((b[j][k] * v[k] for k in range(3)), CHART3.zero())
        if i == j:
            want = want - sum((a[k][i] * v[k] for k in range(3)), CHART3.zero()) * 2
        want = want + b[i][j] * Fraction(1, 3) + trace * a[j][i]
        assert value == want
    # the stored nonzero pairs, from a dense scan or from contract, equal a dense scan
    assert tb.nonzero() == _dense_nonzero(tb.components, 2)
    assert got.nonzero() == _dense_nonzero(got, 2)
    handed = Tensor.build(frame, 0, 2, got)
    assert handed.nonzero() is got.nonzero()
    assert handed.is_zero() == all(c.is_zero() for c in got)
    assert handed.first_nonzero() == next(iter(_dense_nonzero(got, 2)), None)
    # a diagonal, a repeated letter and delta over a mostly-zero operand
    diagonal = contract("b[ii] delta[ij] + b[kk] b[ij] -> ij", b=tb)
    assert diagonal.nonzero() == _dense_nonzero(diagonal, 2)
    for (i, j), value in zip(itertools.product(range(3), repeat=2), diagonal):
        assert value == (b[i][i] if i == j else CHART3.zero()) + trace * b[i][j]


def _integer_first(value):
    """Every stored coefficient an `int` unless its denominator is not 1."""
    return all(t.coeff.__class__ is int or t.coeff.denominator != 1 for t in value.terms)


@settings(max_examples=100, deadline=None)
@given(
    _matrices(),
    _matrices(),
    st.lists(st.booleans(), min_size=3, max_size=3),
    st.lists(scalars(), min_size=3, max_size=3),
    st.lists(scalars(), min_size=3, max_size=3),
)
def test_contract_cancels_merges_and_demotes_like_written_out_sums(a, other, same, v, u):
    zero, half = CHART3.zero(), Fraction(1, 2)
    av = [sum((a[i][j] * v[j] for j in range(3)), zero) for i in range(3)]
    # b agrees with a on the rows marked `same`: there the two terms cancel,
    # and the output index is absent from the stored pairs
    b = tuple(a[i] if same[i] else other[i] for i in range(3))
    got = contract("a[ij] v[j] - b[ij] v[j] -> i", a=square(a), b=square(b), v=dense(v, 1, 3))
    for i, value in enumerate(got):
        bv = sum((b[i][j] * v[j] for j in range(3)), zero)
        assert value == av[i] - bv
        assert _integer_first(value)
    assert got.nonzero() == _dense_nonzero(got, 1)
    assert not {i for i in range(3) if same[i]} & {i for (i,), _ in got.nonzero()}
    # two halves of each product: the merged coefficients reach a·v's, and
    # an integral one, such as 1/2 + 1/2 of an odd coefficient, is an int
    halves = contract(
        "half a[ij] v[j] + v[j] a[ij] half -> i", half=half, a=square(a), v=dense(v, 1, 3)
    )
    assert tuple(halves) == tuple(av)
    assert all(_integer_first(value) for value in halves)
    # a 3-factor term and constant-only terms in one scalar spec
    scalar = contract(
        "u[i] a[ij] v[j] - half - 1 - half ->",
        u=dense(u, 1, 3),
        a=square(a),
        v=dense(v, 1, 3),
        half=half,
    )
    want = sum((u[i] * av[i] for i in range(3)), zero) - 2
    assert scalar == want
    assert _integer_first(scalar)


def test_contract_traces_repeated_letters_and_returns_scalars():
    m = (
        (sc("x"), sc("1"), sc("0")),
        (sc("y"), sc("exp(z)"), sc("0")),
        (sc("0"), sc("0"), sc("-1")),
    )
    flat = square(m)
    assert contract("m[ii] ->", m=flat) == sc("x + exp(z) - 1")
    assert contract("m[ij] delta[ij] - 1 ->", m=flat) == sc("x + exp(z) - 2")
    transposed = tuple(m[j][i] for i in range(3) for j in range(3))
    assert tuple(contract("m[ji] -> ij", m=flat)) == transposed


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
    m = dense((sc("x"),) * 9, 2, 3)
    with pytest.raises(ValueError):
        contract(spec, m=m)


def test_contract_rejects_operands_that_do_not_fit():
    frame = _coordinate_frame()
    with pytest.raises(ValenceError):
        contract("g[ijk] -> i", g=frame.metric_tensor)
    three, five = dense((sc("x"),) * 3, 1, 3), dense((sc("x"),) * 5, 1, 5)
    with pytest.raises(ValenceError):
        contract("u[i] v[i] ->", u=three, v=five)
    # a plain or nested sequence is no operand, however well it fits
    with pytest.raises(ValenceError):
        contract("u[i] v[i] ->", u=tuple(three), v=three)
    with pytest.raises(ValenceError):
        contract("m[ij] v[j] -> i", m=(tuple(three),) * 3, v=three)
