from fractions import Fraction

import itertools
import tracemalloc
from pathlib import Path

import pytest

import oracle
from parakenmotsu.connection import koszul_connection
from parakenmotsu.dsl import load_manifold
from parakenmotsu.curvature import ricci, ricci_operator, riemann, w2_tensor
from parakenmotsu.fixtures import build_flat, build_warped
from parakenmotsu.geometry import Components, Tensor, ValenceError, contract
from parakenmotsu import soliton
from parakenmotsu.scalar import ScalarExpr, parse_scalar
from parakenmotsu.suite import Products
from parakenmotsu.soliton import (
    ConditionKind,
    FactorError,
    NoConstantSolution,
    NotInSpan,
    NotMultiple,
    NotParallel,
    SolitonSolution,
    _generic,
    _ratio_against_shape,
    canonical_factor,
    condition_check,
    condition_residual,
    condition_residual_xi_paired,
    mu_zero_variant_check,
    parallel_tensor_classify,
    phi_ricci_prefactor,
    phi_ricci_symmetric_check,
    quasi_einstein_decompose,
    rational_roots,
    soliton_from_parallel_check,
    solve_soliton,
    symbolic_factor_check,
    theorem_expected,
)


@pytest.fixture(scope="module", params=[1, 2])
def pipeline(request):
    n = request.param
    s = build_warped(n)
    conn = koszul_connection(s.frame)
    riem = riemann(conn)
    S = ricci(riem)
    return n, s, conn, riem, S


def _operator(kind, riem, w2):
    """The kind's operator: R for R.S and S.R, W2 for W2.S and S.W2."""
    return w2 if kind in (ConditionKind.W2_DOT_S, ConditionKind.S_DOT_W2) else riem


# -- solving ------------------------------------------------------------------


def test_soliton_constants_are_frozen(pipeline):
    n, s, conn, riem, S = pipeline
    sol = solve_soliton(s, S)
    assert (sol.lam, sol.mu) == (Fraction(2 * n - 1), Fraction(1))
    assert sol.lam + sol.mu == 2 * n
    assert sol.classification == "Einstein"


def test_solution_invariant_rejects_wrong_sum():
    with pytest.raises(ValueError):
        SolitonSolution(Fraction(1), Fraction(2), 1)


def test_solution_classification_eta_case():
    sol = SolitonSolution(Fraction(-1), Fraction(3), 1)
    assert sol.classification == "quasi-Einstein"


def test_no_constant_solution_on_doctored_ricci(pipeline):
    n, s, conn, riem, S = pipeline
    x = s.frame.chart.coordinate("x1" if n > 1 else "x")
    doctored = S + Tensor.build(
        s.frame, 0, 2,
        lambda i, j: x if i == j == 0 else s.frame.chart.zero(),
    )
    with pytest.raises(NoConstantSolution):
        solve_soliton(s, doctored)


def test_quasi_einstein_split_round_trips(pipeline):
    n, s, conn, riem, S = pipeline
    sol = solve_soliton(s, S)
    a, b = quasi_einstein_decompose(S, s.metric(), s.eta)
    assert a == -(sol.lam + 1)
    assert b == -(sol.mu - 1)
    # and directly: S = -2n g means a = -2n, b = 0
    assert a == Fraction(-2 * n)
    assert b == 0


def test_quasi_einstein_split_detects_eta_component(pipeline):
    n, s, conn, riem, S = pipeline
    shifted = S + s.eta_square().scale(Fraction(5, 2))
    a, b = quasi_einstein_decompose(shifted, s.metric(), s.eta)
    assert a == Fraction(-2 * n)
    assert b == Fraction(5, 2)


def test_quasi_einstein_split_witnesses(pipeline):
    n, s, conn, riem, S = pipeline
    d, x = s.dim, s.chart.coordinate("x1" if n > 1 else "x")

    def witness(t, eta=s.eta):
        with pytest.raises(NotInSpan) as info:
            quasi_einstein_decompose(t, s.metric(), eta)
        return str(info.value)

    def bump(at, value):
        zero = s.chart.zero()
        return S + Tensor.build(s.frame, 0, 2, lambda *idx: value if idx in at else zero)

    # the pivot E1, then xi = E_d, then the first nonzero residual component
    assert witness(bump({(0, 0)}, x)) == f"component [E1, E1]: {-2 * n} + {x}"
    assert witness(bump({(d - 1, d - 1)}, x)) == f"component [xi, xi]: {-2 * n} + {x}"
    assert witness(bump({(0, 1), (1, 0)}, s.chart.const(1))) == "[E1, E2]: 1"
    nowhere_zero = Tensor(s.frame, 0, 1, [s.chart.const(1)] * d)
    assert witness(S, nowhere_zero) == "no diagonal frame direction annihilated by eta"


# -- the four curvature conditions --------------------------------------------


def test_condition_residual_vanishing_pattern(pipeline):
    n, s, conn, riem, S = pipeline
    q = ricci_operator(S)
    w2 = w2_tensor(riem, q, n)
    sol = solve_soliton(s, S)
    expected_zero = {
        ConditionKind.R_DOT_S: True,  # (2n-1, 1) is the advertised pair
        ConditionKind.S_DOT_R: False,  # (-2n-1, 4n+1) is not our solution
        ConditionKind.W2_DOT_S: True,
        ConditionKind.S_DOT_W2: True,
    }
    for kind, want in expected_zero.items():
        residual = condition_residual(kind, s, _operator(kind, riem, w2), S)
        assert residual.is_zero() == want, kind
        assert ((sol.lam, sol.mu) in theorem_expected(kind, n)) == want
        witness = condition_check(kind, s, residual, sol)
        assert witness is None, (kind, witness)


def test_xi_paired_residual_vanishes_with_full(pipeline):
    n, s, conn, riem, S = pipeline
    w2 = w2_tensor(riem, ricci_operator(S), n)
    for kind in (ConditionKind.S_DOT_R, ConditionKind.S_DOT_W2):
        full = condition_residual(kind, s, _operator(kind, riem, w2), S)
        paired = condition_residual_xi_paired(kind, s, full)
        assert full.is_zero() == paired.is_zero()


def test_condition_check_claims_only_the_proven_direction(pipeline):
    n, s, conn, riem, S = pipeline
    w2 = w2_tensor(riem, ricci_operator(S), n)
    stray = SolitonSolution(Fraction(2 * n), Fraction(0), n)
    for kind in ConditionKind:
        residual = condition_residual(kind, s, _operator(kind, riem, w2), S)
        witness = condition_check(kind, s, residual, stray)
        # a vanishing residual at constants that are not advertised is refuted
        assert (witness is not None) == residual.is_zero(), kind
    # S.R: the advertised pair need not make the residual vanish
    sr = condition_residual(ConditionKind.S_DOT_R, s, riem, S)
    advertised = SolitonSolution(Fraction(-2 * n - 1), Fraction(4 * n + 1), n)
    assert not sr.is_zero()
    assert condition_check(ConditionKind.S_DOT_R, s, sr, advertised) is None
    # R.S keeps its proven converse: (2n - 1, 1) makes S Einstein
    einstein = solve_soliton(s, S)
    witness = condition_check(ConditionKind.R_DOT_S, s, S, einstein)
    assert "does not vanish but (lambda, mu)" in witness


def test_einstein_structure_of_non_constant_curvature_passes_every_condition():
    # Ricci-flat para-Kahler base warped by e^z: S = -4g, W2 != 0
    path = Path(__file__).parent / "data" / "ricciflat5.pk"
    p = Products(load_manifold(path).to_structure())
    assert (p.sol.lam, p.sol.mu) == (3, 1)
    zero = {kind: p.residual(kind).is_zero() for kind in ConditionKind}
    assert zero == {
        ConditionKind.R_DOT_S: True,
        ConditionKind.S_DOT_R: False,
        ConditionKind.W2_DOT_S: True,
        ConditionKind.S_DOT_W2: False,
    }
    for kind in ConditionKind:
        witness = condition_check(kind, p.s, p.residual(kind), p.sol)
        assert witness is None, (kind, witness)


# nonzero residual components (R.S, S.R, W2.S, S.W2) per document; nonein5
# is not Einstein, so its R.S residual does not vanish, the contrapositive
# of the paper's "R(xi, X).S = 0 implies Einstein"
_NONZERO_RESIDUALS = {"ricciflat5": (0, 288, 0, 256), "nonein5": (8, 112, 8, 112)}


@pytest.mark.parametrize("stem", list(_NONZERO_RESIDUALS))
def test_condition_residuals_match_oracle_on_para_kenmotsu_documents_of_non_constant_curvature(
    stem,
):
    # every residual the suite reads, against the oracle's own R, S and W2
    # built from the frame alone
    path = Path(__file__).parent / "data" / f"{stem}.pk"
    p = Products(load_manifold(path).to_structure())
    s, d = p.s, p.s.dim
    coords = s.chart.coords
    members = oracle.frame_members(s.frame)
    gram = oracle.diagonal_gram(s.frame.signs)
    R = oracle.frame_riemann(coords, members, gram)
    S = oracle.frame_ricci(coords, members, gram)
    xi = [oracle.to_sympy(c, coords) for c in s.xi]
    W = oracle.frame_w2(R, S, gram, s.n)
    expected = {
        ConditionKind.R_DOT_S: oracle.derivation_residual(R, S, xi),
        ConditionKind.S_DOT_R: oracle.eight_term_residual(R, S, xi),
        ConditionKind.W2_DOT_S: oracle.derivation_residual(W, S, xi),
        ConditionKind.S_DOT_W2: oracle.eight_term_residual(W, S, xi),
    }
    nonzero = {}
    for kind, want in expected.items():
        got = p.residual(kind)
        assert set(want) == set(itertools.product(range(d), repeat=got.rank))
        for idx, value in want.items():
            have = oracle.to_sympy(got[idx], coords) if got[idx].terms else 0
            assert oracle.is_zero(have - value), (kind, idx)
        nonzero[kind] = len(got.nonzero())
    assert nonzero == dict(zip(ConditionKind, _NONZERO_RESIDUALS[stem]))


@pytest.mark.parametrize("n", [1, 2])
def test_condition_residuals_match_oracle_on_generic_structure(n):
    # symbolic mu in the Ricci tensor keeps every residual nonzero
    s, conn, riem, mu, ricci_sym, q_sym = _generic(n)
    chart = s.frame.chart
    d = s.dim
    members = oracle.frame_members(s.frame)
    gram = oracle.diagonal_gram(s.frame.signs)
    R = oracle.frame_riemann(chart.coords, members, gram)
    S = [
        [oracle.to_sympy(ricci_sym[i, j], chart.symbols) for j in range(d)]
        for i in range(d)
    ]
    xi = [oracle.to_sympy(c, chart.symbols) for c in s.xi]
    W = oracle.frame_w2(R, S, gram, n)
    expected = {
        ConditionKind.R_DOT_S: oracle.derivation_residual(R, S, xi),
        ConditionKind.S_DOT_R: oracle.eight_term_residual(R, S, xi),
        ConditionKind.W2_DOT_S: oracle.derivation_residual(W, S, xi),
        ConditionKind.S_DOT_W2: oracle.eight_term_residual(W, S, xi),
    }
    w2 = w2_tensor(riem, q_sym, n)
    for kind, want in expected.items():
        got = condition_residual(kind, s, _operator(kind, riem, w2), ricci_sym)
        assert not got.is_zero(), kind
        assert set(want) == set(itertools.product(range(d), repeat=got.rank))
        for idx, value in want.items():
            have = oracle.to_sympy(got[idx], chart.symbols)
            assert oracle.is_zero(have - value), (kind, idx)


def test_condition_r_dot_s_is_trivial_for_metric(pipeline):
    # replacing S by the parallel g must give an identically zero residual,
    # guarding against a derivation that only vanishes accidentally
    n, s, conn, riem, S = pipeline
    residual = condition_residual(ConditionKind.R_DOT_S, s, riem, s.metric())
    assert residual.is_zero()


def test_s_dot_r_residual_at_n8_keeps_only_its_nonzero_components():
    # 1,024 of the 17^5 = 1,419,857 components are nonzero; a dense table of
    # them alone would hold 11 MB of pointers
    p = Products(build_warped(8))
    p.riem, p.ricci  # built outside the measurement
    tracemalloc.start()
    try:
        residual = p.residual(ConditionKind.S_DOT_R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(residual.components) == 17**5
    assert len(residual.nonzero()) == 1024
    assert peak < 8 * 2**20


def test_theorem_expected_pairs_are_frozen():
    assert theorem_expected(ConditionKind.R_DOT_S, 1) == {(1, 1)}
    assert theorem_expected(ConditionKind.S_DOT_R, 1) == {(-3, 5)}
    assert theorem_expected(ConditionKind.W2_DOT_S, 1) == {(1, 1), (-1, 3)}
    assert theorem_expected(ConditionKind.S_DOT_W2, 2) == {(3, 1), (-1, 5)}
    with pytest.raises(ValueError):
        theorem_expected(ConditionKind.R_DOT_S, 0)


# -- symbolic factor extraction ------------------------------------------------


FROZEN_FACTORS = {
    # kind -> n -> (polynomial text, scale, sorted mu roots)
    ConditionKind.R_DOT_S: {
        1: ("-1 + mu", Fraction(1), (Fraction(1),)),
        2: ("-1 + mu", Fraction(1), (Fraction(1),)),
        3: ("-1 + mu", Fraction(1), (Fraction(1),)),
    },
    ConditionKind.S_DOT_R: {
        1: ("5 - mu", Fraction(-1), (Fraction(5),)),
        2: ("9 - mu", Fraction(-1), (Fraction(9),)),
        3: ("13 - mu", Fraction(-1), (Fraction(13),)),
    },
    ConditionKind.W2_DOT_S: {
        1: ("-3 + 4*mu - mu^2", Fraction(1, 2), (Fraction(1), Fraction(3))),
        2: ("-5 + 6*mu - mu^2", Fraction(1, 4), (Fraction(1), Fraction(5))),
        3: ("-7 + 8*mu - mu^2", Fraction(1, 6), (Fraction(1), Fraction(7))),
    },
    ConditionKind.S_DOT_W2: {
        1: ("3 - 4*mu + mu^2", Fraction(1, 2), (Fraction(1), Fraction(3))),
        2: ("5 - 6*mu + mu^2", Fraction(1, 4), (Fraction(1), Fraction(5))),
        3: ("7 - 8*mu + mu^2", Fraction(1, 6), (Fraction(1), Fraction(7))),
    },
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", list(ConditionKind), ids=lambda k: k.value)
def test_symbolic_factor_polynomials_are_frozen(kind, n):
    result = symbolic_factor_check(kind, n)
    text, scale, roots = FROZEN_FACTORS[kind][n]
    assert str(result.polynomial) == text
    assert result.scale == scale
    assert tuple(sorted(rational_roots(result.polynomial))) == roots
    # roots pair with lambda = 2n - mu into exactly the advertised set
    pairs = {(Fraction(2 * n) - mu, mu) for mu in roots}
    assert pairs == theorem_expected(kind, n)
    # every advertised mu is nonzero: no plain Ricci soliton arises
    assert all(mu != 0 for _, mu in pairs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_factor_polynomials_match_canonical_forms(n):
    for kind in ConditionKind:
        got = symbolic_factor_check(kind, n).polynomial
        want = canonical_factor(kind, n)
        assert (got - want).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_ricci_prefactor_is_mu_minus_one(n):
    result = phi_ricci_prefactor(n)
    assert str(result.polynomial) == "-1 + mu"
    assert result.scale == Fraction(-1)


def test_factor_checks_reject_a_zero_factor(monkeypatch):
    zero = ScalarExpr.zero(("mu",))
    monkeypatch.setattr(soliton, "_ratio_against_shape", lambda values, shape: zero)
    with pytest.raises(FactorError):
        phi_ricci_prefactor(1)
    with pytest.raises(FactorError):
        symbolic_factor_check(ConditionKind.R_DOT_S, 1)


def _row(*texts):
    """A Components vector, as contract returns it, over (x, y, mu)."""
    row = Components([parse_scalar(t, ("x", "y", "mu")) for t in texts], 1, len(texts))
    return contract("v[i] -> i", v=row)


def test_ratio_against_shape_divides_out_a_rational_shape():
    got = _ratio_against_shape(_row("0", "2*mu", "-mu"), _row("0", "2", "-1"))
    assert got == parse_scalar("mu", ("x", "y", "mu"))


def test_ratio_against_shape_rejects_a_value_where_the_shape_vanishes():
    # the first offending position in row-major order is reported
    with pytest.raises(FactorError) as info:
        _ratio_against_shape(_row("mu", "x", "y"), _row("1", "0", "0"))
    assert str(info.value) == "residual nonzero where the shape vanishes: x"


def test_ratio_against_shape_rejects_values_that_are_not_one_multiple():
    # a zero value against a nonzero shape entry counts as the multiple 0
    for values in (("2*mu", "3*mu", "0"), ("2*mu", "0", "0")):
        with pytest.raises(FactorError) as info:
            _ratio_against_shape(_row(*values), _row("1", "2", "0"))
        assert str(info.value) == "residual is not a scalar multiple of the shape"


def test_ratio_against_shape_rejects_a_zero_shape():
    with pytest.raises(FactorError) as info:
        _ratio_against_shape(_row("0", "0", "0"), _row("0", "0", "0"))
    assert str(info.value) == "shape tensor is identically zero"


def test_rational_roots_examples():
    syms = ("mu",)
    poly = parse_scalar("3 - 4*mu + mu^2", syms)
    assert rational_roots(poly) == {Fraction(1), Fraction(3)}
    assert rational_roots(parse_scalar("mu^2 + 1", syms)) == frozenset()
    assert rational_roots(parse_scalar("2*mu - 1", syms)) == {Fraction(1, 2)}
    assert rational_roots(parse_scalar("mu^2 - 2", syms)) == frozenset()


def test_rational_roots_rejects_constant_polynomial():
    with pytest.raises(FactorError):
        rational_roots(parse_scalar("7", ("mu",)))


# -- parallel tensor classification --------------------------------------------


def test_parallel_classify_returns_metric_multiple(pipeline):
    n, s, conn, riem, S = pipeline
    for c in (Fraction(1), Fraction(5), Fraction(-3, 2)):
        assert parallel_tensor_classify(s.metric().scale(c), conn, s) == c


def test_parallel_classify_rejects_eta_square(pipeline):
    n, s, conn, riem, S = pipeline
    with pytest.raises(NotParallel) as info:
        parallel_tensor_classify(s.eta_square(), conn, s)
    assert str(info.value) == f"nabla along E1 at [E1, E{s.dim}]: 1"


def test_parallel_classify_witness_dim3():
    s = build_warped(1)
    conn = koszul_connection(s.frame)
    with pytest.raises(NotParallel) as info:
        parallel_tensor_classify(s.eta_square(), conn, s)
    assert str(info.value) == "nabla along E1 at [E1, E3]: 1"


def test_parallel_classify_rejects_a_parallel_tensor_off_the_metric_line():
    # the flat fixture's frame members have constant coordinate components,
    # so its connection vanishes and g + eta x eta is parallel
    s = build_flat(1)
    conn = koszul_connection(s.frame)
    with pytest.raises(NotMultiple) as info:
        parallel_tensor_classify(s.metric() + s.eta_square(), conn, s)
    assert str(info.value) == "alpha = 1 g + 1 eta x eta"


def test_parallel_classify_valence_and_symmetry_errors():
    s = build_warped(1)
    conn = koszul_connection(s.frame)
    with pytest.raises(ValenceError):
        parallel_tensor_classify(s.phi, conn, s)
    lopsided = Tensor.build(
        s.frame, 0, 2,
        lambda i, j: s.chart.const(1) if (i, j) == (0, 1) else s.chart.zero(),
    )
    with pytest.raises(ValenceError):
        parallel_tensor_classify(lopsided, conn, s)


def test_parallel_recovery_matches_solver(pipeline):
    n, s, conn, riem, S = pipeline
    sol = solve_soliton(s, S)
    assert soliton_from_parallel_check(s, conn, S, sol) is None


def test_mu_zero_deformation_is_not_parallel(pipeline):
    n, s, conn, riem, S = pipeline
    assert mu_zero_variant_check(s, conn, S) is None


def test_phi_ricci_checks_pass(pipeline):
    n, s, conn, riem, S = pipeline
    sol = solve_soliton(s, S)
    witnesses = phi_ricci_symmetric_check(s, conn, S, ricci_operator(S), sol)
    assert witnesses == [None, None, None]


@pytest.fixture(scope="module")
def shifted():
    """warped n = 2 with S' = S + z g, which is parallel along no direction."""
    s = build_warped(2)
    conn = koszul_connection(s.frame)
    S = ricci(riemann(conn))
    s_prime = S + s.metric().scale(s.chart.coordinate("z"))
    return s, conn, S, s_prime, solve_soliton(s, S)


def test_phi_ricci_witnesses_on_a_shifted_ricci(shifted):
    s, conn, S, S2, sol = shifted
    witnesses = dict(
        zip(
            ("P1", "P2", "P3"),
            phi_ricci_symmetric_check(s, conn, S2, ricci_operator(S2), sol),
            strict=True,
        )
    )
    assert witnesses["P2"] == "[E1, E1]: -1"
    assert witnesses["P3"] == "[E1, E1]: -1"


def test_parallel_recovery_witnesses(shifted):
    s, conn, S, S2, sol = shifted
    wrong_mu = soliton_from_parallel_check(s, conn, S, SolitonSolution(4, 0, 2))
    assert wrong_mu == "nabla along E1 at [E1, E5]: -2"
    wrong_ricci = soliton_from_parallel_check(s, conn, S2, sol)
    assert wrong_ricci == "nabla along E5 at [E1, E1]: -2"


def test_solved_constants_are_fractions():
    # coefficients are stored as ints when integral; the constants that
    # leave the ring stay Fractions, so dividing them never gives a float
    path = Path(__file__).parent.parent / "manifolds" / "example_r5.pk"
    s = load_manifold(path).to_structure()
    sol = solve_soliton(s, ricci(riemann(koszul_connection(s.frame))))
    assert (sol.lam, sol.mu) == (3, 1)
    assert type(sol.lam) is Fraction and type(sol.mu) is Fraction
