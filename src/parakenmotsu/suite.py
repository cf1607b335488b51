"""Dependency-ordered verification suite for a manifold document.

Checks run in stages.  Selection by name or by group prefix decides what
is computed: the stages of the selected checks run, together with every
stage they depend on, and no other stage is computed.  A stage that runs
still needs every stage it depends on to have passed; otherwise its
checks are reported as skipped.  Unselected checks always appear as
skipped, even when their stage ran because a selected check needs it.
On 3-dimensional documents the reference-table notes read the
connection, the curvature and the soliton constants, so those stages
run whatever the selection.

The tensors the stages share live in one `Products` object, which
builds each on first use and keeps it for every later reader.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from parakenmotsu.connection import (
    ConnectionError_,
    FrameConnection,
    koszul_connection,
)
from parakenmotsu.curvature import (
    CurvatureError,
    ricci,
    ricci_operator,
    riemann,
    w2_tensor,
)
from parakenmotsu.dsl import ManifoldDocument
from parakenmotsu.fixtures import reference_conflict_notes
from parakenmotsu.geometry import Tensor
from parakenmotsu.report import CheckReport, SolitonSummary, SuiteResult
from parakenmotsu.soliton import (
    ConditionKind,
    FactorError,
    NoConstantSolution,
    NotInSpan,
    SolitonSolution,
    condition_check,
    condition_residual,
    mu_zero_variant_check,
    phi_ricci_prefactor,
    phi_ricci_symmetric_check,
    quasi_einstein_decompose,
    soliton_from_parallel_check,
    solve_soliton,
    symbolic_factor_check,
)
from parakenmotsu.structure import (
    ParacontactStructure,
    check_axioms,
    check_para_kenmotsu,
    kenmotsu_identity_suite,
    vanishing_check,
)

# (stage, check name, catalog tag), in report order: the only place that
# names or tags a check.  The runner of a stage returns one entry per row
# of its stage, in this order: None when the check holds, its witness text
# when it fails, or _SKIPPED when the runner did not run it.
CATALOG: tuple[tuple[str, str, str], ...] = (
    ("axioms", "axioms/eta-xi-pairing", "A1"),
    ("axioms", "axioms/phi-annihilates-xi", "A2"),
    ("axioms", "axioms/eta-annihilates-phi", "A3"),
    ("axioms", "axioms/phi-square", "A4"),
    ("axioms", "axioms/metric-phi-compatibility", "A5"),
    ("axioms", "axioms/phi-skew-adjoint", "A6"),
    ("axioms", "axioms/eta-is-metric-dual", "A7"),
    ("axioms", "axioms/unit-xi", "A8"),
    ("axioms", "axioms/signature", "A9"),
    ("axioms", "axioms/eigendistribution-ranks", "A10"),
    ("connection", "connection/koszul", "C1"),
    ("para-kenmotsu", "para-kenmotsu/covariant-phi", "K1"),
    ("identities", "identities/xi-covariant-derivative", "I1"),
    ("identities", "identities/eta-of-nabla-xi", "I2"),
    ("identities", "identities/xi-parallel-along-xi", "I3"),
    ("identities", "identities/curvature-on-xi", "I4"),
    ("identities", "identities/eta-of-curvature", "I5"),
    ("identities", "identities/eta-of-curvature-on-xi", "I6"),
    ("identities", "identities/eta-covariant-derivative", "I7"),
    ("identities", "identities/eta-parallel-along-xi", "I8"),
    ("identities", "identities/lie-phi-along-xi", "I9"),
    ("identities", "identities/lie-eta-along-xi", "I10"),
    ("identities", "identities/lie-eta-square-along-xi", "I11"),
    ("identities", "identities/lie-metric-along-xi", "I12"),
    ("identities", "identities/eta-closed", "I13"),
    ("identities", "identities/nijenhuis-vanishes", "I14"),
    ("curvature", "curvature/riemann-symmetries", "C2"),
    ("curvature", "curvature/ricci-symmetric", "C3"),
    ("curvature-pk", "curvature/ricci-on-xi", "C4"),
    ("curvature-pk", "curvature/q-commutes-with-phi", "C5"),
    ("soliton", "soliton/constants", "L1"),
    ("soliton", "soliton/quasi-einstein-split", "L2"),
    ("condition", "condition/R.S", "D1"),
    ("condition", "condition/S.R", "D2"),
    ("condition", "condition/W2.S", "D3"),
    ("condition", "condition/S.W2", "D4"),
    ("factors", "factors/R.S", "F1"),
    ("factors", "factors/S.R", "F2"),
    ("factors", "factors/W2.S", "F3"),
    ("factors", "factors/S.W2", "F4"),
    ("factors", "factors/phi-ricci", "F5"),
    ("parallel", "soliton/parallel-deformation-recovery", "T1"),
    ("parallel", "soliton/mu-zero-deformation-not-parallel", "T2"),
    ("phi-ricci", "phi-ricci/phi-square-of-nabla-q", "P1"),
    ("phi-ricci", "phi-ricci/q-parallel-along-xi", "P2"),
    ("phi-ricci", "phi-ricci/s-parallel-along-xi", "P3"),
)

_STAGE_DEPS: dict[str, tuple[str, ...]] = {
    "axioms": (),
    "connection": (),
    "para-kenmotsu": ("axioms", "connection"),
    "identities": ("para-kenmotsu",),
    "curvature": ("connection",),
    "curvature-pk": ("curvature", "para-kenmotsu"),
    "soliton": ("curvature", "para-kenmotsu"),
    "condition": ("soliton",),
    "factors": (),
    "parallel": ("soliton",),
    "phi-ricci": ("soliton",),
}

_STAGE_ORDER = tuple(dict.fromkeys(stage for stage, _, _ in CATALOG))
_STAGE_ROWS = {
    stage: [name for st, name, _ in CATALOG if st == stage] for stage in _STAGE_ORDER
}

_SKIPPED = object()  # a runner's entry for a check it did not run


class Products:
    """Derived products of one structure, each built on first use and kept.

    The chain structure -> Koszul connection -> Riemann -> Ricci and Q ->
    W2 -> soliton constants -> condition residuals is read through these
    attributes, so whichever reader asks first pays for a product and
    every later reader shares it.  A builder's exception is not kept:
    reading the attribute again retries the build.  `selection` is the
    check selection, for stages whose checks share no product.
    """

    def __init__(self, structure: ParacontactStructure, selection=None):
        self.s = structure
        self.selection = selection
        self._residuals: dict[ConditionKind, Tensor] = {}

    @cached_property
    def conn(self) -> FrameConnection:
        return koszul_connection(self.s.frame)

    @cached_property
    def riem(self) -> Tensor:
        return riemann(self.conn)

    @cached_property
    def ricci(self) -> Tensor:
        return ricci(self.riem)

    @cached_property
    def q(self) -> Tensor:
        return ricci_operator(self.ricci)

    @cached_property
    def w2(self) -> Tensor:
        return w2_tensor(self.riem, self.q, self.s.n)

    @cached_property
    def sol(self) -> SolitonSolution:
        return solve_soliton(self.s, self.ricci)

    def residual(self, kind: ConditionKind) -> Tensor:
        if kind not in self._residuals:
            w2_kinds = (ConditionKind.W2_DOT_S, ConditionKind.S_DOT_W2)
            op = self.w2 if kind in w2_kinds else self.riem
            self._residuals[kind] = condition_residual(kind, self.s, op, self.ricci)
        return self._residuals[kind]


def selectable_names() -> frozenset[str]:
    names = {name for _, name, _ in CATALOG}
    names.update(name.split("/")[0] for _, name, _ in CATALOG)
    return frozenset(names)


def _selected(name: str, selection: frozenset[str] | None) -> bool:
    if selection is None:
        return True
    return name in selection or name.split("/")[0] in selection


def _needed_stages(selection: frozenset[str] | None, dim: int) -> set[str]:
    """Stages of the selected checks, closed over `_STAGE_DEPS`."""
    needed = {stage for stage, name, _ in CATALOG if _selected(name, selection)}
    if dim == 3:
        needed.update(("curvature", "soliton"))  # read by the notes
    # _STAGE_ORDER lists every stage after the stages it depends on
    for stage in reversed(_STAGE_ORDER):
        if stage in needed:
            needed.update(_STAGE_DEPS[stage])
    return needed


def run_suite(
    source: ManifoldDocument | ParacontactStructure,
    selection=None,
    name: str | None = None,
) -> SuiteResult:
    if isinstance(source, ManifoldDocument):
        structure = source.to_structure()
        manifold_name = name or source.name
    else:
        structure = source
        manifold_name = name or "manifold"
    sel = None if selection is None else frozenset(selection)

    p = Products(structure, sel)
    needed = _needed_stages(sel, structure.dim)
    stage_passed: dict[str, bool] = {}
    entries: dict[str, object] = {}  # check name -> entry, for stages that ran
    for stage in _STAGE_ORDER:
        if stage in needed and all(
            stage_passed.get(dep, False) for dep in _STAGE_DEPS[stage]
        ):
            ran = _RUNNERS[stage](p)
            entries.update(zip(_STAGE_ROWS[stage], ran, strict=True))
            stage_passed[stage] = all(entry is None for entry in ran)

    checks = []
    for _, check_name, ref in CATALOG:
        entry = entries.get(check_name, _SKIPPED)
        if entry is _SKIPPED or not _selected(check_name, sel):
            checks.append(CheckReport(check_name, "skipped", ref))
        else:
            status = "pass" if entry is None else "fail"
            checks.append(CheckReport(check_name, status, ref, entry))

    solved = entries.get("soliton/constants", _SKIPPED) is None
    notes: tuple[str, ...] = ()
    if stage_passed.get("curvature"):
        pair = (p.sol.lam, p.sol.mu) if solved else None
        notes = tuple(reference_conflict_notes(p.conn, p.riem, p.ricci, pair))

    soliton = None
    if solved and _selected("soliton/constants", sel):
        sol = p.sol
        soliton = SolitonSummary(str(sol.lam), str(sol.mu), sol.classification)

    return SuiteResult(
        manifold=manifold_name,
        dimension=structure.dim,
        n=structure.n,
        checks=tuple(checks),
        notes=notes,
        soliton=soliton,
    )


# -- stage runners -----------------------------------------------------------


def _attempt(build, errors) -> str | None:
    """None when build() returns; the message when it raises one of errors."""
    try:
        build()
    except errors as err:
        return str(err)
    return None


def _run_axioms(p):
    return check_axioms(p.s)


def _run_connection(p):
    return [_attempt(lambda: p.conn, ConnectionError_)]


def _run_para_kenmotsu(p):
    return [check_para_kenmotsu(p.s, p.conn)]


def _run_identities(p):
    try:
        riem = p.riem
    except CurvatureError:
        riem = None  # reported by the curvature stage; identities need no check
    return kenmotsu_identity_suite(p.s, p.conn, riem)


def _run_curvature(p):
    symmetries = _attempt(lambda: p.riem, CurvatureError)
    if symmetries is not None:
        return [symmetries, _SKIPPED]
    return [symmetries, _attempt(lambda: p.ricci, CurvatureError)]


def _run_curvature_pk(p):
    ops = dict(p.s.operands(), S=p.ricci, Q=p.q, two_n=2 * p.s.n)
    return [
        vanishing_check("S[jm] xi[m] + two_n eta[j] -> j", ops),
        vanishing_check("Q[am] phi[mi] - phi[am] Q[mi] -> ai", ops),
    ]


def _run_soliton(p):
    constants = _attempt(lambda: p.sol, (NoConstantSolution, ValueError))
    if constants is not None:
        return [constants, _SKIPPED]

    s, sol = p.s, p.sol
    split = None
    try:
        a, b = quasi_einstein_decompose(p.ricci, s.metric(), s.eta)
        expected = (Fraction(-(sol.lam + 1)), Fraction(-(sol.mu - 1)))
        if (a, b) != expected:
            split = f"split gives ({a}, {b}), soliton implies {expected}"
    except NotInSpan as err:
        split = str(err)
    return [constants, split]


def _run_condition(p):
    return [
        condition_check(kind, p.s, p.residual(kind), p.sol) for kind in ConditionKind
    ]


def _run_factors(p):
    """Only the selected extractions: each one builds its own generic tensors."""
    n = p.s.n
    builds = [
        lambda kind=kind: symbolic_factor_check(kind, n) for kind in ConditionKind
    ]
    builds.append(lambda: phi_ricci_prefactor(n))
    return [
        _attempt(build, FactorError) if _selected(check_name, p.selection) else _SKIPPED
        for check_name, build in zip(_STAGE_ROWS["factors"], builds, strict=True)
    ]


def _run_parallel(p):
    return [
        soliton_from_parallel_check(p.s, p.conn, p.ricci, p.sol),
        mu_zero_variant_check(p.s, p.conn, p.ricci),
    ]


def _run_phi_ricci(p):
    return phi_ricci_symmetric_check(p.s, p.conn, p.ricci, p.q, p.sol)


_RUNNERS = {
    "axioms": _run_axioms,
    "connection": _run_connection,
    "para-kenmotsu": _run_para_kenmotsu,
    "identities": _run_identities,
    "curvature": _run_curvature,
    "curvature-pk": _run_curvature_pk,
    "soliton": _run_soliton,
    "condition": _run_condition,
    "factors": _run_factors,
    "parallel": _run_parallel,
    "phi-ricci": _run_phi_ricci,
}
