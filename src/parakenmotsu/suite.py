"""Dependency-ordered verification suite for a manifold document.

`_ROWS` is the one table of checks, in report order.  A row is (stage,
check name, catalog tag, witness); the witness reads what the check
needs from one `products.Products` object and returns None when the
check holds, its witness text when it fails.

A stage runs only once every stage it depends on has passed; otherwise
its checks are reported as skipped.  Selection by name or by group
prefix decides what is computed: a stage computes its selected rows, and
all of its rows when a stage that computes needs it, or when the
3-dimensional notes read it (the connection, the curvature and the
soliton constants).  No other row is computed.  Unselected checks always
appear as skipped, even when they were computed.

REFERENCE_DIM3 at the end is one table of the nabla and R entries of a
previously circulated component table for the 3-dimensional example;
its S diagonal and soliton constants stand beside it.  Two of its nabla
entries contradict every torsion-free metric connection, so the suite
recomputes everything from first principles and, in one walk over the
table, reports each listed entry that differs as an informational note
rather than adopting either side silently.  The anchor rows, the seven
nabla entries the Koszul formula agrees with, decide whether a document
is that example: when any of them differs, there are no notes.
"""

from __future__ import annotations

from fractions import Fraction

from parakenmotsu.connection import ConnectionError_
from parakenmotsu.curvature import CurvatureError
from parakenmotsu.dsl import ManifoldDocument
from parakenmotsu.kinds import ConditionKind
from parakenmotsu.products import Products
from parakenmotsu.report import CheckReport, SolitonSummary, SuiteResult
from parakenmotsu.scalar import ScalarExpr, signed_sum
from parakenmotsu.soliton import (
    FactorError,
    NoConstantSolution,
    NotInSpan,
    condition_check,
    mu_zero_variant_check,
    phi_ricci_prefactor,
    quasi_einstein_decompose,
    soliton_from_parallel_check,
    symbolic_factor_check,
)
from parakenmotsu.structure import (
    ParacontactStructure,
    check_para_kenmotsu,
    vanishing_check,
)


# -- witnesses ---------------------------------------------------------------


def _raises(errors, read):
    """Witness: None when read(p) returns, the message when it raises one of errors."""

    def witness(p: Products) -> str | None:
        try:
            read(p)
        except errors as err:
            return str(err)
        return None

    return witness


def _vanishes(spec: str):
    """Witness of `vanishing_check(spec)` over the structure, S, Q and 2n."""
    return lambda p: vanishing_check(
        spec, dict(p.s.operands(), S=p.ricci, Q=p.q, two_n=2 * p.s.n)
    )


def _split(p: Products) -> str | None:
    """S = a g + b eta x eta with the (a, b) the soliton constants imply."""
    try:
        a, b = quasi_einstein_decompose(p.ricci, p.s.metric(), p.s.eta)
    except NotInSpan as err:
        return str(err)
    expected = (Fraction(-(p.sol.lam + 1)), Fraction(-(p.sol.mu - 1)))
    if (a, b) != expected:
        return f"split gives ({a}, {b}), soliton implies {expected}"
    return None


def _condition(kind: ConditionKind):
    return lambda p: condition_check(kind, p.s, p.residual(kind), p.sol)


def _factor(kind: ConditionKind):
    """Each extraction builds its own generic tensors, from n alone."""
    return _raises(FactorError, lambda p: symbolic_factor_check(kind, p.s.n))


# (stage, check name, catalog tag, witness), in report order: the only
# place that names or tags a check.  D1-D4 and F1-F4 follow ConditionKind.
_ROWS = (
    ("axioms", "axioms/eta-xi-pairing", "A1", lambda p: p.axioms[0]),
    ("axioms", "axioms/phi-annihilates-xi", "A2", lambda p: p.axioms[1]),
    ("axioms", "axioms/eta-annihilates-phi", "A3", lambda p: p.axioms[2]),
    ("axioms", "axioms/phi-square", "A4", lambda p: p.axioms[3]),
    ("axioms", "axioms/metric-phi-compatibility", "A5", lambda p: p.axioms[4]),
    ("axioms", "axioms/phi-skew-adjoint", "A6", lambda p: p.axioms[5]),
    ("axioms", "axioms/eta-is-metric-dual", "A7", lambda p: p.axioms[6]),
    ("axioms", "axioms/unit-xi", "A8", lambda p: p.axioms[7]),
    ("axioms", "axioms/signature", "A9", lambda p: p.axioms[8]),
    ("axioms", "axioms/eigendistribution-ranks", "A10", lambda p: p.axioms[9]),
    ("connection", "connection/koszul", "C1", _raises(ConnectionError_, lambda p: p.conn)),
    ("para-kenmotsu", "para-kenmotsu/covariant-phi", "K1",
     lambda p: check_para_kenmotsu(p.s, p.conn)),
    ("identities", "identities/xi-covariant-derivative", "I1", lambda p: p.identities[0]),
    ("identities", "identities/eta-of-nabla-xi", "I2", lambda p: p.identities[1]),
    ("identities", "identities/xi-parallel-along-xi", "I3", lambda p: p.identities[2]),
    ("identities", "identities/curvature-on-xi", "I4", lambda p: p.identities[3]),
    ("identities", "identities/eta-of-curvature", "I5", lambda p: p.identities[4]),
    ("identities", "identities/eta-of-curvature-on-xi", "I6", lambda p: p.identities[5]),
    ("identities", "identities/eta-covariant-derivative", "I7", lambda p: p.identities[6]),
    ("identities", "identities/eta-parallel-along-xi", "I8", lambda p: p.identities[7]),
    ("identities", "identities/lie-phi-along-xi", "I9", lambda p: p.identities[8]),
    ("identities", "identities/lie-eta-along-xi", "I10", lambda p: p.identities[9]),
    ("identities", "identities/lie-eta-square-along-xi", "I11", lambda p: p.identities[10]),
    ("identities", "identities/lie-metric-along-xi", "I12", lambda p: p.identities[11]),
    ("identities", "identities/eta-closed", "I13", lambda p: p.identities[12]),
    ("identities", "identities/nijenhuis-vanishes", "I14", lambda p: p.identities[13]),
    ("curvature", "curvature/riemann-symmetries", "C2",
     _raises(CurvatureError, lambda p: p.riem)),
    ("ricci", "curvature/ricci-symmetric", "C3",
     _raises(CurvatureError, lambda p: p.ricci)),
    ("curvature-pk", "curvature/ricci-on-xi", "C4",
     _vanishes("S[jm] xi[m] + two_n eta[j] -> j")),
    ("curvature-pk", "curvature/q-commutes-with-phi", "C5",
     _vanishes("Q[am] phi[mi] - phi[am] Q[mi] -> ai")),
    ("soliton", "soliton/constants", "L1",
     _raises((NoConstantSolution, ValueError), lambda p: p.sol)),
    ("split", "soliton/quasi-einstein-split", "L2", _split),
    *(
        ("condition", f"condition/{kind.value}", f"D{i}", _condition(kind))
        for i, kind in enumerate(ConditionKind, start=1)
    ),
    *(
        ("factors", f"factors/{kind.value}", f"F{i}", _factor(kind))
        for i, kind in enumerate(ConditionKind, start=1)
    ),
    ("factors", "factors/phi-ricci", "F5",
     _raises(FactorError, lambda p: phi_ricci_prefactor(p.s.n))),
    ("parallel", "soliton/parallel-deformation-recovery", "T1",
     lambda p: soliton_from_parallel_check(p.s, p.conn, p.ricci, p.sol)),
    ("parallel", "soliton/mu-zero-deformation-not-parallel", "T2",
     lambda p: mu_zero_variant_check(p.s, p.conn, p.ricci)),
    ("phi-ricci", "phi-ricci/phi-square-of-nabla-q", "P1", lambda p: p.phi_ricci[0]),
    ("phi-ricci", "phi-ricci/q-parallel-along-xi", "P2", lambda p: p.phi_ricci[1]),
    ("phi-ricci", "phi-ricci/s-parallel-along-xi", "P3", lambda p: p.phi_ricci[2]),
)
CATALOG: tuple[tuple[str, str, str], ...] = tuple(row[:3] for row in _ROWS)

# C3 and L2 have stages of their own, so that a failed C2 skips C3 and a
# failed L1 skips L2, and the later stages depend on them.
_STAGE_DEPS: dict[str, tuple[str, ...]] = {
    "axioms": (),
    "connection": (),
    "para-kenmotsu": ("axioms", "connection"),
    "identities": ("para-kenmotsu",),
    "curvature": ("connection",),
    "ricci": ("curvature",),
    "curvature-pk": ("ricci", "para-kenmotsu"),
    "soliton": ("ricci", "para-kenmotsu"),
    "split": ("soliton",),
    "condition": ("split",),
    "factors": (),
    "parallel": ("split",),
    "phi-ricci": ("split",),
}

# every stage comes after the stages it depends on
_STAGE_ORDER = tuple(dict.fromkeys(stage for stage, _, _ in CATALOG))


def _run_rows(p: Products, rows) -> dict[str, str | None]:
    """The witness of each row, by check name."""
    return {name: witness(p) for _, name, _, witness in rows}


# one entry per stage, read at call time, so that perfbench/traced.py can
# time each stage
_RUNNERS = dict.fromkeys(_STAGE_ORDER, _run_rows)


def selectable_names() -> frozenset[str]:
    names = {name for _, name, _ in CATALOG}
    names.update(name.split("/")[0] for _, name, _ in CATALOG)
    return frozenset(names)


def _selected(name: str, selection: frozenset[str] | None) -> bool:
    if selection is None:
        return True
    return name in selection or name.split("/")[0] in selection


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

    # the stages that compute every row: those the notes read, and every
    # stage a computing stage depends on
    whole = {"ricci", "soliton"} if structure.dim == 3 else set()
    for stage in reversed(_STAGE_ORDER):
        if stage in whole or any(
            st == stage and _selected(check, sel) for st, check, _ in CATALOG
        ):
            whole.update(_STAGE_DEPS[stage])

    p = Products(structure)
    passed: dict[str, bool] = {}
    entries: dict[str, str | None] = {}  # check name -> witness, for the rows run
    for stage in _STAGE_ORDER:
        rows = [
            row
            for row in _ROWS
            if row[0] == stage and (stage in whole or _selected(row[1], sel))
        ]
        if rows and all(passed.get(dep, False) for dep in _STAGE_DEPS[stage]):
            ran = _RUNNERS[stage](p, rows)
            entries.update(ran)
            passed[stage] = all(witness is None for witness in ran.values())

    checks = []
    for _, check_name, ref in CATALOG:
        if check_name in entries and _selected(check_name, sel):
            witness = entries[check_name]
            status = "pass" if witness is None else "fail"
            checks.append(CheckReport(check_name, status, ref, witness))
        else:
            checks.append(CheckReport(check_name, "skipped", ref))

    solved = passed.get("soliton", False)
    notes: tuple[str, ...] = ()
    if passed.get("ricci"):
        notes = tuple(reference_conflict_notes(p, solved))

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


# -- reference table for the 3-dimensional example -----------------------


def _nabla(i: int, j: int, listed: tuple[int, ...], anchor: bool = True):
    return (
        f"nabla_{{E{i + 1}}} E{j + 1}",
        listed,
        lambda p: [p.conn.coefficient(i, j, a) for a in range(3)],
        anchor,
    )


def _riemann(i: int, j: int, k: int, listed: tuple[int, ...]):
    return (
        f"R(E{i + 1}, E{j + 1})E{k + 1}",
        listed,
        lambda p: [p.riem[a, i, j, k] for a in range(3)],
        False,
    )


# (what the table lists, its frame components, the computed components,
# anchor): nabla_{E_i} E_j, then R(E_i, E_j)E_k, each in sorted order.  The
# anchor rows are the seven nabla entries the Koszul formula agrees with;
# the two derivatives along E3 it contradicts are not anchors.
REFERENCE_DIM3 = (
    _nabla(0, 0, (0, 0, -1)),
    _nabla(0, 1, (0, 0, 0)),
    _nabla(0, 2, (1, 0, 0)),
    _nabla(1, 0, (0, 0, 0)),
    _nabla(1, 1, (0, 0, 1)),
    _nabla(1, 2, (0, 1, 0)),
    _nabla(2, 0, (1, 0, 0), anchor=False),
    _nabla(2, 1, (0, 1, 0), anchor=False),
    _nabla(2, 2, (0, 0, 0)),
    _riemann(0, 1, 1, (1, 0, 0)),
    _riemann(0, 2, 2, (-1, 0, 0)),
    _riemann(1, 0, 0, (0, -1, 0)),
    _riemann(1, 2, 2, (0, -1, 0)),
    _riemann(2, 0, 0, (0, 0, 1)),
    _riemann(2, 1, 1, (0, 0, -1)),
)

# S(E_i, E_i), the diagonal; the table lists no other entry of S.
REFERENCE_RICCI_DIM3: tuple[int, ...] = (0, 0, -2)

REFERENCE_SOLITON_DIM3: tuple[int, int] = (-1, 3)


def render_member_combo(comps: list[ScalarExpr]) -> str:
    """Render frame components as a readable combination of E1, E2, ..."""
    parts: list[str] = []
    for k, c in enumerate(comps):
        if c.is_zero():
            continue
        text = str(c)
        if text == "1":
            parts.append(f"E{k + 1}")
        elif text == "-1":
            parts.append(f"-E{k + 1}")
        else:
            parts.append(f"({text})*E{k + 1}")
    return signed_sum(parts)


def reference_conflict_notes(p: Products, solved: bool) -> list[str]:
    """The notes where the computed values differ from the table: none
    unless the structure is 3-dimensional and matches every anchor row.
    The soliton constants are compared once they are `solved`."""
    if p.s.dim != 3:
        return []
    chart = p.s.frame.chart
    rows = [
        (what, [chart.const(q) for q in listed], computed(p), anchor)
        for what, listed, computed, anchor in REFERENCE_DIM3
    ]
    if any(anchor and listed != computed for _, listed, computed, anchor in rows):
        return []

    notes = [
        f"reference table lists {what} = {render_member_combo(listed)};"
        f" computed value is {render_member_combo(computed)}"
        for what, listed, computed, _ in rows
        if listed != computed
    ]
    for i, listed in enumerate(REFERENCE_RICCI_DIM3):
        computed = p.ricci[i, i]
        if computed != chart.const(listed):
            notes.append(
                f"reference table lists S(E{i + 1}, E{i + 1}) = {listed};"
                f" computed value is {computed}"
            )
    if solved and (p.sol.lam, p.sol.mu) != REFERENCE_SOLITON_DIM3:
        ref_lam, ref_mu = REFERENCE_SOLITON_DIM3
        notes.append(
            "reference table lists soliton constants (lambda, mu)"
            f" = ({ref_lam}, {ref_mu});"
            f" computed values are ({p.sol.lam}, {p.sol.mu})"
        )
    return notes
