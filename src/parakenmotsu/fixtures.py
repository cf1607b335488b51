"""Constructible example families and the 3-dimensional reference table.

The warped family is the canonical constructible example in every odd
dimension: on coordinates (x_1..x_2n, z) take g = e^{-2z} h + dz (x) dz
with h the constant signature-(n,n) paracomplex metric, frame members
E_i = e^z d/dx_i and E_{2n+1} = -d/dz = xi, and phi swapping each
(E_{2k-1}, E_{2k}) pair.  The flat variant drops the warping factor and
is deliberately NOT para-Kenmotsu; it exists for negative tests.

REFERENCE_* below records a previously circulated component table for
the 3-dimensional example.  Some of its entries are mutually
inconsistent with the bracket relations and metric compatibility, so
the suite recomputes everything from first principles and reports
disagreements with this table as informational notes rather than
adopting either side silently.
"""

from __future__ import annotations

from fractions import Fraction

from parakenmotsu.connection import FrameConnection
from parakenmotsu.geometry import Chart, Frame, Tensor, VectorField
from parakenmotsu.scalar import ScalarExpr
from parakenmotsu.structure import ParacontactStructure


def _chart(n: int, params: tuple[str, ...]) -> Chart:
    if n == 1:
        coords = ("x", "y", "z")
    else:
        coords = tuple(f"x{i}" for i in range(1, 2 * n + 1)) + ("z",)
    return Chart(coords, params)


def _structure(
    chart: Chart, horizontal_scale: ScalarExpr, n: int
) -> ParacontactStructure:
    d = 2 * n + 1
    zero, one = chart.zero(), chart.const(1)
    members = []
    for i in range(2 * n):
        comps = [zero] * d
        comps[i] = horizontal_scale
        members.append(VectorField(chart, tuple(comps)))
    vertical = [zero] * d
    vertical[d - 1] = chart.const(-1)
    members.append(VectorField(chart, tuple(vertical)))

    gram_rows = []
    for i in range(d):
        row = [zero] * d
        if i == d - 1:
            row[i] = one
        else:
            row[i] = one if i % 2 == 0 else chart.const(-1)
        gram_rows.append(tuple(row))
    frame = Frame(chart, tuple(members), tuple(gram_rows))

    def phi_entry(a: int, i: int) -> ScalarExpr:
        if i < 2 * n and a == i + 1 and i % 2 == 0:
            return one
        if i < 2 * n and a == i - 1 and i % 2 == 1:
            return one
        return zero

    phi = Tensor.build(frame, 1, 1, phi_entry)
    eta = Tensor(frame, 0, 1, [zero] * (d - 1) + [one])
    return ParacontactStructure(frame, phi, members[d - 1], eta, n)


def build_warped(n: int, params: tuple[str, ...] = ()) -> ParacontactStructure:
    """Para-Kenmotsu structure on the warped product, any n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    chart = _chart(n, params)
    return _structure(chart, chart.exponential({"z": 1}), n)


def build_flat(n: int = 1, params: tuple[str, ...] = ()) -> ParacontactStructure:
    """Same algebraic structure over the unwarped flat metric."""
    if n < 1:
        raise ValueError("n must be at least 1")
    chart = _chart(n, params)
    return _structure(chart, chart.const(1), n)


# -- reference table for the 3-dimensional example -----------------------

# nabla_{E_i} E_j, frame components; entries at i = 2 (derivatives along
# E3) disagree with what the Koszul formula yields.
REFERENCE_NABLA_DIM3: dict[tuple[int, int], tuple[int, ...]] = {
    (0, 0): (0, 0, -1),
    (0, 1): (0, 0, 0),
    (0, 2): (1, 0, 0),
    (1, 0): (0, 0, 0),
    (1, 1): (0, 0, 1),
    (1, 2): (0, 1, 0),
    (2, 0): (1, 0, 0),
    (2, 1): (0, 1, 0),
    (2, 2): (0, 0, 0),
}

# Entries of nabla consistent with the Koszul solution, used to decide
# whether a parsed 3-dimensional document is this canonical example.
_ANCHOR_NABLA_DIM3 = {
    key: value
    for key, value in REFERENCE_NABLA_DIM3.items()
    if key not in ((2, 0), (2, 1))
}

# R(E_i, E_j) E_k, frame components.
REFERENCE_RIEMANN_DIM3: dict[tuple[int, int, int], tuple[int, ...]] = {
    (0, 1, 1): (1, 0, 0),
    (0, 2, 2): (-1, 0, 0),
    (1, 0, 0): (0, -1, 0),
    (1, 2, 2): (0, -1, 0),
    (2, 0, 0): (0, 0, 1),
    (2, 1, 1): (0, 0, -1),
}

# S(E_i, E_j) diagonal entries.
REFERENCE_RICCI_DIM3: dict[tuple[int, int], int] = {
    (0, 0): 0,
    (1, 1): 0,
    (2, 2): -2,
}

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
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def reference_conflict_notes(
    conn: FrameConnection,
    riem: Tensor,
    ricci_tensor: Tensor,
    soliton_pair: tuple[Fraction, Fraction] | None,
) -> list[str]:
    """Informational notes where the computed values differ from the table.

    Emitted only for 3-dimensional structures whose connection matches the
    table on its self-consistent entries, i.e. documents that actually
    encode the canonical example.
    """
    frame = conn.frame
    if frame.dim != 3:
        return []
    chart = frame.chart

    def matches(computed, expected: tuple[int, ...]) -> bool:
        return all(
            (computed[a] - chart.const(q)).is_zero() for a, q in enumerate(expected)
        )

    for (i, j), expected in sorted(_ANCHOR_NABLA_DIM3.items()):
        if not matches([conn.coefficient(i, j, a) for a in range(3)], expected):
            return []

    notes: list[str] = []
    for (i, j), expected in sorted(REFERENCE_NABLA_DIM3.items()):
        computed = [conn.coefficient(i, j, a) for a in range(3)]
        if not matches(computed, expected):
            notes.append(
                f"reference table lists nabla_{{E{i + 1}}} E{j + 1}"
                f" = {render_member_combo([chart.const(q) for q in expected])};"
                f" computed value is {render_member_combo(computed)}"
            )
    for (i, j, k), expected in sorted(REFERENCE_RIEMANN_DIM3.items()):
        computed = [riem[a, i, j, k] for a in range(3)]
        if not matches(computed, expected):
            notes.append(
                f"reference table lists R(E{i + 1}, E{j + 1})E{k + 1}"
                f" = {render_member_combo([chart.const(q) for q in expected])};"
                f" computed value is {render_member_combo(computed)}"
            )
    for (i, j), expected in sorted(REFERENCE_RICCI_DIM3.items()):
        computed = ricci_tensor[i, j]
        if not (computed - chart.const(expected)).is_zero():
            notes.append(
                f"reference table lists S(E{i + 1}, E{j + 1}) = {expected};"
                f" computed value is {computed}"
            )
    if soliton_pair is not None:
        lam, mu = soliton_pair
        ref_lam, ref_mu = REFERENCE_SOLITON_DIM3
        if (lam, mu) != (ref_lam, ref_mu):
            notes.append(
                "reference table lists soliton constants (lambda, mu)"
                f" = ({ref_lam}, {ref_mu});"
                f" computed values are ({lam}, {mu})"
            )
    return notes
