"""Metamorphic tests: verdicts must not change under changes of description.

A constant hyperbolic rotation of each (E_{2k-1}, E_{2k}) pair keeps the
gram diagonal (cosh^2 - sinh^2 = 1) and commutes with phi, which swaps
the two members; renaming and reordering the coordinates changes the
chart but not the manifold.  Both leave every check's verdict and the
soliton constants as they were.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from parakenmotsu.dsl import ManifoldDocument, load_manifold, parse_manifold
from parakenmotsu.fixtures import build_warped
from parakenmotsu.geometry import Chart
from parakenmotsu.suite import run_suite

COORDS = ("x1", "x2", "x3", "x4", "z")
COSH, SINH = Fraction(5, 4), Fraction(3, 4)  # (5/4)^2 - (3/4)^2 = 1


def _warped2_document(rotate: bool, rename: dict[str, str]) -> ManifoldDocument:
    """The warped n = 2 document, optionally rotated, on renamed coordinates."""
    chart = Chart(tuple(sorted(rename.values())))  # declared order follows the names
    scale = chart.exponential({rename["z"]: 1})
    one = chart.const(1)
    frames = []
    for k in (1, 3):
        u, v = f"d/d{rename[f'x{k}']}", f"d/d{rename[f'x{k + 1}']}"
        if rotate:
            first = ((COSH * scale, u), (SINH * scale, v))
            second = ((SINH * scale, u), (COSH * scale, v))
        else:
            first, second = ((scale, u),), ((scale, v),)
        frames += [(f"E{k}", first), (f"E{k + 1}", second)]
    frames.append(("E5", ((-one, f"d/d{rename['z']}"),)))
    pairs = {"E1": "E2", "E2": "E1", "E3": "E4", "E4": "E3"}
    return ManifoldDocument(
        name="warped2",
        coords=chart.coords,
        n=2,
        frames=tuple(frames),
        gram=tuple(Fraction(q) for q in (1, -1, 1, -1, 1)),
        metric=None,
        phi=tuple((m, ((one, pairs[m]),)) for m in pairs) + (("E5", ()),),
        xi=((one, "E5"),),
        eta=None,
    )


def _verdicts(doc: ManifoldDocument):
    reparsed = parse_manifold(doc.emit())
    assert reparsed == doc
    result = run_suite(reparsed)
    statuses = [(c.name, c.status) for c in result.checks]
    sol = result.soliton
    return statuses, sol and (sol.lam, sol.mu, sol.classification)


def test_rotated_frame_on_permuted_coordinates_keeps_verdicts():
    plain = _warped2_document(False, dict(zip(COORDS, COORDS)))
    s, built = build_warped(2), plain.to_structure()
    assert built.frame.members == s.frame.members
    assert built.frame.signs == s.frame.signs
    assert built.phi.nonzero() == s.phi.nonzero()
    base = _verdicts(plain)
    assert all(status == "pass" for _, status in base[0])
    # renames every coordinate; the warping one, now x2, is declared second
    rename = dict(zip(COORDS, ("x3", "z", "x4", "x1", "x2")))
    assert _verdicts(_warped2_document(True, rename)) == base


def _rotate_swapped_pairs(doc: ManifoldDocument) -> ManifoldDocument:
    """doc with each member E that phi swaps with F replaced by cosh E + sinh F."""
    combos = dict(doc.frames)
    partner = {
        member: combo[0][1]
        for member, combo in doc.phi
        if len(combo) == 1 and combo[0][1] != member and str(combo[0][0]) == "1"
    }
    frames = tuple(
        (m, tuple((COSH * c, t) for c, t in combo)
         + tuple((SINH * c, t) for c, t in combos[partner[m]]))
        if m in partner else (m, combo)
        for m, combo in doc.frames
    )
    assert len(partner) == 2 * doc.n
    return ManifoldDocument(
        doc.name, doc.coords, doc.n, frames, doc.gram, doc.metric, doc.phi, doc.xi, doc.eta
    )


@pytest.mark.parametrize("stem", ["ricciflat5", "nonein5"])
def test_hyperbolic_rotation_of_swapped_pairs_keeps_verdicts(stem):
    # documents of non-constant curvature; nonein5 fails L1 and so has no soliton line
    doc = load_manifold(Path(__file__).parent / "data" / f"{stem}.pk")
    rotated = _rotate_swapped_pairs(doc)
    assert rotated.frames != doc.frames
    base = _verdicts(doc)
    assert _verdicts(rotated) == base
    assert (base[1] is None) == (stem == "nonein5")
