"""Seeded `.pk` documents for the benchmark workloads.

Every generator takes a `random.Random` and returns document text, so
the program under test only ever sees documents.  Nothing here imports
the package: the text is written from the closed forms of the warped
family, and each generator says why its documents must verify, so that
a wrong verdict points at the program and not at the input.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Single-letter chart names that cannot collide with the DSL: `d` starts
# `d/d<coord>` and differentials, `e` and `n` are avoided for clarity,
# and frame members are named E1, E2, ...
_NAMES = "abcfghkmpqrstuvwxy"


def _coord_names(n: int, rng: random.Random) -> list[str]:
    """2n distinct horizontal names followed by the vertical one."""
    return rng.sample(_NAMES, 2 * n + 1)


def _timelike_signs(n: int, rng: random.Random) -> list[int]:
    """Gram diagonal: each (E_{2k-1}, E_{2k}) pair is (1, -1) or (-1, 1)."""
    signs = []
    for _ in range(n):
        first = rng.choice((1, -1))
        signs += [first, -first]
    return signs + [1]


def _header(name: str, coords: list[str], n: int) -> list[str]:
    return [f"manifold {name}", "coords " + " ".join(coords), f"n = {n}"]


def _tail(n: int, signs: list[int]) -> list[str]:
    d = 2 * n + 1
    lines = ["gram diag " + " ".join(str(s) for s in signs)]
    for k in range(n):
        lines.append(f"phi E{2 * k + 1} -> E{2 * k + 2}")
        lines.append(f"phi E{2 * k + 2} -> E{2 * k + 1}")
    lines.append(f"phi E{d} -> 0")
    lines.append(f"xi = E{d}")
    return lines


def warped(n: int, rng: random.Random, warp: bool = True) -> str:
    """The warped product R^2n x_{e^z} R with the paracomplex metric.

    Why it verifies: g = e^{-2z} h + dz^2 with E_i = e^z d/dx_i orthonormal
    and phi swapping each pair is the paper's model para-Kenmotsu
    manifold, with R = -(g wedge g), S = -2n g and (lambda, mu) =
    (2n - 1, 1).  Which member of a pair is timelike does not matter:
    swapping the signs of both keeps g(phi X, phi Y) = -g(X, Y) + eta(X)
    eta(Y) and the signature (n + 1, n).  Renaming coordinates changes
    nothing.  With `warp=False` the factor e^z is dropped; that flat
    structure still satisfies the axioms, but nabla phi = 0 there, so
    (nabla_X phi) Y = g(phi X, Y) xi - eta(Y) phi X must fail.
    """
    coords = _coord_names(n, rng)
    signs = _timelike_signs(n, rng)
    kind = "warped" if warp else "flat"
    lines = _header(f"{kind}{n}_{rng.randrange(10**6)}", coords, n)
    scale = f"exp({coords[-1]}) " if warp else ""
    for i in range(2 * n):
        lines.append(f"frame E{i + 1} = {scale}d/d{coords[i]}")
    lines.append(f"frame E{2 * n + 1} = -d/d{coords[-1]}")
    return "\n".join(lines + _tail(n, signs)) + "\n"


_ANGLE_COEFFS = tuple(
    Fraction(p, q) for p, q in ((1, 2), (1, 3), (2, 3), (3, 2), (3, 4), (2, 1))
)


def _linear(coeffs: dict[str, Fraction]) -> str:
    text = ""
    for name, c in coeffs.items():
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        sign = "-" if c < 0 else ("+" if text else "")
        text += f" {sign} {mag}{name}" if text else f"{sign}{mag}{name}"
    return text


def rotated(rng: random.Random) -> str:
    """The n = 2 warped structure in a rotated frame and a sheared chart.

    Each pair (E_{2k-1}, E_{2k}) is replaced by
        E'_{2k-1} = cosh t E_{2k-1} + sinh t E_{2k},
        E'_{2k}   = sinh t E_{2k-1} + cosh t E_{2k},
    with t a seeded rational linear form in z and one horizontal
    coordinate.  Why it verifies: the rotation keeps the gram diagonal,
    since cosh^2 t - sinh^2 t = 1 and the cross terms cancel, and it
    commutes with phi, which swaps the two members.  So g, phi, xi and
    eta are the same tensors as in `warped(2)`; only the frame changed,
    and every check is frame-independent.  The chart is then changed by
    x_{2k-1} = u_k - v_k^3, x_{2k} = v_k, so d/dx_{2k-1} = d/du_k and
    d/dx_{2k} = 3 v_k^2 d/du_k + d/dv_k: a change of coordinates alters
    no verdict either.  cosh t and sinh t are written through
    exponentials, so scalars become multi-term sums that must cancel.
    The frame determinant is e^{4z}, a unit, so the frame inverts.
    """
    n = 2
    coords = _coord_names(n, rng)
    signs = _timelike_signs(n, rng)
    z = coords[-1]
    angle = {
        z: rng.choice(_ANGLE_COEFFS) * rng.choice((1, -1)),
        coords[1]: rng.choice(_ANGLE_COEFFS) * rng.choice((1, -1)),
    }
    up = dict(angle)
    up[z] += 1
    down = {k: -c for k, c in angle.items()}
    down[z] += 1
    # e^z cosh t and e^z sinh t as sums of exponentials
    plus, minus = f"exp({_linear(up)})", f"exp({_linear(down)})"
    ch = f"1/2*{plus} + 1/2*{minus}"
    sh = f"1/2*{plus} - 1/2*{minus}"
    lines = _header(f"rotated{n}_{rng.randrange(10**6)}", coords, n)
    for k in range(n):
        u, v = coords[2 * k], coords[2 * k + 1]
        # cosh E_{2k-1} + sinh E_{2k}, with E_{2k} = e^z (3 v^2 d/du + d/dv)
        lines.append(
            f"frame E{2 * k + 1} = {ch} + 3/2*{v}^2*{plus} - 3/2*{v}^2*{minus} d/d{u}"
            f" + {sh} d/d{v}"
        )
        lines.append(
            f"frame E{2 * k + 2} = {sh} + 3/2*{v}^2*{plus} + 3/2*{v}^2*{minus} d/d{u}"
            f" + {ch} d/d{v}"
        )
    lines.append(f"frame E{2 * n + 1} = -d/d{z}")
    return "\n".join(lines + _tail(n, signs)) + "\n"


def malformed(rng: random.Random) -> tuple[str, int]:
    """A warped n = 1 document with one seeded defect, and its line.

    Why it must be rejected with exit 2 and a position: each defect
    breaks a rule of the `.pk` grammar that is checked on the line
    where it occurs (an even coordinate count, an unknown symbol, a gram
    entry other than +-1, an unknown frame target, a section out of
    order, a missing '=').
    """
    lines = warped(1, rng).splitlines()
    coords = lines[1].split()[1:]
    defect = rng.randrange(6)
    if defect == 0:
        at = 1
        lines[at] += " " + next(c for c in _NAMES if c not in coords)
    elif defect == 1:
        at = 3
        stranger = next(c for c in _NAMES if c not in coords)
        lines[at] = lines[at].replace("exp(", f"{stranger}*exp(", 1)
    elif defect == 2:
        at = 6
        lines[at] = "gram diag 2 -1 1"
    elif defect == 3:
        at = 7
        lines[at] = "phi E1 -> E9"
    elif defect == 4:
        at = len(lines) - 1
        lines.insert(at, lines[at])
        at += 1
    else:
        at = len(lines) - 1
        lines[at] = lines[at].replace(" = ", " ")
    return "\n".join(lines) + "\n", at + 1
