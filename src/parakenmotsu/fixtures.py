"""Constructible example families.

The warped family is the canonical constructible example in every odd
dimension: on coordinates (x_1..x_2n, z) take g = e^{-2z} h + dz (x) dz
with h the constant signature-(n,n) paracomplex metric, frame members
E_i = e^z d/dx_i and E_{2n+1} = -d/dz = xi, and phi swapping each
(E_{2k-1}, E_{2k}) pair.
"""

from __future__ import annotations

from parakenmotsu.geometry import Chart, Components, Frame, Tensor
from parakenmotsu.structure import ParacontactStructure


def _chart(n: int, params: tuple[str, ...]) -> Chart:
    if n == 1:
        coords = ("x", "y", "z")
    else:
        coords = tuple(f"x{i}" for i in range(1, 2 * n + 1)) + ("z",)
    return Chart(coords, params)


def build_warped(n: int, params: tuple[str, ...] = ()) -> ParacontactStructure:
    """Para-Kenmotsu structure on the warped product, any n >= 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    chart = _chart(n, params)
    d = 2 * n + 1
    zero, one = chart.zero(), chart.const(1)
    diagonal = [chart.exponential({"z": 1})] * (2 * n) + [chart.const(-1)]
    members = Components([((i, i), c) for i, c in enumerate(diagonal)], 2, d, zero)
    frame = Frame(chart, members, (1, -1) * n + (1,))
    swap = Components(  # [a, i]: E_a component of phi E_i
        [((a, a ^ 1), one) for a in range(2 * n)], 2, d, zero
    )
    phi = Tensor.build(frame, 1, 1, swap)
    xi = Components((((d - 1,), one),), 1, d, zero)  # E_{2n+1}
    eta = Tensor(frame, 0, 1, xi)  # the metric dual, as signs[2n] = 1
    return ParacontactStructure(frame, phi, xi, eta, n)
