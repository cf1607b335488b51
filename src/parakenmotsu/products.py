"""What the checks of one structure read, apart from the suite's table of
checks: `solve` and `condition` read it directly and compile no table."""

from __future__ import annotations

from functools import cached_property

from parakenmotsu.connection import FrameConnection, koszul_connection
from parakenmotsu.curvature import (
    CurvatureError,
    ricci,
    ricci_operator,
    riemann,
    w2_tensor,
)
from parakenmotsu.geometry import Tensor
from parakenmotsu.kinds import ConditionKind
from parakenmotsu.soliton import (
    CONDITIONS,
    SolitonSolution,
    condition_residual,
    phi_ricci_symmetric_check,
    solve_soliton,
)
from parakenmotsu.structure import (
    ParacontactStructure,
    check_axioms,
    kenmotsu_identity_suite,
)


class Products:
    """Derived products of one structure, each built on first use and kept.

    The chain structure -> Koszul connection -> Riemann -> Ricci and Q ->
    W2 -> soliton constants -> condition residuals is read through these
    attributes, and so are the witnesses of the checks that share one
    computation (A1-A10, I1-I14, P1-P3, a list each).  Whichever reader
    asks first pays for a product and every later reader shares it.  A
    builder's exception is not kept: reading the attribute again retries
    the build.
    """

    def __init__(self, structure: ParacontactStructure):
        self.s = structure
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
            op = self.w2 if CONDITIONS[kind].operator == "W2" else self.riem
            self._residuals[kind] = condition_residual(kind, self.s, op, self.ricci)
        return self._residuals[kind]

    @cached_property
    def axioms(self) -> list[str | None]:
        return check_axioms(self.s)

    @cached_property
    def identities(self) -> list[str | None]:
        try:
            riem = self.riem
        except CurvatureError:
            riem = None  # reported by C2; the identities build an unverified one
        return kenmotsu_identity_suite(self.s, self.conn, riem)

    @cached_property
    def phi_ricci(self) -> list[str | None]:
        return phi_ricci_symmetric_check(self.s, self.conn, self.ricci, self.q, self.sol)
