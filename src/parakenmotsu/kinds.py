"""The four curvature conditions' names, apart from everything they mean.

What the paper says about a kind is its row in `soliton.CONDITIONS`; this
module imports nothing of the package, so the command line can offer
`--kind` without compiling the geometry.
"""

from enum import Enum


class ConditionKind(Enum):
    R_DOT_S = "R.S"
    S_DOT_R = "S.R"
    W2_DOT_S = "W2.S"
    S_DOT_W2 = "S.W2"
