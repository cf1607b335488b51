"""Frames, vector fields and tensors over an odd-dimensional chart.

Vector fields carry coordinate-basis components.  Everything else (metric,
one-forms, curvature and friends) is stored in the components of a fixed
frame, which for the structures handled here is pseudo-orthonormal: the
gram matrix of the frame is a constant diagonal of +1/-1 entries.  Inputs
given in the coordinate basis are converted once, by solving against the
frame's invertible component matrix.

Every sum over frame indices goes through one primitive, `contract`.  Its
spec is a signed sum of products of named factors, then the output
indices:

    contract("S[xm] R[myzw] xi[a] - S[xy] xi[m] R[amzw] -> axyzw",
             S=ricci, R=riem, xi=xi_components)

- A factor is `name[letters]`, one lowercase letter per frame index, with
  the operand passed as the keyword `name`: a `Tensor`, a sequence of
  frame components (flat row-major, or nested one level per index, like
  the gram matrix or the connection coefficients), or for a factor
  without brackets a `ScalarExpr` or a rational.  `delta[ij]` is the
  identity, and a bare integer such as `2` is a constant coefficient.
- A letter that is not an output index is summed over `range(d)`; a
  letter repeated inside one factor takes its diagonal.  Every term must
  carry every output index.
- Only nonzero operand components are visited.  A `Tensor` finds its
  nonzero components once and keeps them; a `Components` result knows
  them already; any other sequence is scanned on each call.  Within one
  call each operand is grouped once per pattern of already bound letters,
  and the join starts from the sparsest factor.  All product terms of an
  output component are collected first and normalized once.
- The result is a `Components` tuple in row-major order over the output
  letters, whose `nonzero()` are its nonzero (index, component) pairs,
  or one `ScalarExpr` when there are no output letters.  A `Tensor` built
  from it takes that view over instead of scanning.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from typing import Callable, Sequence

from parakenmotsu.scalar import NonInvertible, ScalarExpr, Term, mul_terms, read_only


class ValenceError(ValueError):
    """Raised when tensor arguments do not match the declared valence."""


Matrix = tuple[tuple[ScalarExpr, ...], ...]


class Chart:
    """Named coordinates plus optional constant parameters.

    The geometric dimension must be odd, 2n + 1.  Parameters behave as
    extra scalar symbols that no vector field ever differentiates along;
    they exist so that unknown constants can ride through the tensor
    algebra symbolically.
    """

    __slots__ = ("coords", "params")
    __setattr__ = __delattr__ = read_only

    def __init__(self, coords: tuple[str, ...], params: tuple[str, ...] = ()):
        names = coords + params
        if len(set(names)) != len(names):
            raise ValueError("chart symbols must be distinct")
        if len(coords) % 2 == 0 or not coords:
            raise ValueError(f"chart dimension must be odd (2n+1), got {len(coords)}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "params", params)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coords, self.params) == (other.coords, other.params)

    def __hash__(self):
        return hash((self.coords, self.params))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def n(self) -> int:
        return (len(self.coords) - 1) // 2

    @property
    def symbols(self) -> tuple[str, ...]:
        return self.coords + self.params

    def zero(self) -> ScalarExpr:
        return ScalarExpr.zero(self.symbols)

    def const(self, q) -> ScalarExpr:
        return ScalarExpr.const(q, self.symbols)

    def coordinate(self, name: str) -> ScalarExpr:
        return ScalarExpr.coordinate(name, self.symbols)

    def exponential(self, coeffs: dict) -> ScalarExpr:
        return ScalarExpr.exponential(coeffs, self.symbols)


class VectorField:
    """Coordinate-basis vector field: sum of components[i] * d/d(coords[i])."""

    __slots__ = ("chart", "components")
    __setattr__ = __delattr__ = read_only

    def __init__(self, chart: Chart, components: tuple[ScalarExpr, ...]):
        if len(components) != chart.dim:
            raise ValenceError("component count does not match chart dimension")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "components", components)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chart, self.components) == (other.chart, other.components)

    def __hash__(self):
        return hash((self.chart, self.components))

    @staticmethod
    def zero(chart: Chart) -> "VectorField":
        return VectorField(chart, (chart.zero(),) * chart.dim)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.chart,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(
            self.chart,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, tuple(-a for a in self.components))

    def scale(self, factor) -> "VectorField":
        return VectorField(self.chart, tuple(a * factor for a in self.components))

    def __call__(self, f: ScalarExpr) -> ScalarExpr:
        """Directional derivative X(f)."""
        return ScalarExpr.normalize(self.chart.symbols, _derivative_terms(self, f))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


def _derivative_terms(x: VectorField, f: ScalarExpr) -> list[Term]:
    """The product terms of X(f) = sum x^a df/dx^a, not yet normalized."""
    out: list[Term] = []
    if f.terms:
        for name, comp in zip(x.chart.coords, x.components):
            if comp.terms:
                out.extend(mul_terms(comp.terms, f.diff(name).terms))
    return out


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Lie bracket [X, Y] in coordinate components.

    In the package only `Frame.brackets()` calls it, once per pair of
    frame members, to build the structure constants; every other bracket
    is expanded from those in frame components.
    """
    chart = x.chart
    if chart != y.chart:
        raise ValenceError("bracket arguments live on different charts")
    minus_y = -y
    return VectorField(
        chart,
        tuple(
            ScalarExpr.normalize(
                chart.symbols,
                _derivative_terms(x, yc) + _derivative_terms(minus_y, xc),
            )
            for xc, yc in zip(x.components, y.components)
        ),
    )


# ---------------------------------------------------------------------------
# Exact linear algebra over the scalar ring, block by block: each square
# irreducible block gets Berkowitz's division-free characteristic polynomial
# (Inf. Proc. Letters 18, 1984), hence its determinant and, by Cayley-Hamilton,
# its inverse.  On a whole rotated frame Berkowitz takes several times longer.
# ---------------------------------------------------------------------------


def _blocks(m: Matrix) -> list[tuple[list[int], list[int]]]:
    """(rows, columns) of each component of the graph joining row i to column j
    when m[i][j] is nonzero; quick-find labels, column j being node d + j."""
    d, label = len(m), list(range(2 * len(m)))
    for i, j in itertools.product(range(d), repeat=2):
        if m[i][j].terms and label[i] != label[d + j]:
            old, new = label[d + j], label[i]
            label = [new if x == old else x for x in label]
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for node, root in enumerate(label):
        blocks.setdefault(root, ([], []))[node >= d].append(node % d)
    return list(blocks.values())


def _charpoly(a: Matrix, zero: ScalarExpr) -> list[ScalarExpr]:
    """1, c1, ..., ck of det(x I - a).  Bordering the leading block A by a row R,
    a column C and a corner e multiplies them by the lower-triangular Toeplitz
    matrix with first column 1, -e, -RC, -RAC, ..., -RA^(k-1)C."""
    poly = [ScalarExpr.const(1, zero.symbols), -a[0][0]]
    for k in range(1, len(a)):
        lead, row, v = [r[:k] for r in a[:k]], a[k][:k], [r[k] for r in a[:k]]
        column = poly[:1] + [-a[k][k]]
        for power in range(k):
            v = contract("a[ij] v[j] -> i", a=lead, v=v) if power else v
            column.append(-contract("r[i] v[i] ->", r=row, v=v))
        t = [[column[i - j] if i >= j else zero for j in range(k + 2)] for i in range(k + 2)]
        poly = list(contract("t[ij] p[j] -> i", t=t, p=poly + [zero]))
    return poly


def _factor(m: Matrix, zero: ScalarExpr):
    """det m and (rows, columns, block, charpoly) per block; a non-square block gives (0, [])."""
    blocks = _blocks(m)
    if any(len(rows) != len(cols) for rows, cols in blocks):
        return zero, []
    perm = dict(pair for rows, cols in blocks for pair in zip(rows, cols))
    swaps = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
    det, out = ScalarExpr.const((-1) ** swaps, zero.symbols), []
    for rows, cols in blocks:
        block = tuple(tuple(m[i][j] for j in cols) for i in rows)
        poly = _charpoly(block, zero)
        det = det * (poly[-1] if len(rows) % 2 == 0 else -poly[-1])
        out.append((rows, cols, block, poly))
    return det, out


def mat_det(m: Matrix, zero: ScalarExpr) -> ScalarExpr:
    """The permutation sign of the blocks times their determinants."""
    return _factor(m, zero)[0]


def mat_inverse(m: Matrix, zero: ScalarExpr) -> Matrix:
    """Inverse; det m must be a unit (the units are q*exp(l), so every block
    determinant is one).  A block with characteristic polynomial x^k + c1
    x^(k-1) + ... + ck has the inverse -(A^(k-1) + ... + c(k-1) I) / ck."""
    det, blocks = _factor(m, zero)
    try:
        det.invert()
    except NonInvertible as exc:
        raise NonInvertible(f"matrix is not invertible over the ring: det = {det}") from exc
    out = [[zero] * len(m) for _ in m]
    for rows, cols, block, poly in blocks:
        k, u = len(rows), -poly[-1].invert()
        inv = [u if i == j else zero for i, j in itertools.product(range(k), repeat=2)]
        for c in poly[1:k]:  # Horner, with every coefficient scaled by u
            inv = contract("a[ij] b[jl] + u c delta[il] -> il", a=block, b=inv, u=u, c=c)
        for (t, s), value in zip(itertools.product(range(k), repeat=2), inv):
            out[cols[t]][rows[s]] = value
    return tuple(map(tuple, out))


def mat_rank(m: Sequence[Sequence[ScalarExpr]], zero: ScalarExpr) -> int:
    """Rank by fraction-free elimination (valid: the ring is a domain)."""
    rows = [list(r) for r in m]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = None
        for r in range(rank, len(rows)):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col].is_zero():
                continue
            factor = rows[r][col]
            rows[r] = [p * a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# Frames.
# ---------------------------------------------------------------------------


class Frame:
    """Ordered frame with its gram matrix g(E_i, E_j).

    The member component matrix must be invertible over the ring, which is
    the pointwise linear-independence check.  The gram matrix is kept as
    given; the pseudo-orthonormal helpers below insist on a constant
    diagonal of +1/-1 when a computation needs it.  Equality and the hash
    ignore `_cache`, which holds values derived from the other fields.
    """

    __setattr__ = __delattr__ = read_only

    def __init__(self, chart: Chart, members: tuple[VectorField, ...], gram: Matrix):
        d = chart.dim
        if len(members) != d:
            raise ValenceError(f"expected {d} frame members, got {len(members)}")
        if len(gram) != d or any(len(row) != d for row in gram):
            raise ValenceError("gram matrix shape does not match the frame")
        for i in range(d):
            for j in range(i, d):
                if gram[i][j] != gram[j][i]:
                    raise ValenceError("gram matrix must be symmetric")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_cache", {})
        self.component_inverse()  # raises NonInvertible for dependent members

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chart, self.members, self.gram) == (
            other.chart,
            other.members,
            other.gram,
        )

    def __hash__(self):
        return hash((self.chart, self.members, self.gram))

    @property
    def dim(self) -> int:
        return self.chart.dim

    def component_matrix(self) -> Matrix:
        """Columns are the coordinate components of the members."""
        d = self.dim
        return tuple(
            tuple(self.members[j].components[a] for j in range(d)) for a in range(d)
        )

    def component_inverse(self) -> Matrix:
        if "cinv" not in self._cache:
            self._cache["cinv"] = mat_inverse(self.component_matrix(), self.chart.zero())
        return self._cache["cinv"]

    def gram_inverse(self) -> Matrix:
        if "ginv" not in self._cache:
            self._cache["ginv"] = mat_inverse(self.gram, self.chart.zero())
        return self._cache["ginv"]

    def gram_signs(self) -> tuple[Fraction, ...]:
        """Diagonal signs; requires the constant diagonal +1/-1 gram."""
        d = self.dim
        signs = []
        for i in range(d):
            for j in range(d):
                if i != j and not self.gram[i][j].is_zero():
                    raise ValenceError("gram matrix is not diagonal")
            q = self.gram[i][i].as_rational()
            if q * q != 1:
                raise ValenceError(f"gram diagonal entry {q} is not +1 or -1")
            signs.append(q)
        return tuple(signs)

    def unit_components(self, i: int) -> tuple[ScalarExpr, ...]:
        zero, one = self.chart.zero(), self.chart.const(1)
        return tuple(one if j == i else zero for j in range(self.dim))

    def to_frame(self, x: VectorField) -> tuple[ScalarExpr, ...]:
        """Frame components of X, solving sum(c_i E_i) = X."""
        for i, member in enumerate(self.members):
            if x is member:
                return self.unit_components(i)
        inv = self.component_inverse()
        return contract("inv[ia] x[a] -> i", inv=inv, x=x.components)

    def from_frame(self, comps: Sequence[ScalarExpr]) -> VectorField:
        members = [e.components for e in self.members]
        return VectorField(self.chart, contract("c[i] e[ia] -> a", c=comps, e=members))

    def metric_vv(self, x: VectorField, y: VectorField) -> ScalarExpr:
        """g(X, Y) through frame components and the gram matrix."""
        return contract(
            "x[i] g[ij] y[j] ->", x=self.to_frame(x), g=self.gram, y=self.to_frame(y)
        )

    def metric_tensor(self) -> "Tensor":
        return Tensor(self, 0, 2, _flatten(self.gram))

    def brackets(self) -> tuple[tuple[tuple[ScalarExpr, ...], ...], ...]:
        """Frame components of every [E_i, E_j], nested [i][j][k], cached."""
        if "brackets" not in self._cache:
            d, members = self.dim, self.members
            table = [[()] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    table[i][j] = self.to_frame(bracket(members[i], members[j]))
                    table[j][i] = tuple(-c for c in table[i][j])
            self._cache["brackets"] = tuple(map(tuple, table))
        return self._cache["brackets"]


def derivatives(
    fields: Sequence[VectorField], comps: Sequence[ScalarExpr]
) -> tuple[ScalarExpr, ...]:
    """X(c) for every field X and component c, the field index first."""
    return tuple(c if c.is_zero() else x(c) for x in fields for c in comps)


def _flatten(rows: Matrix) -> tuple[ScalarExpr, ...]:
    return tuple(entry for row in rows for entry in row)


# ---------------------------------------------------------------------------
# Tensors in frame components.
# ---------------------------------------------------------------------------


Nonzero = tuple[tuple[tuple[int, ...], ScalarExpr], ...]


def _nonzero_entries(components: Sequence[ScalarExpr], d: int, rank: int) -> Nonzero:
    """(index, component) of every nonzero component, in row-major order."""
    idx = itertools.product(range(d), repeat=rank)
    return tuple((i, c) for i, c in zip(idx, components) if c.terms)


def _unflatten(at: int, d: int, rank: int) -> tuple[int, ...]:
    """The index of row-major position `at` over `rank` indices in range(d)."""
    idx = [0] * rank
    for p in range(rank - 1, -1, -1):
        at, idx[p] = divmod(at, d)
    return tuple(idx)


class Components(tuple):
    """The row-major components `contract` returns, which know their nonzero
    (index, component) pairs."""

    __setattr__ = __delattr__ = read_only

    def __new__(cls, components, nonzero: Nonzero):
        self = super().__new__(cls, components)
        object.__setattr__(self, "_nonzero", nonzero)
        return self

    def nonzero(self) -> Nonzero:
        return self._nonzero


class Tensor:
    """Frame-component tensor of valence (r, s) with r in {0, 1}.

    Components are stored flat in row-major order over (r + s) frame
    indices; for r = 1 the contravariant index comes first.  The nonzero
    components are found at most once (see `nonzero`), or taken over
    from a `Components` result of `contract`.
    """

    __slots__ = ("frame", "r", "s", "components", "_nonzero")
    __setattr__ = __delattr__ = read_only

    def __init__(self, frame: Frame, r: int, s: int, components: tuple[ScalarExpr, ...]):
        if r not in (0, 1):
            raise ValenceError("only valences (0,s) and (1,s) are supported")
        d = frame.dim
        if len(components) != d ** (r + s):
            raise ValenceError("component count does not match valence")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "components", components)
        handed = components.nonzero() if isinstance(components, Components) else None
        object.__setattr__(self, "_nonzero", handed)

    @property
    def rank(self) -> int:
        return self.r + self.s

    def __getitem__(self, idx) -> ScalarExpr:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.rank:
            raise ValenceError(f"expected {self.rank} indices, got {len(idx)}")
        d = self.frame.dim
        flat = 0
        for i in idx:
            if not 0 <= i < d:
                raise ValenceError(f"frame index {i} outside range({d})")
            flat = flat * d + i
        return self.components[flat]

    @staticmethod
    def build(
        frame: Frame,
        r: int,
        s: int,
        entry: Callable[..., ScalarExpr] | Sequence[ScalarExpr],
    ) -> "Tensor":
        """Tensor from entry(*idx), or from its components in row-major order."""
        if callable(entry):
            idx = itertools.product(range(frame.dim), repeat=r + s)
            entry = [entry(*i) for i in idx]
        return Tensor(frame, r, s, entry if isinstance(entry, tuple) else tuple(entry))

    def __add__(self, other: "Tensor") -> "Tensor":
        self._match(other)
        return Tensor(
            self.frame,
            self.r,
            self.s,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._match(other)
        return Tensor(
            self.frame,
            self.r,
            self.s,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self) -> "Tensor":
        return Tensor(self.frame, self.r, self.s, tuple(-a for a in self.components))

    def scale(self, factor) -> "Tensor":
        return Tensor(
            self.frame, self.r, self.s, tuple(a * factor for a in self.components)
        )

    def _match(self, other: "Tensor") -> None:
        if self.frame is not other.frame or (self.r, self.s) != (other.r, other.s):
            raise ValenceError("tensor operands do not share frame and valence")

    def nonzero(self) -> Nonzero:
        """(index, component) of each nonzero component, in row-major order."""
        if self._nonzero is None:
            view = _nonzero_entries(self.components, self.frame.dim, self.rank)
            object.__setattr__(self, "_nonzero", view)
        return self._nonzero

    def is_zero(self) -> bool:
        return not self.nonzero()

    def first_nonzero(self) -> tuple[tuple[int, ...], ScalarExpr] | None:
        nonzero = self.nonzero()
        return nonzero[0] if nonzero else None


# ---------------------------------------------------------------------------
# The contraction primitive (see the module docstring for the spec).
# ---------------------------------------------------------------------------

_FACTOR = re.compile(r"([A-Za-z_]\w*)(?:\[([a-z]+)\])?|(\d+)")
_ONE = (Term(1),)


@functools.lru_cache(maxsize=None)
def _parse_spec(spec: str):
    """(output letters, terms), a term being (sign, ((name, letters), ...))."""
    lhs, arrow, out = spec.partition("->")
    out = out.strip()
    tokens = lhs.split()
    if tokens and tokens[0] not in "+-":
        tokens.insert(0, "+")
    terms: list[tuple[int, list]] = []
    for token in tokens:
        if token in ("+", "-"):
            terms.append((-1 if token == "-" else 1, []))
            continue
        m = _FACTOR.fullmatch(token)
        if m is None:
            raise ValueError(f"bad factor {token!r} in contraction {spec!r}")
        terms[-1][1].append((m.group(1) or m.group(3), m.group(2) or ""))
    distinct = len(set(out)) == len(out)
    if not (arrow and terms and distinct and re.fullmatch(r"[a-z]*", out)):
        raise ValueError(f"malformed contraction {spec!r}")
    for _, factors in terms:
        letters = "".join(l for _, l in factors)
        if not factors or not set(out) <= set(letters):
            raise ValueError(f"a term of {spec!r} lacks an output index")
    return out, tuple((sign, tuple(factors)) for sign, factors in terms)


def _components(value, rank: int):
    """(flat components, dimension) of a Tensor, ScalarExpr or sequence operand."""
    if isinstance(value, Tensor):
        if value.rank != rank:
            raise ValenceError(f"tensor of rank {value.rank} given {rank} indices")
        return value.components, value.frame.dim
    if isinstance(value, ScalarExpr) != (rank == 0):
        raise ValenceError("a scalar takes no indices, a sequence at least one")
    if isinstance(value, ScalarExpr):
        return (value,), None
    comps, depth = list(value), 1
    while comps and not isinstance(comps[0], ScalarExpr):
        comps, depth = [c for row in comps for c in row], depth + 1
    if depth not in (1, rank):
        raise ValenceError(f"operand nested {depth} deep given {rank} indices")
    d = len(value) if depth == rank else round(len(comps) ** (1 / rank))
    if len(comps) != d**rank:
        raise ValenceError(f"{len(comps)} components do not fit {rank} indices")
    return comps, d


def contract(spec: str, **operands) -> ScalarExpr | Components:
    """Evaluate a signed sum of index contractions; see the module docstring."""
    out, terms = _parse_spec(spec)
    flat: dict[str, Sequence[ScalarExpr]] = {}
    dims, symbols = set(), set()
    for _, factors in terms:
        for name, letters in factors:
            if name in flat or name.isdigit() or name == "delta":
                continue
            value = operands.get(name)
            if value is None:
                raise ValueError(f"contraction {spec!r} has no operand {name!r}")
            if isinstance(value, (int, Fraction)) and not letters:
                continue
            flat[name], d = _components(value, len(letters))
            dims.add(d)
            if flat[name]:
                symbols.add(flat[name][0].symbols)
    dims.discard(None)
    if len(dims) != 1 or len(symbols) != 1:
        raise ValenceError(f"operands of {spec!r} disagree on dimension or chart")
    (d,), (syms,) = dims, symbols

    entries: dict[tuple, list] = {}
    groups: dict[tuple, dict] = {}

    def sparse(name: str, pattern: tuple[int, ...]):
        """Nonzero (index, terms) pairs over the distinct letters of `pattern`
        (each letter's first position), diagonal taken for a repeated letter."""
        key = (name, pattern)
        if key not in entries:
            rank, value = len(pattern), operands.get(name)
            if name == "delta":
                pairs = [((i,) * rank, _ONE) for i in range(d)]
            else:
                if isinstance(value, (Tensor, Components)):
                    view = value.nonzero()
                else:
                    view = _nonzero_entries(flat[name], d, rank)
                pairs = [(i, c.terms) for i, c in view]
            keep = sorted(set(pattern))
            if len(keep) < rank:
                pairs = [
                    (tuple(i[p] for p in keep), t)
                    for i, t in pairs
                    if all(i[p] == i[q] for p, q in enumerate(pattern))
                ]
            entries[key] = pairs
        return entries[key]

    def grouped(name: str, pattern: tuple[int, ...], bound: tuple[int, ...]):
        """The pairs of `sparse`, grouped by their values at the `bound` positions."""
        key = (name, pattern, bound)
        if key not in groups:
            table: dict[tuple, list] = {}
            if bound:
                free = [p for p in range(len(set(pattern))) if p not in bound]
                for i, t in sparse(name, pattern):
                    table.setdefault(tuple([i[p] for p in bound]), []).append(
                        (tuple([i[p] for p in free]), t)
                    )
            else:  # one group, in which every index is free
                table[()] = sparse(name, pattern)
            groups[key] = table
        return groups[key]

    acc: dict[int, list[Term]] = {}
    for sign, factors in terms:
        coeff = sign
        parts = []
        for name, letters in factors:
            value = operands.get(name)
            if name.isdigit():
                coeff *= int(name)
            elif not letters and isinstance(value, (int, Fraction)):
                coeff *= value
            else:
                pattern = tuple(letters.index(l) for l in letters)
                unique = "".join(dict.fromkeys(letters))
                parts.append((name, pattern, unique, len(sparse(name, pattern))))
        if coeff == 0 or any(not size for *_, size in parts):
            continue
        # Join the sparsest factor first; each later one is grouped by the
        # letters already bound, so only matching components are visited.
        parts.sort(key=lambda part: part[3])
        # A row is the values of the letters bound so far, in binding order,
        # with the product of its components.
        slot: dict[str, int] = {}
        rows = [((), _ONE)]
        for name, pattern, letters, _ in parts:
            bound = tuple(p for p, l in enumerate(letters) if l in slot)
            table = grouped(name, pattern, bound)
            at = [slot[letters[p]] for p in bound]
            rows = [
                (vals + free, mul_terms(product, t))
                for vals, product in rows
                for free, t in table.get(tuple([vals[s] for s in at]), ())
            ]
            for l in letters:
                slot.setdefault(l, len(slot))
        out_slots = [slot[l] for l in out]
        scale = (Term(coeff),)
        for vals, product in rows:
            at = 0
            for s in out_slots:
                at = at * d + vals[s]
            acc.setdefault(at, []).extend(
                product if coeff == 1 else mul_terms(scale, product)
            )

    zero = ScalarExpr.zero(syms)
    if not out:
        return ScalarExpr.normalize(syms, acc[0]) if acc else zero
    comps = [zero] * d ** len(out)
    found = []
    for at in sorted(acc):
        value = ScalarExpr.normalize(syms, acc[at])
        if value.terms:
            comps[at] = value
            found.append((_unflatten(at, d, len(out)), value))
    return Components(comps, tuple(found))


# ---------------------------------------------------------------------------
# Derivations of the tensor algebra.  A derivation D that commutes with
# contractions (a covariant derivative or a Lie derivative) is fixed by D on
# functions and on the frame members, D E_j = c[jm] E_m; on the dual coframe
# it is then D E^j = -c[mj] E^m, and on a tensor the Leibniz rule gives
#
#     (D t)[ab] = D(t[ab]) + c[za] t[zb] - c[bz] t[az]     for (1, 1),
#
# one signed term per index.  `leibniz_spec` writes that spec for any valence.
# ---------------------------------------------------------------------------

_LEIBNIZ_INDEX = "abcdefghjklmnopqrstuvwxy"  # i is the direction, z is summed


@functools.lru_cache(maxsize=None)
def leibniz_spec(r: int, s: int, directed: bool = False) -> str:
    """Contraction spec of D t for a valence (r, s) tensor t.

    Operands: `t`, `dt` the derivatives D of its components and `c` the
    table of D on the frame.  When `directed`, `dt`, `c` and the output carry
    a leading direction index i: one derivation per frame member.
    """
    i = "i" if directed else ""
    letters = _LEIBNIZ_INDEX[: r + s]
    terms = [f"dt[{i}{letters}]"]
    for p, l in enumerate(letters):
        moved = f"t[{letters[:p]}z{letters[p + 1:]}]"
        terms.append(f"+ c[{i}z{l}] {moved}" if p < r else f"- c[{i}{l}z] {moved}")
    return " ".join(terms) + f" -> {i}{letters}"


def derive_along(t: Tensor, x: VectorField, along) -> Tensor:
    """D_X t for the derivation with D_X f = X(f) and D_X E_j = along[j][m] E_m."""
    comps = contract(
        leibniz_spec(t.r, t.s), dt=derivatives((x,), t.components), c=along, t=t
    )
    return Tensor.build(t.frame, t.r, t.s, comps)


def tensor_apply(t: Tensor, args: Sequence[VectorField]):
    """Contract a tensor with vector-field arguments.

    Returns a ScalarExpr for valence (0, s) and a VectorField for (1, s).
    """
    if len(args) != t.s:
        raise ValenceError(f"tensor of valence ({t.r},{t.s}) takes {t.s} arguments")
    frame = t.frame
    upper = "a" * t.r
    letters = "bcdefghijklmnopqrstuvwxyz"[: t.s]
    factors = "".join(f" x{l}[{l}]" for l in letters)
    value = contract(
        f"t[{upper}{letters}]{factors} -> {upper}" if t.rank else "t ->",
        t=t,
        **{f"x{l}": frame.to_frame(x) for l, x in zip(letters, args)},
    )
    return frame.from_frame(value) if t.r else value


class OneForm:
    """One-form stored by its values on the frame members."""

    __slots__ = ("frame", "components")
    __setattr__ = __delattr__ = read_only

    def __init__(self, frame: Frame, components: tuple[ScalarExpr, ...]):
        if len(components) != frame.dim:
            raise ValenceError("one-form component count does not match frame")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "components", components)

    def __call__(self, x: VectorField) -> ScalarExpr:
        return contract("w[i] x[i] ->", w=self.components, x=self.frame.to_frame(x))

    def on_member(self, i: int) -> ScalarExpr:
        return self.components[i]

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(
            self.frame, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(
            self.frame, tuple(a - b for a, b in zip(self.components, other.components))
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


def differential(f: ScalarExpr, frame: Frame) -> OneForm:
    """df as a one-form on the frame: df(E_i) = E_i(f)."""
    return OneForm(frame, tuple(e(f) for e in frame.members))


def exterior_derivative(omega: OneForm) -> Tensor:
    """d(omega) on frame pairs: X(w(Y)) - Y(w(X)) - w([X, Y])."""
    frame = omega.frame
    comps = contract(
        "dw[ij] - dw[ji] - w[k] c[ijk] -> ij",
        dw=derivatives(frame.members, omega.components),
        w=omega.components,
        c=frame.brackets(),
    )
    return Tensor.build(frame, 0, 2, comps)
