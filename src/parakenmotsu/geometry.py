"""Frames, vector fields and tensors over an odd-dimensional chart.

Vector fields carry coordinate-basis components.  Everything else (metric,
one-forms such as eta, curvature and friends) is a `Tensor` in the
components of a fixed frame, which is pseudo-orthonormal by construction:
a `Frame` holds one sign, +1 or -1, per member, and the metric in its
components is diag(signs), its own inverse.  Inputs given in the
coordinate basis are converted once, by solving against the frame's
invertible component matrix.

Every sum over frame indices goes through one primitive, `contract`.  Its
spec is a signed sum of products of named factors, then the output
indices:

    contract("S[xm] R[myzw] xi[a] - S[xy] xi[m] R[amzw] -> axyzw",
             S=ricci, R=riem, xi=xi_components)

- A factor is `name[letters]`, one lowercase letter per frame index, with
  the operand passed as the keyword `name`: a `Tensor` or a `Components`
  of that rank, or for a factor without brackets a `ScalarExpr` or a
  rational.  `delta[ij]` is the identity, and a bare integer such as `2`
  is a constant coefficient.  A plain or nested sequence is rejected with
  `ValenceError`: each table is built as `Components` once, where it is
  made (the frame's metric tensor, brackets and inverses, the connection
  coefficients, derivative tables, `to_frame` results).
- A letter that is not an output index is summed over `range(d)`; a
  letter repeated inside one factor takes its diagonal.  Every term must
  carry every output index.
- Only nonzero operand components are visited: a `Components` stores
  only those, in row-major order, and is the one place that knows that
  layout; a `Tensor` is read through its `Components`.  Within one call
  each operand is grouped once per pattern of already bound letters, and
  the join starts from the sparsest factor.  All product terms of an
  output component are collected first and normalized once.
- The result is a `Components` built from the nonzero pairs found, or
  one `ScalarExpr` when there are no output letters.
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


Nonzero = tuple[tuple[tuple[int, ...], ScalarExpr], ...]


class Components:
    """Frame components over `rank` indices, each in range(dim): the
    operand shape of `contract`.

    Only the nonzero (index, component) pairs are stored, in row-major
    order; every other entry is `zero`, which carries the chart symbols.
    `Components(values, rank, dim)` scans a dense row-major sequence once;
    `Components.from_nonzero` takes the pairs when they are known, as in
    `contract`.  `len()` and iteration are those of the dense sequence.  A
    rank-0 value is one component.
    """

    __slots__ = ("dim", "rank", "zero", "_pairs", "_at")
    __setattr__ = __delattr__ = read_only

    def __init__(self, values: Sequence[ScalarExpr], rank: int, dim: int):
        if len(values) != dim**rank:
            raise ValenceError(f"{len(values)} components do not fit {rank} indices")
        idx = itertools.product(range(dim), repeat=rank)
        pairs = [(i, c) for i, c in zip(idx, values) if c.terms]
        self._fill(dim, rank, ScalarExpr.zero(values[0].symbols), pairs)

    @classmethod
    def from_nonzero(cls, pairs, rank: int, dim: int, zero: ScalarExpr) -> "Components":
        """From the nonzero (index, component) pairs, in row-major order."""
        self = object.__new__(cls)
        self._fill(dim, rank, zero, pairs)
        return self

    def _fill(self, dim, rank, zero, pairs) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "zero", zero)
        object.__setattr__(self, "_pairs", tuple(pairs))
        object.__setattr__(self, "_at", dict(self._pairs))

    def nonzero(self) -> Nonzero:
        """(index, component) of each nonzero component, in row-major order."""
        return self._pairs

    def __getitem__(self, idx) -> ScalarExpr:
        if isinstance(idx, int):
            idx = (idx,)
        value = self._at.get(idx)
        if value is not None:
            return value
        if len(idx) != self.rank:
            raise ValenceError(f"expected {self.rank} indices, got {len(idx)}")
        for i in idx:
            if not 0 <= i < self.dim:
                raise ValenceError(f"frame index {i} outside range({self.dim})")
        return self.zero

    def map(self, f: Callable[[ScalarExpr], ScalarExpr]) -> "Components":
        """f of every nonzero entry, dropping the entries where it is zero."""
        pairs = [(i, v) for i, c in self._pairs if (v := f(c)).terms]
        return Components.from_nonzero(pairs, self.rank, self.dim, self.zero)

    def __len__(self) -> int:
        return self.dim**self.rank

    def __iter__(self):
        at, zero = self._at, self.zero
        for i in itertools.product(range(self.dim), repeat=self.rank):
            yield at.get(i, zero)


def _matrix_components(m: Matrix) -> Components:
    return Components([entry for row in m for entry in row], 2, len(m))


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
        lead = _matrix_components([r[:k] for r in a[:k]])
        row, v = Components(a[k][:k], 1, k), Components([r[k] for r in a[:k]], 1, k)
        column = poly[:1] + [-a[k][k]]
        for power in range(k):
            v = contract("a[ij] v[j] -> i", a=lead, v=v) if power else v
            column.append(-contract("r[i] v[i] ->", r=row, v=v))
        t = [[column[i - j] if i >= j else zero for j in range(k + 2)] for i in range(k + 2)]
        p = Components(poly + [zero], 1, k + 2)
        poly = list(contract("t[ij] p[j] -> i", t=_matrix_components(t), p=p))
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
        k, u, a = len(rows), -poly[-1].invert(), _matrix_components(block)
        inv = Components.from_nonzero((((i, i), u) for i in range(k)), 2, k, zero)
        for c in poly[1:k]:  # Horner, with every coefficient scaled by u
            inv = contract("a[ij] b[jl] + u c delta[il] -> il", a=a, b=inv, u=u, c=c)
        for (t, s), value in inv.nonzero():
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
    """Ordered pseudo-orthonormal frame: g(E_i, E_j) is signs[i] when i = j
    and 0 otherwise, each sign +1 or -1.

    The member component matrix must be invertible over the ring, which is
    the pointwise linear-independence check.  The metric diag(signs) is its
    own inverse.  Equality and the hash ignore `_cache`, which holds values
    derived from the other fields: the tables `contract` reads, each built
    as `Components` on first use.
    """

    __setattr__ = __delattr__ = read_only

    def __init__(self, chart: Chart, members: tuple[VectorField, ...], signs: tuple[int, ...]):
        d = chart.dim
        if len(members) != d:
            raise ValenceError(f"expected {d} frame members, got {len(members)}")
        if len(signs) != d or any(q not in (1, -1) for q in signs):
            raise ValenceError(f"frame signs {tuple(signs)} are not {d} entries of +1 or -1")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "signs", tuple(int(q) for q in signs))
        object.__setattr__(self, "_cache", {})
        self.component_inverse()  # raises NonInvertible for dependent members

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chart, self.members, self.signs) == (
            other.chart,
            other.members,
            other.signs,
        )

    def __hash__(self):
        return hash((self.chart, self.members, self.signs))

    @property
    def dim(self) -> int:
        return self.chart.dim

    def component_inverse(self) -> Components:
        """inv[ia]: the frame component i of d/d(coords[a])."""
        if "cinv" not in self._cache:
            columns = tuple(zip(*(e.components for e in self.members)))
            inverse = mat_inverse(columns, self.chart.zero())
            self._cache["cinv"] = _matrix_components(inverse)
        return self._cache["cinv"]

    def to_frame(self, x: VectorField) -> Components:
        """Frame components of X, solving sum(c_i E_i) = X."""
        for i, member in enumerate(self.members):
            if x is member:
                one = ((i,), self.chart.const(1))
                return Components.from_nonzero((one,), 1, self.dim, self.chart.zero())
        x_comps = Components(x.components, 1, self.dim)
        return contract("inv[ia] x[a] -> i", inv=self.component_inverse(), x=x_comps)

    def from_frame(self, comps: Components) -> VectorField:
        if "members" not in self._cache:
            rows = [c for e in self.members for c in e.components]
            self._cache["members"] = Components(rows, 2, self.dim)
        e = self._cache["members"]
        return VectorField(self.chart, tuple(contract("c[i] e[ia] -> a", c=comps, e=e)))

    def metric_tensor(self) -> "Tensor":
        """The metric diag(signs) as a (0,2) tensor, cached."""
        if "g" not in self._cache:
            signs, const = self.signs, self.chart.const
            self._cache["g"] = Tensor.build(
                self, 0, 2, lambda i, j: const(signs[i] if i == j else 0)
            )
        return self._cache["g"]

    def brackets(self) -> Components:
        """Frame components c[ijk] of every [E_i, E_j] = c[ijk] E_k, cached."""
        if "brackets" not in self._cache:
            d, members, table = self.dim, self.members, {}
            for i in range(d):
                for j in range(i, d):
                    table[i, j] = self.to_frame(bracket(members[i], members[j]))
                    table[j, i] = table[i, j].map(ScalarExpr.__neg__)
            pairs = [(ij + k, c) for ij in sorted(table) for k, c in table[ij].nonzero()]
            zero = self.chart.zero()
            self._cache["brackets"] = Components.from_nonzero(pairs, 3, d, zero)
        return self._cache["brackets"]


def derivatives(fields: Sequence[VectorField], comps: Components) -> Components:
    """X(c) for every field X and component c, the field index first."""
    pairs = [
        ((k,) + i, v)
        for k, x in enumerate(fields)
        for i, c in comps.nonzero()
        if (v := x(c)).terms
    ]
    return Components.from_nonzero(pairs, comps.rank + 1, comps.dim, comps.zero)


# ---------------------------------------------------------------------------
# Tensors in frame components.
# ---------------------------------------------------------------------------


class Tensor:
    """Frame-component tensor of valence (r, s) with r in {0, 1}.

    A frame, the valence and one `Components` over the r + s frame
    indices, in row-major order; for r = 1 the contravariant index comes
    first.  A one-form such as eta is a (0,1) tensor, read as eta[i].
    """

    __slots__ = ("frame", "r", "s", "components")
    __setattr__ = __delattr__ = read_only

    def __init__(self, frame: Frame, r: int, s: int, components: Sequence[ScalarExpr]):
        if r not in (0, 1):
            raise ValenceError("only valences (0,s) and (1,s) are supported")
        if not isinstance(components, Components):
            components = Components(components, r + s, frame.dim)
        if (components.rank, components.dim) != (r + s, frame.dim):
            raise ValenceError("component count does not match valence")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "components", components)

    @property
    def rank(self) -> int:
        return self.r + self.s

    def __getitem__(self, idx) -> ScalarExpr:
        return self.components[idx]

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
        return Tensor(frame, r, s, entry)

    def __add__(self, other: "Tensor") -> "Tensor":
        return self._merge(other, other.nonzero())

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self._merge(other, (-other).nonzero())

    def __neg__(self) -> "Tensor":
        return Tensor(self.frame, self.r, self.s, self.components.map(ScalarExpr.__neg__))

    def scale(self, factor) -> "Tensor":
        comps = self.components.map(lambda c: c * factor)
        return Tensor(self.frame, self.r, self.s, comps)

    def _merge(self, other: "Tensor", pairs: Nonzero) -> "Tensor":
        """This tensor plus the nonzero `pairs` of `other`, entry by entry."""
        self._match(other)
        total = dict(self.nonzero())
        for i, c in pairs:
            total[i] = total[i] + c if i in total else c
        pairs = [(i, total[i]) for i in sorted(total) if total[i].terms]
        zero = self.components.zero
        comps = Components.from_nonzero(pairs, self.rank, self.frame.dim, zero)
        return Tensor(self.frame, self.r, self.s, comps)

    def _match(self, other: "Tensor") -> None:
        if self.frame is not other.frame or (self.r, self.s) != (other.r, other.s):
            raise ValenceError("tensor operands do not share frame and valence")

    def nonzero(self) -> Nonzero:
        """(index, component) of each nonzero component, in row-major order."""
        return self.components.nonzero()

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


def _components(value, rank: int) -> tuple[Components, int | None]:
    """The Components of a Tensor, Components or ScalarExpr operand given
    `rank` indices, and their dimension (None for a scalar)."""
    if isinstance(value, Tensor):
        value, d = value.components, value.frame.dim
    elif isinstance(value, ScalarExpr):
        value, d = Components((value,), 0, 1), None
    elif isinstance(value, Components):
        d = value.dim
    else:
        raise ValenceError(f"operand {type(value).__name__} is not a Tensor or Components")
    if value.rank != rank:
        raise ValenceError(f"operand of rank {value.rank} given {rank} indices")
    return value, d


def contract(spec: str, **operands) -> ScalarExpr | Components:
    """Evaluate a signed sum of index contractions; see the module docstring."""
    out, terms = _parse_spec(spec)
    flat: dict[str, Components] = {}
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
            symbols.add(flat[name].zero.symbols)
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
            rank = len(pattern)
            if name == "delta":
                pairs = [((i,) * rank, _ONE) for i in range(d)]
            else:
                pairs = [(i, c.terms) for i, c in flat[name].nonzero()]
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

    acc: dict[tuple[int, ...], list[Term]] = {}
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
            acc.setdefault(tuple([vals[s] for s in out_slots]), []).extend(
                product if coeff == 1 else mul_terms(scale, product)
            )

    zero = ScalarExpr.zero(syms)
    if not out:
        return ScalarExpr.normalize(syms, acc[()]) if acc else zero
    found = []
    for idx in sorted(acc):
        value = ScalarExpr.normalize(syms, acc[idx])
        if value.terms:
            found.append((idx, value))
    return Components.from_nonzero(found, len(out), d, zero)


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


def exterior_derivative(omega: Tensor) -> Tensor:
    """d(omega) of a (0,1) tensor on frame pairs: X(w(Y)) - Y(w(X)) - w([X, Y])."""
    frame = omega.frame
    comps = contract(
        "dw[ij] - dw[ji] - w[k] c[ijk] -> ij",
        dw=derivatives(frame.members, omega.components),
        w=omega,
        c=frame.brackets(),
    )
    return Tensor.build(frame, 0, 2, comps)
