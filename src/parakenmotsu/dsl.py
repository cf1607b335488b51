"""Line-oriented manifold-definition documents (.pk files).

Grammar, one section per line, `#` starting a comment:

    manifold <id>
    coords <id> <id> ...          an odd number, at least 3, of coordinate names
    n = <int>                     optional; must match (dim - 1) / 2
    frame <id> = <combo of d/d<coord>>
    gram diag <1|-1> ...          one entry per frame member, or instead
    metric <i> <j> <expr>         coordinate metric entries (1-based, symmetric)
    phi <member> -> <combo of members | 0>
    xi = <combo of members and d/d<coord>>
    eta = <combo of d<coord>>     optional; must equal the metric dual of xi

A combo is a sum of terms `<coeff> <target>` with the coefficient an
expression in the coordinates; a bare target means coefficient 1.  The
sections must appear in the order listed above.

A parsed document holds each coefficient and metric entry as a
`ScalarExpr` over the coordinates, parsed once; `emit` renders them back
to text and `to_structure` builds from them directly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

from parakenmotsu.geometry import (
    Chart,
    Components,
    Frame,
    Tensor,
    contract,
    mat_det,
)
from parakenmotsu.scalar import (
    MAX_COEFFICIENT_TERMS,
    ExprSyntaxError,
    NonInvertible,
    ScalarExpr,
    Token,
    TooManyTerms,
    parse_expr_tokens,
    read_only,
    signed_sum,
    tokenize,
)
from parakenmotsu.structure import ParacontactStructure

Combo = tuple[tuple[ScalarExpr, str], ...]  # ((coefficient, target text), ...)


class DocumentError(ValueError):
    """Parse or semantic error in a manifold document, with position."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        place = "" if line is None else f"{line}:{col or 0}: "
        super().__init__(f"{place}{message}")
        self.message = message
        self.line = line
        self.col = col


class ManifoldDocument:
    """A parsed document.  `at` maps a section keyword to the (line, col) of
    its first line, for errors found when the structure is built; equality
    and the hash ignore it, so a document equals its emitted and reparsed
    self."""

    __setattr__ = __delattr__ = read_only

    def __init__(
        self,
        name: str,
        coords: tuple[str, ...],
        n: int,
        frames: tuple[tuple[str, Combo], ...],
        gram: tuple[Fraction, ...] | None,
        metric: tuple[tuple[int, int, ScalarExpr], ...] | None,
        phi: tuple[tuple[str, Combo], ...],
        xi: Combo,
        eta: Combo | None,
        at: dict[str, tuple[int, int]] | None = None,
    ):
        vars(self).update(  # the instance dict, past the read-only __setattr__
            name=name,
            coords=coords,
            n=n,
            frames=frames,
            gram=gram,
            metric=metric,
            phi=phi,
            xi=xi,
            eta=eta,
        )
        object.__setattr__(self, "at", at or {})

    def _fields(self) -> tuple:
        return tuple(value for key, value in vars(self).items() if key != "at")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def emit(self) -> str:
        lines = [f"manifold {self.name}", "coords " + " ".join(self.coords)]
        lines.append(f"n = {self.n}")
        for member, combo in self.frames:
            lines.append(f"frame {member} = {_render_combo(combo)}")
        if self.gram is not None:
            lines.append("gram diag " + " ".join(str(q) for q in self.gram))
        else:
            for i, j, value in self.metric:
                lines.append(f"metric {i} {j} {value}")
        for member, combo in self.phi:
            lines.append(f"phi {member} -> {_render_combo(combo)}")
        lines.append(f"xi = {_render_combo(self.xi)}")
        if self.eta is not None:
            lines.append(f"eta = {_render_combo(self.eta)}")
        return "\n".join(lines) + "\n"

    def to_structure(self) -> ParacontactStructure:
        return _build_structure(self)


def _render_combo(combo: Combo) -> str:
    parts = []
    for coeff, target in combo:
        text = str(coeff)
        if text == "1":
            parts.append(target)
        elif text == "-1":
            parts.append(f"-{target}")
        else:
            parts.append(f"{text} {target}")
    return signed_sum(parts)


# -- parsing ----------------------------------------------------------------

_SECTION_RANK = {
    "manifold": 0,
    "coords": 1,
    "n": 2,
    "frame": 3,
    "gram": 4,
    "metric": 4,
    "phi": 5,
    "xi": 6,
    "eta": 7,
}
_REPEATABLE = {"frame", "metric", "phi"}


def _parse_combo(
    tokens: list[Token],
    start: int,
    symbols: tuple[str, ...],
    is_target,
    what: str,
    lineno: int,
) -> Combo:
    """Split `<coeff> <target> (+|- <coeff> <target>)*` at top level.

    A +/- token separates terms only when the token before it is a
    target, so signs and sums inside coefficients stay untouched.  The
    structure build adds up the coefficients of a target named in more
    than one term, so their sum is held to MAX_COEFFICIENT_TERMS too.
    """
    body = tokens[start:]
    if not body:
        raise DocumentError(f"expected {what}", lineno, tokens[-1].col if tokens else 0)
    segments: list[list[Token]] = []
    current: list[Token] = []
    previous_was_target = False
    for tok in body:
        if (
            tok.kind == "OP"
            and tok.text in "+-"
            and previous_was_target
        ):
            segments.append(current)
            current = [tok] if tok.text == "-" else []
            separator = tok
            previous_was_target = False
            continue
        current.append(tok)
        previous_was_target = is_target(tok)
    segments.append(current)

    if (
        len(segments) == 1
        and len(segments[0]) == 1
        and segments[0][0].kind == "NUM"
        and segments[0][0].text == "0"
    ):
        return ()

    combo = []
    sums: dict[str, ScalarExpr] = {}
    for seg in segments:
        if not seg:  # only the last segment can be empty: a dangling '+'
            raise DocumentError(f"empty term in {what}", separator.line, separator.col)
        target = seg[-1]
        if not is_target(target):
            raise DocumentError(
                f"expected {what} target, got {target.text!r}",
                target.line,
                target.col,
            )
        coeff_tokens = seg[:-1]
        if coeff_tokens and coeff_tokens[-1].kind == "OP" and coeff_tokens[-1].text == "*":
            coeff_tokens = coeff_tokens[:-1]
        if not coeff_tokens:
            coeff = ScalarExpr.const(1, symbols)
        elif (
            len(coeff_tokens) == 1
            and coeff_tokens[0].kind == "OP"
            and coeff_tokens[0].text == "-"
        ):
            coeff = ScalarExpr.const(-1, symbols)
        else:
            coeff, end = parse_expr_tokens(coeff_tokens, 0, symbols, lineno)
            if end != len(coeff_tokens):
                bad = coeff_tokens[end]
                raise DocumentError(
                    f"unexpected token {bad.text!r} in coefficient",
                    bad.line,
                    bad.col,
                )
        total = sums[target.text] + coeff if target.text in sums else coeff
        if len(total.terms) > MAX_COEFFICIENT_TERMS:
            raise DocumentError(
                f"coefficient of {target.text} has {len(total.terms)} terms,"
                f" more than {MAX_COEFFICIENT_TERMS}",
                seg[0].line,
                seg[0].col,
            )
        sums[target.text] = total
        combo.append((coeff, target.text))
    return tuple(combo)


def _expect_equals(tokens: list[Token], pos: int, lineno: int) -> int:
    if pos >= len(tokens) or tokens[pos].kind != "EQUALS":
        where = tokens[pos] if pos < len(tokens) else tokens[-1]
        raise DocumentError("expected '='", where.line, where.col)
    return pos + 1


def _signed_rational(tokens: list[Token], pos: int, lineno: int) -> tuple[Fraction, int]:
    sign = 1
    if pos < len(tokens) and tokens[pos].kind == "OP" and tokens[pos].text == "-":
        sign = -1
        pos += 1
    if pos >= len(tokens) or tokens[pos].kind != "NUM":
        where = tokens[pos] if pos < len(tokens) else tokens[-1]
        raise DocumentError("expected a number", where.line, where.col)
    numer = int(tokens[pos].text)
    pos += 1
    if pos < len(tokens) and tokens[pos].kind == "OP" and tokens[pos].text == "/":
        pos += 1
        if pos >= len(tokens) or tokens[pos].kind != "NUM" or int(tokens[pos].text) == 0:
            where = tokens[pos] if pos < len(tokens) else tokens[-1]
            raise DocumentError("expected a nonzero denominator", where.line, where.col)
        return Fraction(sign * numer, int(tokens[pos].text)), pos + 1
    return Fraction(sign * numer), pos


def parse_manifold(text: str) -> ManifoldDocument:
    name: str | None = None
    coords: tuple[str, ...] | None = None
    declared_n: int | None = None
    frames: list[tuple[str, Combo]] = []
    frame_ids: list[str] = []
    gram: tuple[Fraction, ...] | None = None
    metric: dict[tuple[int, int], ScalarExpr] = {}
    phi: list[tuple[str, Combo]] = []
    phi_ids: set[str] = set()
    xi: Combo | None = None
    eta: Combo | None = None
    rank = -1
    at: dict[str, tuple[int, int]] = {}  # keyword -> position of its first line

    def is_dderiv(tok: Token) -> bool:
        return tok.kind == "DDERIV"

    def is_member(tok: Token) -> bool:
        return tok.kind == "IDENT" and tok.text in frame_ids

    def is_member_or_dderiv(tok: Token) -> bool:
        return is_member(tok) or is_dderiv(tok)

    def check_coordinates(combo: Combo, lineno: int, col: int) -> None:
        for _, target in combo:
            if target not in frame_ids and target[3:] not in coords:
                raise DocumentError(f"unknown coordinate in {target!r}", lineno, col)

    def is_differential(tok: Token) -> bool:
        return (
            tok.kind == "IDENT"
            and len(tok.text) > 1
            and tok.text.startswith("d")
            and coords is not None
            and tok.text[1:] in coords
        )

    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = tokenize(raw, line=lineno, dsl=True)
        except ExprSyntaxError as err:
            raise DocumentError(err.message, err.line, err.col) from err
        if not tokens:
            continue
        head = tokens[0]
        if head.kind != "IDENT" or head.text not in _SECTION_RANK:
            raise DocumentError(
                f"expected a section keyword, got {head.text!r}",
                head.line,
                head.col,
            )
        keyword = head.text
        new_rank = _SECTION_RANK[keyword]
        if new_rank < rank or (new_rank == rank and keyword not in _REPEATABLE):
            raise DocumentError(
                f"section {keyword!r} out of order or duplicated",
                head.line,
                head.col,
            )
        rank = new_rank
        at.setdefault(keyword, (head.line, head.col))
        if keyword != "manifold" and name is None:
            raise DocumentError("document must start with 'manifold <name>'", lineno, 1)
        if keyword in ("frame", "metric", "phi", "xi", "eta") and coords is None:
            raise DocumentError(
                f"section {keyword!r} requires 'coords' first", head.line, head.col
            )

        try:
            if keyword == "manifold":
                if len(tokens) != 2 or tokens[1].kind != "IDENT":
                    raise DocumentError("expected 'manifold <name>'", lineno, head.col)
                name = tokens[1].text
            elif keyword == "coords":
                if len(tokens) < 2 or any(t.kind != "IDENT" for t in tokens[1:]):
                    raise DocumentError(
                        "expected 'coords <name> <name> ...'", lineno, head.col
                    )
                seen = set()
                for t in tokens[1:]:
                    if t.text in seen:
                        raise DocumentError(
                            f"duplicate coordinate {t.text!r}", t.line, t.col
                        )
                    seen.add(t.text)
                coords = tuple(t.text for t in tokens[1:])
                if len(coords) % 2 == 0:
                    raise DocumentError(
                        "dimension must be odd (2n+1 coordinates)", lineno, head.col
                    )
                if len(coords) < 3:
                    raise DocumentError("dimension must be at least 3", lineno, head.col)
            elif keyword == "n":
                pos = _expect_equals(tokens, 1, lineno)
                if pos != len(tokens) - 1 or tokens[pos].kind != "NUM":
                    raise DocumentError("expected 'n = <integer>'", lineno, head.col)
                declared_n = int(tokens[pos].text)
            elif keyword == "frame":
                if len(tokens) < 2 or tokens[1].kind != "IDENT":
                    raise DocumentError("expected 'frame <name> = ...'", lineno, head.col)
                member = tokens[1].text
                if member in frame_ids:
                    raise DocumentError(
                        f"duplicate frame member {member!r}", tokens[1].line, tokens[1].col
                    )
                if member in coords:
                    raise DocumentError(
                        f"frame member {member!r} collides with a coordinate",
                        tokens[1].line,
                        tokens[1].col,
                    )
                pos = _expect_equals(tokens, 2, lineno)
                combo = _parse_combo(
                    tokens, pos, coords, is_dderiv, "d/d<coord>", lineno
                )
                check_coordinates(combo, lineno, head.col)
                frames.append((member, combo))
                frame_ids.append(member)
            elif keyword == "gram":
                if len(tokens) < 3 or tokens[1].text != "diag":
                    raise DocumentError("expected 'gram diag <entries>'", lineno, head.col)
                entries = []
                pos = 2
                while pos < len(tokens):
                    value, pos = _signed_rational(tokens, pos, lineno)
                    if value * value != 1:
                        raise DocumentError(
                            f"gram diagonal entry {value} must be 1 or -1",
                            lineno,
                            head.col,
                        )
                    entries.append(value)
                gram = tuple(entries)
            elif keyword == "metric":
                if gram is not None:
                    raise DocumentError(
                        "cannot mix 'gram diag' and 'metric' sections",
                        head.line,
                        head.col,
                    )
                if len(tokens) < 4 or tokens[1].kind != "NUM" or tokens[2].kind != "NUM":
                    raise DocumentError(
                        "expected 'metric <i> <j> <expr>'", lineno, head.col
                    )
                i, j = int(tokens[1].text), int(tokens[2].text)
                if not (1 <= i <= len(coords) and 1 <= j <= len(coords)):
                    raise DocumentError(
                        f"metric indices ({i}, {j}) out of range", lineno, head.col
                    )
                expr, end = parse_expr_tokens(tokens, 3, coords, lineno)
                if end != len(tokens):
                    bad = tokens[end]
                    raise DocumentError(
                        f"unexpected token {bad.text!r}", bad.line, bad.col
                    )
                key = (min(i, j), max(i, j))
                if key in metric:
                    raise DocumentError(
                        f"duplicate metric entry ({i}, {j})", lineno, head.col
                    )
                metric[key] = expr
            elif keyword == "phi":
                if len(tokens) < 3 or tokens[1].kind != "IDENT":
                    raise DocumentError(
                        "expected 'phi <member> -> ...'", lineno, head.col
                    )
                member = tokens[1].text
                if member not in frame_ids:
                    raise DocumentError(
                        f"unknown frame member {member!r}", tokens[1].line, tokens[1].col
                    )
                if member in phi_ids:
                    raise DocumentError(
                        f"duplicate phi line for {member!r}", tokens[1].line, tokens[1].col
                    )
                if tokens[2].kind != "ARROW":
                    raise DocumentError("expected '->'", tokens[2].line, tokens[2].col)
                combo = _parse_combo(
                    tokens, 3, coords, is_member, "frame member", lineno
                )
                phi.append((member, combo))
                phi_ids.add(member)
            elif keyword == "xi":
                pos = _expect_equals(tokens, 1, lineno)
                xi = _parse_combo(
                    tokens, pos, coords, is_member_or_dderiv,
                    "frame member or d/d<coord>", lineno,
                )
                check_coordinates(xi, lineno, head.col)
            elif keyword == "eta":
                pos = _expect_equals(tokens, 1, lineno)
                eta = _parse_combo(
                    tokens, pos, coords, is_differential, "d<coord>", lineno
                )
        except ExprSyntaxError as err:
            raise DocumentError(err.message, err.line, err.col) from err

    if name is None:
        raise DocumentError("missing 'manifold' section", 1, 1)
    if coords is None:
        raise DocumentError("missing 'coords' section", 1, 1)
    dim = len(coords)
    inferred_n = (dim - 1) // 2
    if declared_n is not None and declared_n != inferred_n:
        raise DocumentError(
            f"declared n = {declared_n} but dimension {dim} gives n = {inferred_n}", *at["n"]
        )
    if len(frames) != dim:
        raise DocumentError(
            f"{len(frames)} frame members declared for dimension {dim}", *at["coords"]
        )
    if gram is None and not metric:
        raise DocumentError("missing 'gram diag' or 'metric' section")
    if gram is not None and len(gram) != dim:
        raise DocumentError(
            f"gram diagonal has {len(gram)} entries for dimension {dim}", *at["gram"]
        )
    missing = [m for m in frame_ids if m not in phi_ids]
    if missing:
        raise DocumentError(f"missing phi line for {missing[0]!r}")
    if xi is None:
        raise DocumentError("missing 'xi' section")
    metric_tuple = (
        None
        if gram is not None
        else tuple((i, j, value) for (i, j), value in sorted(metric.items()))
    )
    return ManifoldDocument(
        name=name,
        coords=coords,
        n=inferred_n,
        frames=tuple(frames),
        gram=gram,
        metric=metric_tuple,
        phi=tuple(phi),
        xi=xi,
        eta=eta,
        at=at,
    )


def load_manifold(path: str | Path) -> ManifoldDocument:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # number lines as parse_manifold does; the sentinel "x" keeps the
        # line of the bad byte last even when a line break precedes it
        *above, line = (data[: err.start].decode("utf-8") + "x").splitlines()
        col = len(line[:-1].encode("utf-8")) + 1
        raise DocumentError(
            f"byte 0x{data[err.start]:02x} is not valid UTF-8", len(above) + 1, col
        ) from None
    return parse_manifold(text)


# -- building the structure --------------------------------------------------


def _build_structure(doc: ManifoldDocument) -> ParacontactStructure:
    try:
        chart = Chart(doc.coords)
    except ValueError as err:
        raise DocumentError(str(err)) from err
    zero = chart.zero()
    d = chart.dim
    coord = {name: a for a, name in enumerate(doc.coords)}
    index_of = {member: k for k, (member, _) in enumerate(doc.frames)}

    def summed(pairs, rank: int) -> Components:
        return Components.summed(pairs, rank, d, zero)

    members = summed(  # [k, a]: the d/d<coord a> component of member k
        (((k, coord[target[3:]]), coeff) for k, (_, combo) in enumerate(doc.frames)
         for coeff, target in combo),
        2,
    )

    signs = doc.gram
    if signs is None:
        entries = {}
        for i, j, value in doc.metric:
            entries[i - 1, j - 1] = entries[j - 1, i - 1] = value
        coord_metric = summed(entries.items(), 2)
        flat = contract("e[ai] g[ij] e[bj] -> ab", e=members, g=coord_metric)
        for i, j in itertools.product(range(d), repeat=2):
            entry = flat[i, j]
            ok = entry.is_zero() if i != j else (
                entry.is_constant() and entry.as_rational() ** 2 == 1
            )
            if not ok:
                raise DocumentError(
                    "frame is not pseudo-orthonormal for the given metric:"
                    f" g(E{i + 1}, E{j + 1}) = {entry}",
                    *doc.at.get("metric", ()),
                )
        signs = tuple(flat[i, i].as_rational() for i in range(d))

    try:
        frame = Frame(chart, members, signs)
    except NonInvertible as err:
        # the inverse has just taken this det, of the same matrix, within the bound
        det = mat_det(tuple(tuple(members[k, a] for k in range(d)) for a in range(d)), zero)
        reason = (f"frame determinant {det} is not a unit" if det.terms
                  else "frame members are not linearly independent")
        raise DocumentError(reason, *doc.at.get("frame", ())) from err
    except TooManyTerms as err:
        raise DocumentError(
            f"inverting the frame makes an entry of more than {MAX_COEFFICIENT_TERMS} terms",
            *doc.at.get("frame", ()),
        ) from err

    phi = summed(  # [a, i]: the E_a component of phi E_i
        (((index_of[target], index_of[member]), coeff)
         for member, combo in doc.phi for coeff, target in combo),
        2,
    )

    # a member target is a unit vector, a d/d<coord> target a column of the inverse
    unit = summed((((index_of[t],), c) for c, t in doc.xi if t in index_of), 1)
    along = summed((((coord[t[3:]],), c) for c, t in doc.xi if t not in index_of), 1)
    inv = frame.component_inverse()
    xi = contract("u[k] + inv[ka] v[a] -> k", u=unit, inv=inv, v=along)

    dual = contract("g[jm] x[m] -> j", g=frame.metric_tensor(), x=xi)
    if doc.eta is not None:
        coord_eta = summed((((coord[t[1:]],), c) for c, t in doc.eta), 1)
        eta_frame = contract("e[ji] w[i] -> j", e=members, w=coord_eta)
        for j in range(d):
            if not (eta_frame[j] - dual[j]).is_zero():
                raise DocumentError(
                    "eta does not equal the metric dual of xi:"
                    f" eta(E{j + 1}) = {eta_frame[j]}, dual gives {dual[j]}",
                    *doc.at.get("eta", ()),
                )
        eta = Tensor(frame, 0, 1, eta_frame)
    else:
        eta = Tensor(frame, 0, 1, dual)

    return ParacontactStructure(frame, Tensor(frame, 1, 1, phi), xi, eta, chart.n)
