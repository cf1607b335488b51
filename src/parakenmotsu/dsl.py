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

This module holds the package's one token grammar and its one expression
parser: a coefficient is parsed once, into a `ScalarExpr` over the
coordinates, under the bounds below, and `to_structure` builds from the
parsed values directly.  Parsing reads only the scalar ring: the geometry
and the structure are imported by the builder when it runs, so a
document that fails to parse compiles neither.
"""

from __future__ import annotations

import itertools
import re
from math import comb, log2
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from parakenmotsu.scalar import (
    MAX_COEFFICIENT_TERMS,
    DocumentError,
    LinearForm,
    NonInvertible,
    Rational,
    ScalarExpr,
    Term,
    TooManyTerms,
    read_only,
)

if TYPE_CHECKING:
    from parakenmotsu.structure import ParacontactStructure

Combo = tuple[tuple[ScalarExpr, str], ...]  # ((coefficient, target text), ...)


class ManifoldDocument:
    """A parsed document.  `at` maps a section keyword to the (line, col) of
    its first line, for errors found when the structure is built."""

    __setattr__ = __delattr__ = read_only

    def __init__(
        self,
        name: str,
        coords: tuple[str, ...],
        n: int,
        frames: tuple[tuple[str, Combo], ...],
        gram: tuple[Rational, ...] | None,
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
            at=at or {},
        )

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def to_structure(self) -> ParacontactStructure:
        return _build_structure(self)


# -- tokens and coefficients -------------------------------------------------


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


_TOKEN = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("WS", r"[ \t]+"),
            ("COMMENT", r"#[^\n]*"),
            ("ARROW", r"->"),
            ("DDERIV", r"d/d[A-Za-z_]\w*"),
            ("NUM", r"\d+"),
            ("IDENT", r"[A-Za-z_]\w*"),
            ("EQUALS", r"="),
            ("OP", r"[-+*^/()]"),
        )
    )
)


def tokenize(text: str, line: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise DocumentError(f"unexpected character {text[pos]!r}", line, pos + 1)
        kind = m.lastgroup
        if kind == "NUM" and m.end() - pos > MAX_LITERAL_DIGITS:
            raise DocumentError(
                f"number literal longer than {MAX_LITERAL_DIGITS} digits", line, pos + 1
            )
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, m.group(), line, m.start() + 1))
        pos = m.end()
    return tokens


# Deepest nesting of parentheses, exp( and unary minus in one expression.
# The parser recurses once per level, so this keeps hostile input far from
# Python's recursion limit and far above what a real coefficient needs.
MAX_NESTING = 64
# Most terms one `*` or `^` in an expression may expand to, counted before
# the expansion: len(a) * len(b) raw products for a * b, and the
# C(k+m-1, m-1) monomials of degree k in m terms for an m-term base ^ k.
# Both grow as a power of the input length, so without them a one-line
# coefficient can run for minutes.  The power limit is the smaller one
# because the squarings that build a T-term power multiply up to (T/2)^2
# pairs.  The shipped, test and generated benchmark documents need at
# most 4 raw products and 3 power terms.
MAX_PRODUCT_TERMS = 1000
MAX_POWER_TERMS = 300
# Longest number literal, in digits, in expressions and in every other
# number of a document (the tokenizer checks it), and the widest coefficient
# one `*` or `^` may make, in bits, estimated before it is computed.  Python
# refuses to convert an int of more than 4,300 digits to or from text, and
# 10,000 bits are about 3,000 digits.  Sums are checked after each `+` or
# `-`, since their width is known only once the common denominator is.
# The shipped, test and generated documents need 2 digits and 3 bits; the
# widest test expressions need 6 digits and 1,000 bits.
MAX_LITERAL_DIGITS = 100
MAX_COEFFICIENT_BITS = 10_000


def _coefficient_bits(e: ScalarExpr) -> float:
    """log2 of the widest numerator or denominator among e's coefficients."""
    return max(
        (log2(max(abs(t.coeff.numerator), t.coeff.denominator)) for t in e.terms),
        default=0.0,
    )


class _Parser:
    """Recursive descent over one coefficient's tokens, every value it
    builds held to MAX_COEFFICIENT_TERMS terms."""

    def __init__(self, tokens: Sequence[Token], pos: int, symbols: tuple[str, ...]):
        self.tokens = tokens
        self.pos = pos
        self.symbols = symbols
        self.depth = 0

    def bounded(self, value: ScalarExpr, at: Token) -> ScalarExpr:
        """value, unless it has more than MAX_COEFFICIENT_TERMS terms."""
        if len(value.terms) > MAX_COEFFICIENT_TERMS:
            raise DocumentError(
                f"coefficient has {len(value.terms)} terms,"
                f" more than {MAX_COEFFICIENT_TERMS}",
                at.line,
                at.col,
            )
        return value

    def peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            if t.kind in ("NUM", "IDENT", "OP"):
                return t
        return None

    def error(self, message: str) -> DocumentError:
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            return DocumentError(message + f" (near {t.text!r})", t.line, t.col)
        t = self.tokens[self.pos - 1]  # point at the dangling last token
        return DocumentError(message + " (at end of input)", t.line, t.col)

    def nested(self, at: Token, parse: Callable[[], ScalarExpr]) -> ScalarExpr:
        """parse() one nesting level below `at`, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise DocumentError(
                f"expression nested deeper than {MAX_NESTING} levels", at.line, at.col
            )
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def take_op(self, ops: str) -> Token | None:
        t = self.peek()
        if t is not None and t.kind == "OP" and t.text in ops:
            self.pos += 1
            return t
        return None

    def expect_op(self, op: str) -> Token:
        t = self.take_op(op)
        if t is None:
            raise self.error(f"expected {op!r}")
        return t

    def parse_expr(self) -> ScalarExpr:
        value = self.parse_product()
        while True:
            t = self.take_op("+-")
            if t is None:
                return value
            rhs = self.parse_product()
            value = self.bounded(value + rhs if t.text == "+" else value - rhs, t)
            # a sum of rationals grows its common denominator term by term
            if _coefficient_bits(value) > MAX_COEFFICIENT_BITS:
                raise DocumentError(
                    f"sum has coefficients wider than {MAX_COEFFICIENT_BITS} bits",
                    t.line,
                    t.col,
                )

    def parse_product(self) -> ScalarExpr:
        value = self.parse_factor()
        while True:
            star = self.take_op("*")
            if star is None:
                return value
            rhs = self.parse_factor()
            if len(value.terms) * len(rhs.terms) > MAX_PRODUCT_TERMS:
                raise DocumentError(
                    f"product of {len(value.terms)} and {len(rhs.terms)} terms"
                    f" exceeds {MAX_PRODUCT_TERMS} term products",
                    star.line,
                    star.col,
                )
            if _coefficient_bits(value) + _coefficient_bits(rhs) > MAX_COEFFICIENT_BITS:
                raise DocumentError(
                    f"product has coefficients wider than {MAX_COEFFICIENT_BITS} bits",
                    star.line,
                    star.col,
                )
            value = self.bounded(value * rhs, star)

    def parse_factor(self) -> ScalarExpr:
        minus = self.take_op("-")
        if minus is not None:
            return -self.nested(minus, self.parse_factor)
        atom = self.parse_atom()
        caret = self.take_op("^")
        if caret is not None:
            t = self.peek()
            if t is None or t.kind != "NUM":
                raise self.error("expected a non-negative integer power after '^'")
            self.pos += 1
            power, m = int(t.text), len(atom.terms)
            if m > 1 and comb(power + m - 1, m - 1) > MAX_POWER_TERMS:
                raise DocumentError(
                    f"power {power} of a {m}-term sum expands to more than"
                    f" {MAX_POWER_TERMS} terms",
                    caret.line,
                    caret.col,
                )
            # an m-term power's coefficients also carry multinomials below m^k
            if m and power * (_coefficient_bits(atom) + log2(m)) > MAX_COEFFICIENT_BITS:
                raise DocumentError(
                    f"power {power} has coefficients wider than"
                    f" {MAX_COEFFICIENT_BITS} bits",
                    caret.line,
                    caret.col,
                )
            return self.bounded(atom**power, caret)
        return atom

    def parse_atom(self) -> ScalarExpr:
        t = self.peek()
        if t is None:
            raise self.error("expected an expression")
        if t.kind == "NUM":
            self.pos += 1
            numer = int(t.text)
            if self.take_op("/"):
                d = self.peek()
                if d is None or d.kind != "NUM":
                    raise self.error("expected an integer denominator")
                self.pos += 1
                if int(d.text) == 0:
                    raise DocumentError("zero denominator", d.line, d.col)
                return ScalarExpr.const(Rational(numer, int(d.text)), self.symbols)
            return ScalarExpr.const(numer, self.symbols)
        if t.kind == "IDENT" and t.text == "exp":
            self.pos += 1
            inner = self.nested(self.expect_op("("), self.parse_expr)
            self.expect_op(")")
            return self._to_exponential(inner, t)
        if t.kind == "IDENT":
            self.pos += 1
            if t.text not in self.symbols:
                raise DocumentError(
                    f"unknown symbol {t.text!r}; chart symbols are "
                    + ", ".join(self.symbols),
                    t.line,
                    t.col,
                )
            return ScalarExpr.coordinate(t.text, self.symbols)
        if t.kind == "OP" and t.text == "(":
            self.pos += 1
            inner = self.nested(t, self.parse_expr)
            self.expect_op(")")
            return inner
        raise self.error("expected an expression")

    def _to_exponential(self, inner: ScalarExpr, at: Token) -> ScalarExpr:
        coeffs: dict[int, Rational] = {}
        for term in inner.terms:
            if not term.exponent.is_zero() or [k for _, k in term.monomial] != [1]:
                raise DocumentError(
                    "exp argument must be a rational linear form in the chart symbols",
                    at.line,
                    at.col,
                )
            (i, _), = term.monomial
            coeffs[i] = coeffs.get(i, 0) + term.coeff
        form = LinearForm(coeffs.items())
        return ScalarExpr(inner.symbols, (Term(1, (), form),))


def parse_expr_tokens(
    tokens: Sequence[Token], pos: int, symbols: tuple[str, ...]
) -> tuple[ScalarExpr, int]:
    """Parse a document coefficient from tokens[pos:], at most
    MAX_COEFFICIENT_TERMS terms; returns (expr, next position)."""
    p = _Parser(tokens, pos, symbols)
    expr = p.parse_expr()
    return expr, p.pos


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
) -> Combo:
    """Split `<coeff> <target> (+|- <coeff> <target>)*` at top level.

    A +/- token separates terms only when the token before it is a
    target, so signs and sums inside coefficients stay untouched.  A
    d/d<coord> target must name one of `symbols`, the coordinates.  The
    structure build adds up the coefficients of a target named in more
    than one term, so their sum is held to MAX_COEFFICIENT_TERMS too.
    """
    body = tokens[start:]
    if not body:
        raise DocumentError(f"expected {what}", tokens[-1].line, tokens[-1].col)
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
        if target.kind == "DDERIV" and target.text[3:] not in symbols:
            raise DocumentError(
                f"unknown coordinate in {target.text!r}", target.line, target.col
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
            coeff, end = parse_expr_tokens(coeff_tokens, 0, symbols)
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


def _expect_equals(tokens: list[Token], pos: int) -> int:
    if pos >= len(tokens) or tokens[pos].kind != "EQUALS":
        where = tokens[pos] if pos < len(tokens) else tokens[-1]
        raise DocumentError("expected '='", where.line, where.col)
    return pos + 1


def _signed_rational(tokens: list[Token], pos: int) -> tuple[Rational, int]:
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
        return Rational(sign * numer, int(tokens[pos].text)), pos + 1
    return Rational(sign * numer), pos


def parse_manifold(text: str) -> ManifoldDocument:
    name: str | None = None
    coords: tuple[str, ...] | None = None
    declared_n: int | None = None
    frames: list[tuple[str, Combo]] = []
    frame_at: dict[str, tuple[int, int]] = {}  # member -> position of its frame line
    gram: tuple[Rational, ...] | None = None
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
        return tok.kind == "IDENT" and tok.text in frame_at

    def is_member_or_dderiv(tok: Token) -> bool:
        return is_member(tok) or is_dderiv(tok)

    def is_differential(tok: Token) -> bool:
        return (
            tok.kind == "IDENT"
            and len(tok.text) > 1
            and tok.text.startswith("d")
            and coords is not None
            and tok.text[1:] in coords
        )

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = tokenize(raw, lineno)
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
            pos = _expect_equals(tokens, 1)
            if pos != len(tokens) - 1 or tokens[pos].kind != "NUM":
                raise DocumentError("expected 'n = <integer>'", lineno, head.col)
            declared_n = int(tokens[pos].text)
        elif keyword == "frame":
            if len(tokens) < 2 or tokens[1].kind != "IDENT":
                raise DocumentError("expected 'frame <name> = ...'", lineno, head.col)
            member = tokens[1].text
            if member in frame_at:
                raise DocumentError(
                    f"duplicate frame member {member!r}", tokens[1].line, tokens[1].col
                )
            if member in coords:
                raise DocumentError(
                    f"frame member {member!r} collides with a coordinate",
                    tokens[1].line,
                    tokens[1].col,
                )
            pos = _expect_equals(tokens, 2)
            combo = _parse_combo(tokens, pos, coords, is_dderiv, "d/d<coord>")
            frames.append((member, combo))
            frame_at[member] = (head.line, head.col)
        elif keyword == "gram":
            if len(tokens) < 3 or tokens[1].text != "diag":
                raise DocumentError("expected 'gram diag <entries>'", lineno, head.col)
            entries = []
            pos = 2
            while pos < len(tokens):
                value, pos = _signed_rational(tokens, pos)
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
            expr, end = parse_expr_tokens(tokens, 3, coords)
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
            if member not in frame_at:
                raise DocumentError(
                    f"unknown frame member {member!r}", tokens[1].line, tokens[1].col
                )
            if member in phi_ids:
                raise DocumentError(
                    f"duplicate phi line for {member!r}", tokens[1].line, tokens[1].col
                )
            if tokens[2].kind != "ARROW":
                raise DocumentError("expected '->'", tokens[2].line, tokens[2].col)
            combo = _parse_combo(tokens, 3, coords, is_member, "frame member")
            phi.append((member, combo))
            phi_ids.add(member)
        elif keyword == "xi":
            pos = _expect_equals(tokens, 1)
            xi = _parse_combo(
                tokens, pos, coords, is_member_or_dderiv, "frame member or d/d<coord>"
            )
        elif keyword == "eta":
            pos = _expect_equals(tokens, 1)
            eta = _parse_combo(tokens, pos, coords, is_differential, "d<coord>")

    def missing(section: str, keyword: str) -> DocumentError:
        """At the first later section's line, else the line after the last."""
        later = [at[k] for k in at if _SECTION_RANK[k] > _SECTION_RANK[keyword]]
        place = min(later, default=(len(lines) + 1, 1))
        return DocumentError(f"missing {section} section", *place)

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
        raise missing("'gram diag' or 'metric'", "gram")
    if gram is not None and len(gram) != dim:
        raise DocumentError(
            f"gram diagonal has {len(gram)} entries for dimension {dim}", *at["gram"]
        )
    for member, place in frame_at.items():
        if member not in phi_ids:
            raise DocumentError(f"missing phi line for {member!r}", *place)
    if xi is None:
        raise missing("'xi'", "xi")
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
    from parakenmotsu.geometry import Chart, Components, Frame, Tensor, contract
    from parakenmotsu.structure import ParacontactStructure

    chart = Chart(doc.coords)  # the parser checked the coordinates
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
                entry.is_constant() and entry.as_rational() in (1, -1)
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
        det = err.det  # the inverse took it for its own message
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
    inv = frame.component_inverse
    xi = contract("u[k] + inv[ka] v[a] -> k", u=unit, inv=inv, v=along)

    dual = contract("g[jm] x[m] -> j", g=frame.metric_tensor, x=xi)
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

    s = ParacontactStructure(frame, Tensor(frame, 1, 1, phi), xi, eta, chart.n)
    try:
        s.eigen_ranks  # check A10's elimination, held to the bound here
    except TooManyTerms as err:
        raise DocumentError(
            f"ranking phi -+ I makes an entry of more than {MAX_COEFFICIENT_TERMS} terms",
            *doc.at.get("phi", ()),
        ) from err
    return s
