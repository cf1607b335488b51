import contextlib
import signal
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakenmotsu import dsl
from parakenmotsu.dsl import DocumentError, load_manifold, parse_manifold
from parakenmotsu.suite import run_suite

DATA = Path(__file__).parent / "data"
MANIFOLDS = Path(__file__).parent.parent / "manifolds"


@pytest.mark.parametrize("stem", ["example_r3", "example_r5"])
def test_structure_build_parses_nothing(monkeypatch, stem):
    calls = []
    original = dsl.parse_expr_tokens

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(dsl, "parse_expr_tokens", counted)
    doc = load_manifold(MANIFOLDS / f"{stem}.pk")
    assert (doc.name, doc.dimension) == (stem, 2 * doc.n + 1)
    assert calls  # the wrapper sees the parser's callers
    calls.clear()
    doc.to_structure()
    assert calls == []


def test_coefficients_are_normalized_when_parsed():
    text = """\
manifold tiny
coords x y z
frame E1 = 2/4*d/dx + d/dy
frame E2 = d/dy
frame E3 = -d/dz
gram diag 1 -1 1
phi E1 -> E2
phi E2 -> E1
phi E3 -> 0
xi = E3
"""
    _, combo = parse_manifold(text).frames[0]
    assert [(str(c), target) for c, target in combo] == [("1/2", "d/dx"), ("1", "d/dy")]


def test_metric_mode_computes_gram_diagonal():
    doc = load_manifold(MANIFOLDS / "example_r3.pk")
    s = doc.to_structure()
    assert s.frame.signs == (1, -1, 1)


def test_eta_defaults_to_metric_dual_of_xi():
    doc = load_manifold(MANIFOLDS / "example_r5.pk")
    assert doc.eta is None
    s = doc.to_structure()
    values = [str(s.eta[i]) for i in range(5)]
    assert values == ["0", "0", "0", "0", "1"]


def test_structures_from_both_modes_agree():
    # the r3 document again, but with gram given directly instead of a metric
    text = """\
manifold direct
coords x y z
frame E1 = exp(z) d/dx
frame E2 = exp(z) d/dy
frame E3 = -d/dz
gram diag 1 -1 1
phi E1 -> E2
phi E2 -> E1
phi E3 -> 0
xi = E3
"""
    via_gram = parse_manifold(text).to_structure()
    via_metric = load_manifold(MANIFOLDS / "example_r3.pk").to_structure()
    for i in range(3):
        for j in range(3):
            assert (via_gram.metric()[i, j] - via_metric.metric()[i, j]).is_zero()
            assert (via_gram.phi[i, j] - via_metric.phi[i, j]).is_zero()


# -- parse errors with positions --------------------------------------------------


PARSE_ERRORS = {
    "even_coords.pk": "2:1: dimension must be odd (2n+1 coordinates)",
    "one_coordinate.pk": "2:1: dimension must be at least 3",
    "unknown_symbol.pk": "3:16: unknown symbol 'w'; chart symbols are x, y, z",
    "missing_equals.pk": "10:4: expected '='",
    "unknown_member.pk": "7:11: expected frame member target, got 'E9'",
    "bad_gram_entry.pk": "6:1: gram diagonal entry -2 must be 1 or -1",
    "duplicate_section.pk": "11:1: section 'xi' out of order or duplicated",
    "n_mismatch.pk": "3:1: declared n = 2 but dimension 3 gives n = 1",
    "gram_count.pk": "6:1: gram diagonal has 4 entries for dimension 3",
    "frame_count.pk": "2:1: 2 frame members declared for dimension 3",
    "not_utf8.pk": "4:12: byte 0xff is not valid UTF-8",
    "xi_unknown_coord.pk": "10:6: unknown coordinate in 'd/dw'",
    "deep_parens.pk": "3:76: expression nested deeper than 64 levels",
    "deep_negation.pk": "3:76: expression nested deeper than 64 levels",
    "huge_power.pk": "3:34: power 30 of a 4-term sum expands to more than 300 terms",
    "long_literal.pk": "3:19: number literal longer than 100 digits",
    "long_exponent.pk": "3:21: number literal longer than 100 digits",
    "big_constant_power.pk": "3:20: power 100000 has coefficients wider than 10000 bits",
    "huge_constant_power.pk": (
        "3:20: power 2000000 has coefficients wider than 10000 bits"
    ),
    "long_fraction_sum.pk": "4:7923: sum has coefficients wider than 10000 bits",
    "many_terms.pk": "5:228: coefficient has 961 terms, more than 40",
    "many_segments.pk": "6:247: coefficient of d/dy has 62 terms, more than 40",
}


@pytest.mark.parametrize("name", sorted(PARSE_ERRORS))
def test_malformed_documents_report_positions(name):
    with pytest.raises(DocumentError) as info:
        load_manifold(DATA / "malformed" / name)
    assert str(info.value) == PARSE_ERRORS[name]


STRUCTURE_ERRORS = {
    "dependent_frame.pk": "3:1: frame members are not linearly independent",
    "nonunit_frame.pk": "4:1: frame determinant -x is not a unit",
    "hostile7.pk": "7:1: inverting the frame makes an entry of more than 40 terms",
    "diagonal_terms.pk": "5:1: inverting the frame makes an entry of more than 40 terms",
    "phi_terms.pk": "15:1: ranking phi -+ I makes an entry of more than 40 terms",
    "eta_mismatch.pk": (
        "11:1: eta does not equal the metric dual of xi: eta(E3) = -1, dual gives 1"
    ),
    "not_orthonormal.pk": (
        "6:1: frame is not pseudo-orthonormal for the given metric: g(E1, E1) = 2"
    ),
}


@pytest.mark.parametrize(
    "stem", ["huge_power", "long_fraction_sum", "many_terms", "many_segments"]
)
def test_oversized_document_is_rejected_within_a_second(stem):
    start = time.perf_counter()
    with pytest.raises(DocumentError):
        load_manifold(DATA / "malformed" / f"{stem}.pk")
    assert time.perf_counter() - start < 1.0


def test_oversized_frame_is_rejected_within_a_second():
    # diagonal_terms.pk: a singular frame whose determinant, three 40-term
    # members multiplied out, would have 64,000 terms
    for stem in ("hostile7", "diagonal_terms"):
        doc = load_manifold(DATA / "malformed" / f"{stem}.pk")
        start = time.perf_counter()
        with pytest.raises(DocumentError):
            doc.to_structure()
        assert time.perf_counter() - start < 1.0, stem


def test_oversized_phi_is_rejected_within_a_second():
    """Check A10's elimination of phi -+ I is held to the term bound where
    the document is read; unbounded, `check` ran for minutes."""
    doc = load_manifold(DATA / "malformed" / "phi_terms.pk")
    start = time.perf_counter()
    with pytest.raises(DocumentError):
        doc.to_structure()
    assert time.perf_counter() - start < 1.0


# documents of dimension 5 and 7 whose phi lines are replaced by drawn ones
PHI_BASES = (
    MANIFOLDS / "example_r5.pk",
    DATA / "nonein5.pk",
    DATA / "ricciflat5.pk",
    DATA / "rotated5.pk",
    DATA / "malformed" / "phi_terms.pk",
)
PHI_DEADLINE = 5.0  # seconds for parsing, building and the whole suite


@st.composite
def _polynomials(draw, coords):
    """1 to 12 signed terms c*x^a*y^b*exp(+-z) over the chart."""
    text = ""
    for k in range(draw(st.integers(1, 12))):
        factors = [str(draw(st.integers(1, 3)))]
        for x in draw(st.lists(st.sampled_from(coords), max_size=2, unique=True)):
            factors.append(f"{x}^{draw(st.integers(1, 3))}")
        if draw(st.booleans()):
            flip = draw(st.sampled_from(("", "-")))
            factors.append(f"exp({flip}{draw(st.sampled_from(coords))})")
        sign = draw(st.sampled_from("+-"))
        text += (f" {sign} " if k else sign.strip("+")) + "*".join(factors)
    return text


@st.composite
def _drawn_phi_documents(draw):
    lines = draw(st.sampled_from(PHI_BASES)).read_text(encoding="utf-8").splitlines()
    coords = next(line for line in lines if line.startswith("coords ")).split()[1:]
    members = [line.split()[1] for line in lines if line.startswith("frame ")]
    for at, line in enumerate(lines):
        if line.startswith("phi "):
            targets = draw(st.lists(st.sampled_from(members), min_size=1, max_size=3, unique=True))
            combo = " + ".join(f"({draw(_polynomials(coords))}) {t}" for t in sorted(targets))
            lines[at] = f"phi {line.split()[1]} -> {combo}"
    return "\n".join(lines) + "\n"


def _late(signum, frame):
    raise TimeoutError(f"no answer within {PHI_DEADLINE} s")


@contextlib.contextmanager
def _deadline():
    """TimeoutError once the block has run PHI_DEADLINE seconds."""
    previous = signal.signal(signal.SIGALRM, _late)
    # repeated every 0.5 s: an alarm that lands in a __hash__ or __eq__ run
    # by a dict lookup is swallowed there, so a later one must follow
    signal.setitimer(signal.ITIMER_REAL, PHI_DEADLINE, 0.5)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_drawn_phi_documents())
def test_drawn_phi_coefficients_end_in_a_verdict_or_a_document_error(text):
    """Multi-term phi coefficients once made check A10 run for minutes."""
    with _deadline():
        try:
            run_suite(parse_manifold(text).to_structure())
        except DocumentError:
            pass


EDIT_BASES = sorted(MANIFOLDS.glob("*.pk")) + sorted(DATA.glob("*.pk"))
EDIT_CHARACTERS = "#\n =+-*/^()019xyzdE_!"


@st.composite
def _edited_documents(draw):
    """A shipped or test document after 1 to 3 one-character edits: a
    character inserted, deleted or replaced anywhere, or a `#` that
    comments out a whole line."""
    text = draw(st.sampled_from(EDIT_BASES)).read_text(encoding="utf-8")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("insert", "delete", "replace", "comment")))
        if kind == "comment":
            starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
            at, new = draw(st.sampled_from(starts)), "#"
        else:
            at = draw(st.integers(0, len(text)))
            new = "" if kind == "delete" else draw(st.sampled_from(EDIT_CHARACTERS))
        text = text[:at] + new + text[at + (kind in ("delete", "replace")):]
    return text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_edited_documents())
def test_edited_documents_end_in_a_structure_or_a_positioned_error(text):
    """The CLI reports a DocumentError and nothing else as exit 2, so an
    edited document must build or fail with a DocumentError that has a line."""
    with _deadline():
        try:
            parse_manifold(text).to_structure()
        except DocumentError as err:
            assert err.line is not None, str(err)


@pytest.mark.parametrize("name", sorted(STRUCTURE_ERRORS))
def test_semantic_errors_surface_from_structure(name):
    doc = load_manifold(DATA / "malformed" / name)
    with pytest.raises(DocumentError) as info:
        doc.to_structure()
    assert str(info.value) == STRUCTURE_ERRORS[name]


def test_inline_error_positions():
    cases = [
        ("manifold", "1:1: expected 'manifold <name>'"),
        ("coords x y z", "1:1: document must start with 'manifold <name>'"),
        ("manifold m\ncoords x y z\nframe E1 = d/dw",
         "3:12: unknown coordinate in 'd/dw'"),
        ("manifold m\ncoords x y z\nframe E1 = 2 d/dx + x d/dw",
         "3:23: unknown coordinate in 'd/dw'"),
        ("manifold m\ncoords x x z", "2:10: duplicate coordinate 'x'"),
        ("manifold m\ncoords x y z\nphi E1 -> E2",
         "3:5: unknown frame member 'E1'"),
        ("manifold m\ncoords x y z\nframe E1 = 2 exp(z) d/dx",
         "3:14: unexpected token 'exp' in coefficient"),
    ]
    for text, message in cases:
        with pytest.raises(DocumentError) as info:
            parse_manifold(text)
        assert str(info.value) == message, text


def test_incomplete_document_is_rejected():
    text = """\
manifold partial
coords x y z
frame E1 = d/dx
frame E2 = d/dy
frame E3 = d/dz
gram diag 1 -1 1
phi E1 -> E2
phi E2 -> E1
phi E3 -> 0
"""
    # a missing section points at the first later one, else past the end
    for doc, message in (
        (text, "10:1: missing 'xi' section"),
        (text + "eta = dz\n", "10:1: missing 'xi' section"),
        (text.replace("gram diag 1 -1 1\n", ""), "6:1: missing 'gram diag' or 'metric' section"),
        (text.replace("phi E3 -> 0\n", ""), "5:1: missing phi line for 'E3'"),
    ):
        with pytest.raises(DocumentError) as info:
            parse_manifold(doc)
        assert str(info.value) == message
