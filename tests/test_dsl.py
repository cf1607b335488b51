import sys
import time
from pathlib import Path

import pytest

from parakenmotsu import scalar
from parakenmotsu.dsl import DocumentError, load_manifold, parse_manifold

DATA = Path(__file__).parent / "data"
MANIFOLDS = Path(__file__).parent.parent / "manifolds"


# -- round-trips ----------------------------------------------------------------


@pytest.mark.parametrize("stem", ["example_r3", "example_r5"])
def test_shipped_documents_round_trip(stem):
    doc = load_manifold(MANIFOLDS / f"{stem}.pk")
    assert parse_manifold(doc.emit()) == doc
    assert doc.name == stem
    assert doc.dimension == 2 * doc.n + 1
    built, rebuilt = doc.to_structure(), parse_manifold(doc.emit()).to_structure()
    assert (built.frame.members, built.frame.signs, built.phi.nonzero()) == (
        rebuilt.frame.members,
        rebuilt.frame.signs,
        rebuilt.phi.nonzero(),
    )


@pytest.mark.parametrize("stem", ["example_r3", "example_r5"])
def test_structure_build_parses_nothing(monkeypatch, stem):
    calls = []
    for name in ("parse_scalar", "parse_expr_tokens"):
        original = getattr(scalar, name)

        def counted(*args, original=original, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("parakenmotsu") and (
                getattr(module, name, None) is original
            ):
                monkeypatch.setattr(module, name, counted)
    doc = load_manifold(MANIFOLDS / f"{stem}.pk")
    assert calls  # the wrappers see the parser's callers
    calls.clear()
    doc.to_structure()
    assert calls == []


def test_round_trip_normalizes_coefficients():
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
    doc = parse_manifold(text)
    emitted = doc.emit()
    assert "1/2 d/dx + d/dy" in emitted
    assert parse_manifold(emitted) == doc


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
    "xi_unknown_coord.pk": "10:1: unknown coordinate in 'd/dw'",
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
    doc = load_manifold(DATA / "malformed" / "hostile7.pk")
    start = time.perf_counter()
    with pytest.raises(DocumentError):
        doc.to_structure()
    assert time.perf_counter() - start < 1.0


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
         "3:1: unknown coordinate in 'd/dw'"),
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
    with pytest.raises(DocumentError) as info:
        parse_manifold(text)
    assert "xi" in str(info.value)
