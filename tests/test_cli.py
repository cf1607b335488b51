import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parakenmotsu import cli

ROOT = Path(__file__).parent.parent
MANIFOLDS = ROOT / "manifolds"
MALFORMED = sorted((ROOT / "tests" / "data" / "malformed").glob("*.pk"))
FLAT = ROOT / "tests" / "data" / "failing_flat3.pk"
NONUNIT = ROOT / "tests" / "data" / "nonunit_xi3.pk"


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "parakenmotsu.cli", *map(str, args)],
        capture_output=True,
        cwd=ROOT,
        timeout=timeout,
    )


# -- check ---------------------------------------------------------------------


@pytest.mark.parametrize("stem", ["example_r3", "example_r5"])
def test_check_passes_on_shipped_manifolds(stem):
    proc = run_cli("check", MANIFOLDS / f"{stem}.pk")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.decode("utf-8")
    assert "summary: 46 pass, 0 fail, 0 skipped" in out
    assert "FAIL" not in out


def test_check_output_is_byte_deterministic():
    args = ("check", MANIFOLDS / "example_r3.pk", "--format", "json-like")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


def test_check_structured_output_parses():
    proc = run_cli("check", MANIFOLDS / "example_r3.pk", "--format", "json-like")
    doc = json.loads(proc.stdout)
    assert doc["manifold"] == "example_r3"
    assert len(doc["checks"]) == 46
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert doc["soliton"] == {
        "lambda": "1",
        "mu": "1",
        "classification": "Einstein",
    }
    assert len(doc["notes"]) == 7


def test_check_fails_on_non_para_kenmotsu_document():
    proc = run_cli("check", FLAT)
    assert proc.returncode == 1
    out = proc.stdout.decode("utf-8")
    assert "FAIL  para-kenmotsu/covariant-phi" in out
    assert "witness:" in out


def test_check_select_reports_rest_as_skipped():
    proc = run_cli("check", MANIFOLDS / "example_r3.pk", "--select", "axioms")
    assert proc.returncode == 0
    assert b"summary: 10 pass, 0 fail, 36 skipped" in proc.stdout


def test_check_select_accepts_multiple_tokens():
    proc = run_cli(
        "check",
        MANIFOLDS / "example_r3.pk",
        "--select",
        "axioms,identities/eta-closed",
    )
    assert proc.returncode == 0
    assert b"summary: 11 pass, 0 fail, 35 skipped" in proc.stdout


def test_dense_frame_inverts_quickly():
    # every member of this 9-dimensional frame combines all nine coordinate
    # fields; an inverse whose cost grows factorially with the dimension
    # takes minutes here
    dense = ROOT / "tests" / "data" / "dense9.pk"
    proc = run_cli("check", dense, "--select", "axioms", timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert b"summary: 10 pass, 0 fail, 36 skipped" in proc.stdout


def test_check_unknown_select_token_is_usage_error():
    proc = run_cli("check", MANIFOLDS / "example_r3.pk", "--select", "nonsense")
    assert proc.returncode == 2
    assert proc.stderr.decode("utf-8").startswith("error:")


@pytest.mark.parametrize("select", ["", ",", " , "])
def test_check_empty_select_is_usage_error(select):
    proc = run_cli("check", MANIFOLDS / "example_r3.pk", "--select", select)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode("utf-8") == "error: --select names no check\n"


@pytest.mark.parametrize("path", MALFORMED, ids=lambda p: p.stem)
def test_malformed_documents_exit_two(path):
    proc = run_cli("check", path, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode("utf-8").startswith("error:")


def test_parse_errors_carry_positions(tmp_path):
    positioned = {
        "even_coords.pk": "error: 2:1:",
        "one_coordinate.pk": "error: 2:1:",
        "unknown_symbol.pk": "error: 3:16:",
        "missing_equals.pk": "error: 10:4:",
        "unknown_member.pk": "error: 7:11:",
        "bad_gram_entry.pk": "error: 6:1:",
        "not_utf8.pk": "error: 4:12:",
        "n_mismatch.pk": "error: 3:1:",
        "gram_count.pk": "error: 6:1:",
        "frame_count.pk": "error: 2:1:",
        "xi_unknown_coord.pk": "error: 10:6:",
        "deep_parens.pk": "error: 3:76:",
        "deep_negation.pk": "error: 3:76:",
        "huge_power.pk": "error: 3:34:",
        "long_literal.pk": "error: 3:19:",
        "long_exponent.pk": "error: 3:21:",
        "big_constant_power.pk": "error: 3:20:",
        "huge_constant_power.pk": "error: 3:20:",
        "long_fraction_sum.pk": "error: 4:7923:",
        "many_terms.pk": "error: 5:228:",
        "many_segments.pk": "error: 6:247:",
        "dependent_frame.pk": "error: 3:1:",
        "nonunit_frame.pk": "error: 4:1:",
        "hostile7.pk": "error: 7:1:",
        "diagonal_terms.pk": "error: 5:1:",
        "phi_terms.pk": "error: 15:1:",
        "not_orthonormal.pk": "error: 6:1:",
        "eta_mismatch.pk": "error: 11:1:",
    }
    assert len(positioned) >= 5
    for name, prefix in positioned.items():
        proc = run_cli("check", ROOT / "tests" / "data" / "malformed" / name)
        assert proc.returncode == 2
        assert proc.stderr.decode("utf-8").startswith(prefix), name
    # a dangling '+', '-' or '*' is named by its own column
    example = (MANIFOLDS / "example_r3.pk").read_text(encoding="utf-8")
    dangling = {
        ("frame E1 = exp(z) d/dx", "frame E1 = exp(z) d/dx +"): "error: 7:24:",
        ("frame E1 = exp(z) d/dx", "frame E1 = exp(z) * * d/dx"): "error: 7:19:",
        ("xi = -d/dz", "xi = -d/dz +"): "error: 16:12:",
    }
    for (line, broken), prefix in dangling.items():
        doc = tmp_path / "dangling.pk"
        doc.write_text(example.replace(line, broken), encoding="utf-8")
        proc = run_cli("check", doc)
        assert proc.returncode == 2
        assert proc.stderr.decode("utf-8").startswith(prefix), broken


def test_missing_file_exits_two():
    proc = run_cli("check", "no_such_file.pk")
    assert proc.returncode == 2
    assert proc.stderr.decode("utf-8").startswith("error:")


# -- solve ---------------------------------------------------------------------


def test_solve_text_output():
    proc = run_cli("solve", MANIFOLDS / "example_r3.pk")
    assert proc.returncode == 0
    out = proc.stdout.decode("utf-8")
    assert "lambda = 1\n" in out
    assert "mu = 1\n" in out
    assert "classification = Einstein" in out


def test_solve_structured_output():
    proc = run_cli("solve", MANIFOLDS / "example_r5.pk", "--format", "json-like")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["dimension"] == 5 and doc["n"] == 2
    assert doc["soliton"] == {
        "lambda": "3",
        "mu": "1",
        "classification": "Einstein",
    }


def test_solve_reports_inconsistent_constants():
    proc = run_cli("solve", FLAT)
    assert proc.returncode == 1
    assert b"no constant soliton solution" in proc.stderr


def test_solve_names_a_xi_that_is_not_a_unit_vector():
    # xi = 2 E3: the solver names the norm, not a residual of the Ricci tensor
    proc = run_cli("solve", NONUNIT)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == (
        b"no constant soliton solution: xi is not a unit vector: g(xi, xi) = 4\n"
    )


def test_check_fails_unit_xi_on_a_xi_that_is_not_a_unit_vector():
    proc = run_cli("check", NONUNIT)
    assert proc.returncode == 1
    out = proc.stdout.decode("utf-8")
    assert "  FAIL  axioms/unit-xi                            [A8]  witness: []: 3" in out


# -- condition -----------------------------------------------------------------


def test_condition_consistent_for_all_kinds():
    residual_zero = {"R.S": "yes", "S.R": "no", "W2.S": "yes", "S.W2": "yes"}
    for kind, zero in residual_zero.items():
        proc = run_cli("condition", MANIFOLDS / "example_r3.pk", "--kind", kind)
        assert proc.returncode == 0, (kind, proc.stderr)
        out = proc.stdout.decode("utf-8")
        assert f"residual zero: {zero}" in out, kind
        assert "consistent: yes" in out, kind


def test_condition_structured_output():
    proc = run_cli(
        "condition",
        MANIFOLDS / "example_r3.pk",
        "--kind",
        "W2.S",
        "--format",
        "json-like",
    )
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "W2.S"
    assert doc["residual_zero"] is True
    assert doc["consistent"] is True
    assert doc["soliton"] == {"lambda": "1", "mu": "1"}
    assert doc["advertised"] == [["-1", "3"], ["1", "1"]]


@pytest.mark.parametrize("kind", ["R.S", "S.R", "W2.S", "S.W2"])
def test_condition_names_a_xi_that_is_not_a_unit_vector(kind):
    proc = run_cli("condition", NONUNIT, "--kind", kind)
    assert proc.returncode == 1
    assert proc.stderr == (
        b"no constant soliton solution: xi is not a unit vector: g(xi, xi) = 4\n"
    )


def test_condition_requires_kind():
    proc = run_cli("condition", MANIFOLDS / "example_r3.pk")
    assert proc.returncode == 2


# -- factors -------------------------------------------------------------------


def test_factors_text_table():
    proc = run_cli("factors", "--n", "1")
    assert proc.returncode == 0
    out = proc.stdout.decode("utf-8")
    assert "factor analysis at n = 1" in out
    assert "polynomial -1 + mu" in out
    assert "polynomial 5 - mu" in out
    assert "polynomial -3 + 4*mu - mu^2" in out
    assert "phi-Ricci prefactor" in out


def test_factors_structured_output_n2():
    proc = run_cli("factors", "--n", "2", "--format", "json-like")
    doc = json.loads(proc.stdout)
    by_kind = {f["kind"]: f for f in doc["factors"]}
    assert by_kind["R.S"]["polynomial"] == "-1 + mu"
    assert by_kind["S.R"]["polynomial"] == "9 - mu"
    assert by_kind["W2.S"]["polynomial"] == "-5 + 6*mu - mu^2"
    assert by_kind["S.W2"]["mu_roots"] == ["1", "5"]
    assert by_kind["W2.S"]["pairs"] == [["-1", "5"], ["3", "1"]]
    assert doc["phi_ricci"]["polynomial"] == "-1 + mu"


def test_factors_rejects_nonpositive_n():
    proc = run_cli("factors", "--n", "0")
    assert proc.returncode == 2
    assert proc.stderr.decode("utf-8").startswith("error:")
    # the message names the bound; it reads no document, so has no line:col
    assert proc.stderr.decode("utf-8") == "error: n must be at least 1, got 0\n"
    assert proc.stdout == b""


def test_factors_rejects_n_above_its_bound():
    # the factor tables grow too fast with n to run unbounded
    from parakenmotsu.cli import MAX_FACTORS_N

    proc = run_cli("factors", "--n", MAX_FACTORS_N + 1, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.decode("utf-8") == (
        f"error: n must be at most {MAX_FACTORS_N}, got {MAX_FACTORS_N + 1}\n"
    )
    assert proc.stdout == b""


# -- exit routes ---------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("check", MANIFOLDS / "example_r5.pk"),
        ("solve", MANIFOLDS / "example_r3.pk"),
        ("factors", "--n", "2"),
    ],
)
def test_a_reader_that_went_away_ends_the_command_quietly(args):
    # the read end is closed before the child starts, so its first write
    # to stdout meets a broken pipe
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "parakenmotsu.cli", *map(str, args)],
            stdout=write,
            stderr=subprocess.PIPE,
            cwd=ROOT,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_help_prints_the_usage_on_stdout():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert proc.stdout.decode("utf-8").startswith("usage: parakenmotsu ")
    assert proc.stderr == b""


# -- the command line ----------------------------------------------------------

_DOC = str(MANIFOLDS / "example_r3.pk")
_OPTIONS = ("--select", "--format", "--kind", "--n")
_VALUES = (
    "", "-1", " 2", "1_0", "\u0663", "9" * 5000, "0", "3", "x",
    "text", "json-like", "json", "R.S", "S.R", "W2.S", "S.W2", "R.X",
    "axioms", "connection,curvature", "check", _DOC, "doc.pk", "-", "--help", "--format",
)
_TOKENS = (
    "check", "solve", "condition", "factors", "chec", "-h", "--",
    *{option[:end] for option in _OPTIONS for end in range(1, len(option) + 1)},
    *(f"{option}={value}" for option in _OPTIONS for value in ("", "2", "text", "S.W2")),
    *_VALUES,
)
_FORMATS = ("text", "json-like")
# per command, its options and values that argparse accepts for them
_OWN = {
    "check": {"--select": ("axioms", "connection,curvature", "check", ""), "--format": _FORMATS},
    "solve": {"--format": _FORMATS},
    "condition": {"--kind": ("R.S", "S.R", "W2.S", "S.W2"), "--format": _FORMATS},
    "factors": {"--n": ("0", "3", " 2", "1_0", "\u0663"), "--format": _FORMATS},
}

_REQUIRED = {
    "check": [(_DOC,)],
    "solve": [(_DOC,)],
    "condition": [(_DOC,), ("--kind", "R.S")],
    "factors": [("--n", "1")],
}


@st.composite
def _argv(draw):
    """A command, then in any order: most often what it requires, and a
    few groups of tokens, each an option of the command with one of its
    values or with any value, a document or any single token."""
    command = draw(st.sampled_from((*_OWN, "-h", "chec", "")))
    own = _OWN.get(command, {"--help": ("",)})
    pairs = [(option, value) for option, values in own.items() for value in values]
    groups = [group for group in _REQUIRED.get(command, ()) if draw(st.integers(0, 4))]
    groups += draw(
        st.lists(
            st.one_of(
                st.sampled_from(pairs),
                st.tuples(st.sampled_from(list(own)), st.sampled_from(_VALUES)),
                st.sampled_from([(_DOC,), ("doc.pk",)]),
                st.tuples(st.sampled_from(_TOKENS)),
            ),
            max_size=4,
        )
    )
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


# the benchmark's and the README's spellings, read without argparse
_PLAIN = [
    ["check", _DOC],
    ["check", _DOC, "--select", "axioms"],
    ["check", "--select", "connection,curvature", _DOC, "--format", "json-like"],
    ["solve", _DOC],
    ["condition", _DOC, "--kind", "S.W2"],
    ["factors", "--n", "3"],
    ["factors", "--n", "1", "--n", "2", "--format", "text"],
]

# handed to argparse, which prints help or a usage error, or reads a valid
# spelling the plain reading declines
_DECLINED = [
    [], ["--help"], ["-h"], ["check", "--help"], ["factors", "--n", "1", "-h"],
    ["check", _DOC, "--sel", "axioms"], ["factors", "--n=3"], ["check", _DOC, "--format=text"],
    ["check", "--", _DOC], ["factors", "--n", "-1"], ["check", "-"], ["factors", "--n", "x"],
    ["factors", "--n", "9" * 5000], ["factors", "--n"], ["factors"],
    ["condition", _DOC, "--kind", "X"], ["condition", _DOC], ["solve", _DOC, "--kind", "R.S"],
    ["check"], ["check", _DOC, _DOC], ["check", _DOC, "--select"], ["chec", _DOC],
    ["check", _DOC, "--select", "--format", "text"],
    ["check", _DOC, "--format", "json"],
]


def _parsed(argv):
    try:
        return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"argparse rejects {argv!r}")


@settings(max_examples=500, deadline=None)
@given(_argv())
def test_a_plain_spelling_reads_as_argparse_reads_it(argv):
    plain = cli._plain(argv)
    if plain is not None:
        assert vars(plain) == _parsed(argv)


@pytest.mark.parametrize("argv", _PLAIN)
def test_the_plain_spellings_are_read_without_argparse(argv):
    plain = cli._plain(argv)
    assert plain is not None
    assert vars(plain) == _parsed(argv)


@pytest.mark.parametrize("argv", _DECLINED)
def test_every_other_spelling_goes_to_argparse(argv):
    assert cli._plain(argv) is None


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([command, "--help"] for command in ("check", "solve", "condition", "factors")),
        [],
        ["factors", "--n", "x"],
        ["condition", _DOC, "--kind", "X"],
        ["condition", _DOC],
        ["solve", _DOC, "--kind", "R.S"],
    ],
)
def test_argparse_answers_what_the_plain_reading_declines(argv):
    # argparse wraps its help to the terminal's width, which COLUMNS fixes
    env = dict(os.environ, COLUMNS="80")
    parse = "import sys; from parakenmotsu import cli; cli.build_parser().parse_args(sys.argv[1:])"
    through_main, direct = (
        subprocess.run(
            [sys.executable, *entry, *argv], capture_output=True, cwd=ROOT, env=env
        )
        for entry in (["-m", "parakenmotsu.cli"], ["-c", parse])
    )
    assert through_main.returncode == direct.returncode
    assert through_main.stdout == direct.stdout
    assert through_main.stderr == direct.stderr
