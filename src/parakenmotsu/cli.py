"""Command-line verifier for manifold documents.

Exit codes: 0 when every selected check passes, 1 when any selected
check fails (or a solve/condition/factors run is inconsistent), 2 on a
parse or semantic error in the document or the arguments.

Each call is a fresh interpreter that compiles what it imports, so this
module imports only the scalar ring's `DocumentError` and the kind names,
and each command imports the rest where its path first needs it: the
document commands import the structure's products, the suite and the
report only once the document has parsed and its structure has built,
`solve` and `condition` never compile the suite's table of checks, and
`factors` imports the soliton module only once `--n` is in range.  The
command line is read from one table, `_COMMANDS`: `main` reads the plain
spellings itself and hands every other argv to the argparse parser that
`build_parser` makes from the same table, so argparse, and the gettext
and locale it loads, are imported only for `--help`, usage errors and
the valid spellings the plain reading declines, such as `--n=3`.  A
process enters through `run`, which freezes the heap once `main` has
returned, so the interpreter's exit skips a collection of every module's
cycles that frees only what the OS reclaims anyway.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import NoReturn

from parakenmotsu.kinds import ConditionKind
from parakenmotsu.scalar import DocumentError

# factors builds its generic structure at dimension 2n + 1; in process on
# 2 shared cores with Python 3.11, n = 32 takes 0.4 s and 31 MB, n = 100
# 7 s and 160 MB
MAX_FACTORS_N = 32

_FORMAT = (
    "--format", ("text", "json-like"), None, "text", False, "output format (default: text)"
)

# the command-line grammar, in --help order: per command, its help, whether
# it takes the positional document, and its options as (name, choices,
# type, default, required, help)
_COMMANDS = {
    "check": (
        "run the verification suite on a document",
        True,
        (
            ("--select", None, None, None, False,
             "comma-separated check names or group prefixes to run"),
            _FORMAT,
        ),
    ),
    "solve": ("solve for the soliton constants", True, (_FORMAT,)),
    "condition": (
        "evaluate one curvature-condition residual",
        True,
        (
            ("--kind", tuple(kind.value for kind in ConditionKind), None, None, True, None),
            _FORMAT,
        ),
    ),
    "factors": (
        "extract the condition factor polynomials symbolically",
        False,
        (
            ("--n", None, int, None, True, f"half rank, 1 <= n <= {MAX_FACTORS_N}"),
            _FORMAT,
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="parakenmotsu",
        description="Exact verifier for para-Kenmotsu manifold documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, takes_file, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        if takes_file:
            p.add_argument("file", help="manifold document (.pk)")
        for name, choices, convert, default, required, option_help in options:
            p.add_argument(
                name,
                choices=choices,
                type=convert,
                default=default,
                required=required,
                help=option_help,
            )
    return parser


def _plain(argv) -> SimpleNamespace | None:
    """The values argparse reads from `argv` when `argv` is a plain
    spelling: the command's name, then exact option names each followed by
    a value and the command's one positional, where no value starts with
    '-', every choice is offered, every conversion succeeds and nothing is
    missing or left over. None for every other argv."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, takes_file, options = _COMMANDS[argv[0]]
    by_name = {option[0]: option for option in options}
    values = {"command": argv[0]}
    values.update((name[2:], default) for name, _, _, default, _, _ in options)
    missing = {name for name, _, _, _, required, _ in options if required}
    if takes_file:
        missing.add("file")
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if "file" not in missing:
                return None
            values["file"] = token
            missing.discard("file")
            continue
        value = next(tokens, None)
        if token not in by_name or value is None or value.startswith("-"):
            return None
        _, choices, convert, _, _, _ = by_name[token]
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[token[2:]] = value
        missing.discard(token)
    return None if missing else SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    # looked up when main runs, not at import: the benchmark's tracer
    # rebinds these module attributes to timed wrappers
    command = {
        "check": _cmd_check,
        "solve": _cmd_solve,
        "condition": _cmd_condition,
        "factors": _cmd_factors,
    }[args.command]
    try:
        return command(args)
    except DocumentError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # reader went away (e.g. piped into head); suppress the shutdown
        # flush on the dead descriptor and exit like a killed filter
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Process entry: `main` on `sys.argv`, then exit with its code.

    The freeze is here, not in `main`, because in-process callers go on
    after `main` returns and need a working collector. It also runs when
    `main` raises, as argparse's SystemExit does on a usage error.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


def _write(payload: bytes) -> None:
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()


def _cmd_check(args) -> int:
    from parakenmotsu.dsl import load_manifold

    doc = load_manifold(args.file)
    selection = None
    if args.select is not None:
        # the names are the suite's; an unknown one is reported before any
        # fault of the structure
        from parakenmotsu.suite import selectable_names

        tokens = [tok.strip() for tok in args.select.split(",") if tok.strip()]
        if not tokens:
            raise DocumentError("--select names no check")
        known = selectable_names()
        for tok in tokens:
            if tok not in known:
                raise DocumentError(f"unknown check or group {tok!r}")
        selection = frozenset(tokens)
    structure = doc.to_structure()
    from parakenmotsu.report import emit_report, exit_code
    from parakenmotsu.suite import run_suite

    result = run_suite(structure, selection, doc.name)
    _write(emit_report(result, args.format))
    return exit_code(result.checks)


def _solved(args):
    """(document, products, soliton constants) of `solve` and `condition`;
    None, once the reason is on stderr, when there are no constants."""
    from parakenmotsu.dsl import load_manifold

    doc = load_manifold(args.file)
    structure = doc.to_structure()
    from parakenmotsu.products import Products
    from parakenmotsu.soliton import NoConstantSolution

    products = Products(structure)
    try:
        return doc, products, products.sol
    except NoConstantSolution as err:
        print(f"no constant soliton solution: {err}", file=sys.stderr)
        return None


def _cmd_solve(args) -> int:
    solved = _solved(args)
    if solved is None:
        return 1
    doc, _, sol = solved
    from parakenmotsu.report import json_bytes

    if args.format == "json-like":
        payload = {
            "manifold": doc.name,
            "dimension": doc.dimension,
            "n": doc.n,
            "soliton": {
                "lambda": str(sol.lam),
                "mu": str(sol.mu),
                "classification": sol.classification,
            },
        }
        _write(json_bytes(payload))
    else:
        lines = [
            f"manifold {doc.name}  (dimension {doc.dimension}, n = {doc.n})",
            f"lambda = {sol.lam}",
            f"mu = {sol.mu}",
            f"classification = {sol.classification}",
        ]
        _write(("\n".join(lines) + "\n").encode("utf-8"))
    return 0


def _cmd_condition(args) -> int:
    solved = _solved(args)
    if solved is None:
        return 1
    doc, products, sol = solved
    from parakenmotsu.report import json_bytes
    from parakenmotsu.soliton import condition_check, theorem_expected

    kind = ConditionKind(args.kind)
    residual = products.residual(kind)
    witness = condition_check(kind, products.s, residual, sol)
    residual_zero = residual.is_zero()
    advertised = sorted(theorem_expected(kind, products.s.n))
    consistent = witness is None
    if args.format == "json-like":
        payload = {
            "manifold": doc.name,
            "n": doc.n,
            "kind": kind.value,
            "residual_zero": residual_zero,
            "soliton": {"lambda": str(sol.lam), "mu": str(sol.mu)},
            "advertised": [[str(a), str(b)] for a, b in advertised],
            "consistent": consistent,
        }
        if witness is not None:
            payload["witness"] = witness
        _write(json_bytes(payload))
    else:
        pair_text = ", ".join(f"({a}, {b})" for a, b in advertised)
        lines = [
            f"condition {kind.value}  (manifold {doc.name}, n = {doc.n})",
            f"residual zero: {'yes' if residual_zero else 'no'}",
            f"soliton constants: lambda = {sol.lam}, mu = {sol.mu}",
            f"advertised constants: {pair_text}",
            f"consistent: {'yes' if consistent else 'no'}",
        ]
        if witness is not None:
            lines.append(f"witness: {witness}")
        _write(("\n".join(lines) + "\n").encode("utf-8"))
    return 0 if consistent else 1


def _cmd_factors(args) -> int:
    n = args.n
    if n < 1:
        raise DocumentError(f"n must be at least 1, got {n}")
    if n > MAX_FACTORS_N:
        raise DocumentError(f"n must be at most {MAX_FACTORS_N}, got {n}")
    from parakenmotsu.report import json_bytes
    from parakenmotsu.soliton import (
        FactorError,
        phi_ricci_prefactor,
        symbolic_factor_check,
        theorem_expected,
    )

    entries = []
    try:
        for kind in ConditionKind:
            result = symbolic_factor_check(kind, n)
            entries.append((kind.value, result, sorted(theorem_expected(kind, n))))
        prefactor = phi_ricci_prefactor(n)
    except FactorError as err:
        print(f"factor extraction failed: {err}", file=sys.stderr)
        return 1

    if args.format == "json-like":
        payload = {
            "n": n,
            "dimension": 2 * n + 1,
            "factors": [
                {
                    "kind": kind_value,
                    "polynomial": str(result.polynomial),
                    "scale": str(result.scale),
                    "mu_roots": [str(r) for r in result.roots],
                    "pairs": [[str(a), str(b)] for a, b in pairs],
                }
                for kind_value, result, pairs in entries
            ],
            "phi_ricci": {
                "polynomial": str(prefactor.polynomial),
                "scale": str(prefactor.scale),
                "mu_roots": [str(r) for r in prefactor.roots],
            },
        }
        _write(json_bytes(payload))
    else:
        lines = [f"factor analysis at n = {n}  (dimension {2 * n + 1})"]
        width = max(len(v) for v, _, _ in entries)
        for kind_value, result, pairs in entries:
            root_text = ", ".join(str(r) for r in result.roots)
            pair_text = ", ".join(f"({a}, {b})" for a, b in pairs)
            lines.append(
                f"  {kind_value.ljust(width)}  polynomial {result.polynomial}"
                f"  scale {result.scale}  mu roots {root_text}"
                f"  pairs {pair_text}"
            )
        lines.append(
            f"  phi-Ricci prefactor: polynomial {prefactor.polynomial}"
            f"  scale {prefactor.scale}"
        )
        _write(("\n".join(lines) + "\n").encode("utf-8"))
    return 0


if __name__ == "__main__":
    run()
