"""Command-line verifier for manifold documents.

Exit codes: 0 when every selected check passes, 1 when any selected
check fails (or a solve/condition/factors run is inconsistent), 2 on a
parse or semantic error in the document or the arguments.
"""

from __future__ import annotations

import argparse
import os
import sys

from parakenmotsu.dsl import DocumentError, load_manifold
from parakenmotsu.report import emit_report, exit_code, json_bytes
from parakenmotsu.scalar import ExprSyntaxError
from parakenmotsu.soliton import (
    ConditionKind,
    FactorError,
    NoConstantSolution,
    condition_check,
    phi_ricci_prefactor,
    rational_roots,
    symbolic_factor_check,
    theorem_expected,
)
from parakenmotsu.suite import Products, run_suite, selectable_names

_KINDS = tuple(kind.value for kind in ConditionKind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parakenmotsu",
        description="Exact verifier for para-Kenmotsu manifold documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "json-like"),
            default="text",
            help="output format (default: text)",
        )

    p_check = sub.add_parser("check", help="run the verification suite on a document")
    p_check.add_argument("file", help="manifold document (.pk)")
    p_check.add_argument(
        "--select",
        default=None,
        help="comma-separated check names or group prefixes to run",
    )
    add_format(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_solve = sub.add_parser("solve", help="solve for the soliton constants")
    p_solve.add_argument("file", help="manifold document (.pk)")
    add_format(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_cond = sub.add_parser(
        "condition", help="evaluate one curvature-condition residual"
    )
    p_cond.add_argument("file", help="manifold document (.pk)")
    p_cond.add_argument("--kind", required=True, choices=_KINDS)
    add_format(p_cond)
    p_cond.set_defaults(func=_cmd_condition)

    p_fact = sub.add_parser(
        "factors", help="extract the condition factor polynomials symbolically"
    )
    p_fact.add_argument("--n", type=int, required=True, help="half rank, n >= 1")
    add_format(p_fact)
    p_fact.set_defaults(func=_cmd_factors)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, ExprSyntaxError) as err:
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


def _write(payload: bytes) -> None:
    sys.stdout.buffer.write(payload)
    sys.stdout.buffer.flush()


def _cmd_check(args) -> int:
    doc = load_manifold(args.file)
    selection = None
    if args.select is not None:
        tokens = [tok.strip() for tok in args.select.split(",") if tok.strip()]
        if not tokens:
            raise DocumentError("--select names no check")
        known = selectable_names()
        for tok in tokens:
            if tok not in known:
                raise DocumentError(f"unknown check or group {tok!r}")
        selection = frozenset(tokens)
    result = run_suite(doc, selection)
    _write(emit_report(result, args.format))
    return exit_code(result.checks)


def _cmd_solve(args) -> int:
    doc = load_manifold(args.file)
    products = Products(doc.to_structure())
    try:
        sol = products.sol
    except NoConstantSolution as err:
        print(f"no constant soliton solution: {err}", file=sys.stderr)
        return 1
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
    doc = load_manifold(args.file)
    kind = ConditionKind(args.kind)
    products = Products(doc.to_structure())
    try:
        sol = products.sol
    except NoConstantSolution as err:
        print(f"no constant soliton solution: {err}", file=sys.stderr)
        return 1
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
    if args.n < 1:
        raise DocumentError(f"n must be at least 1, got {args.n}")
    n = args.n
    entries = []
    try:
        for kind in ConditionKind:
            result = symbolic_factor_check(kind, n)
            roots = sorted(rational_roots(result.polynomial))
            pairs = sorted(theorem_expected(kind, n))
            entries.append((kind.value, result, roots, pairs))
        prefactor = phi_ricci_prefactor(n)
    except FactorError as err:
        print(f"factor extraction failed: {err}", file=sys.stderr)
        return 1
    prefactor_roots = sorted(rational_roots(prefactor.polynomial))

    if args.format == "json-like":
        payload = {
            "n": n,
            "dimension": 2 * n + 1,
            "factors": [
                {
                    "kind": kind_value,
                    "polynomial": str(result.polynomial),
                    "scale": str(result.scale),
                    "mu_roots": [str(r) for r in roots],
                    "pairs": [[str(a), str(b)] for a, b in pairs],
                }
                for kind_value, result, roots, pairs in entries
            ],
            "phi_ricci": {
                "polynomial": str(prefactor.polynomial),
                "scale": str(prefactor.scale),
                "mu_roots": [str(r) for r in prefactor_roots],
            },
        }
        _write(json_bytes(payload))
    else:
        lines = [f"factor analysis at n = {n}  (dimension {2 * n + 1})"]
        width = max(len(v) for v, _, _, _ in entries)
        for kind_value, result, roots, pairs in entries:
            root_text = ", ".join(str(r) for r in roots)
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
    sys.exit(main())
