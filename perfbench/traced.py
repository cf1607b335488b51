"""Run one CLI invocation in process with the benchmark's wrappers.

    python perfbench/traced.py spans|counts OUT.json TRACE_ID -- <cli args>

The program is not changed: after importing it, this script rebinds the
public functions of each layer to timing wrappers (mode `spans`) or
wraps the scalar-ring and tensor methods with call counters (mode
`counts`), then calls `parakenmotsu.cli.main(argv)`.  Spans stay in
memory and are written to OUT.json when the invocation ends.  Counters
cost about as much as the work they count, so the two modes run in
separate processes and never together.  `soliton._generic` is an
`lru_cache`, so every traced invocation needs a fresh interpreter.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs timed in `spans` mode.  Every module-level
# name bound to the function is rebound, because `from ... import`
# copies the reference into the caller's namespace (suite, cli, soliton).
SPANNED = (
    ("cli", "_cmd_check"),
    ("cli", "_cmd_solve"),
    ("cli", "_cmd_condition"),
    ("cli", "_cmd_factors"),
    ("dsl", "parse_manifold"),
    ("dsl", "_build_structure"),
    ("connection", "koszul_connection"),
    ("curvature", "riemann"),
    ("curvature", "ricci"),
    ("curvature", "w2_tensor"),
    ("structure", "check_axioms"),
    ("structure", "check_para_kenmotsu"),
    ("structure", "kenmotsu_identity_suite"),
    ("soliton", "solve_soliton"),
    ("soliton", "quasi_einstein_decompose"),
    ("soliton", "condition_check"),
    ("soliton", "condition_residual"),
    ("soliton", "condition_residual_xi_paired"),
    ("soliton", "symbolic_factor_check"),
    ("soliton", "phi_ricci_prefactor"),
    ("soliton", "soliton_from_parallel_check"),
    ("soliton", "mu_zero_variant_check"),
    ("soliton", "phi_ricci_symmetric_check"),
    ("suite", "run_suite"),
    ("report", "emit_report"),
)


class Spans:
    """In-memory spans: [name, start, end, parent index] per call."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        records, stack = self.records, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(records)
            records.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                records[index][1] = start
                records[index][2] = time.perf_counter()
                stack.pop()

        return timed


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "parakenmotsu" or mod_name.startswith("parakenmotsu."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install_spans(spans: Spans, argv: list[str]) -> list[str]:
    """Wrap the layer functions and suite stages; return the wasted stages.

    A stage is wasted when `check --select` selects none of its checks
    but the suite still computes it.
    """
    from parakenmotsu import suite

    for mod_name, fn_name in SPANNED:
        fn = getattr(sys.modules[f"parakenmotsu.{mod_name}"], fn_name)
        _rebind(fn, spans.wrap(f"{mod_name}.{fn_name.lstrip('_')}", fn))

    selection = None
    if argv[:1] == ["check"] and "--select" in argv:
        tokens = argv[argv.index("--select") + 1].split(",")
        selection = frozenset(t.strip() for t in tokens if t.strip())
    wasted = []
    for stage, runner in list(suite._RUNNERS.items()):
        suite._RUNNERS[stage] = spans.wrap(f"suite.stage:{stage}", runner)
        if not any(
            suite._selected(name, selection)
            for st, name, _ in suite.CATALOG
            if st == stage
        ):
            wasted.append(stage)
    return wasted


def install_counters(counts: dict[str, int]) -> None:
    """Class-level call counters on the scalar ring and on tensors."""
    from parakenmotsu.geometry import Tensor
    from parakenmotsu.scalar import ScalarExpr

    normalize = ScalarExpr.normalize

    def counted_normalize(symbols, terms):
        out = normalize(symbols, terms)
        counts["normalize_calls"] += 1
        counts["terms_out"] += len(out.terms)
        counts["zero_results"] += not out.terms
        return out

    ScalarExpr.normalize = staticmethod(counted_normalize)

    def counter(key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    ScalarExpr.__add__ = counter("add_calls", ScalarExpr.__add__)
    ScalarExpr.__mul__ = counter("mul_calls", ScalarExpr.__mul__)
    ScalarExpr.diff = counter("diff_calls", ScalarExpr.diff)
    Tensor.__getitem__ = counter("getitem_calls", Tensor.__getitem__)

    build = Tensor.build

    def counted_build(*args, **kwargs):
        out = build(*args, **kwargs)
        counts["components_built"] += len(out.components)
        counts["components_nonzero"] += sum(not c.is_zero() for c in out.components)
        return out

    Tensor.build = staticmethod(counted_build)


COUNT_KEYS = (
    "normalize_calls",
    "terms_out",
    "zero_results",
    "add_calls",
    "mul_calls",
    "diff_calls",
    "getitem_calls",
    "components_built",
    "components_nonzero",
)


def main(argv: list[str]) -> int:
    mode, out_path, trace_id, sep, *cli_argv = argv
    if mode not in ("spans", "counts") or sep != "--":
        raise SystemExit(__doc__)
    import parakenmotsu.cli as cli

    spans = Spans()
    counts = dict.fromkeys(COUNT_KEYS, 0)
    wasted: list[str] = []
    if mode == "spans":
        wasted = install_spans(spans, cli_argv)
    else:
        install_counters(counts)
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "trace_id": trace_id,
                "spans": spans.records,
                "wasted_stages": wasted,
                "counts": counts,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
