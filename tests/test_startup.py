"""What importing the package and its modules loads, how a process exits,
and the README example.

Every `check`, `solve`, `condition` and `factors` call starts a fresh
interpreter, so each module loaded at import is paid once per call, and
so is the interpreter's shutdown.
"""

import argparse
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.stem
    for path in (ROOT / "src" / "parakenmotsu").glob("*.py")
    if path.stem != "__init__"
)


def _loaded_after(statement: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
        capture_output=True,
        check=True,
        cwd=ROOT,
        text=True,
    )
    return set(proc.stdout.split())


def _traced():
    """perfbench/traced.py, which rebinds the package's functions after import."""
    path = ROOT / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


def _spanned() -> set[str]:
    return {f"parakenmotsu.{module}" for module, _ in _traced().SPANNED}


def _loaded_by_command(*argv: str) -> tuple[int, set[str]]:
    """Exit code of `cli.main(argv)` in a fresh interpreter, and the modules
    loaded when it returned."""
    statement = (
        "import sys; from parakenmotsu import cli; code = cli.main(sys.argv[1:]);"
        " print(code, *sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", statement, *argv],
        capture_output=True,
        check=True,
        cwd=ROOT,
        text=True,
    )
    code, *loaded = proc.stderr.splitlines()[-1].split()
    return int(code), set(loaded)


def _frozen_at_exit(entry: str, *argv: str) -> tuple[int, int]:
    """Exit code of `entry` run in a fresh interpreter on `argv`, and the
    count of objects that `gc.freeze()` had moved aside when it exited,
    less those frozen before `entry` ran (3.12 starts with some)."""
    hook = (
        "import atexit, gc, sys; start = gc.get_freeze_count();"
        " atexit.register(lambda: print('frozen', gc.get_freeze_count() - start, file=sys.stderr));"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", f"{hook} {entry}", *argv],
        capture_output=True,
        cwd=ROOT,
        text=True,
    )
    word, count = proc.stderr.splitlines()[-1].split()
    assert word == "frozen", proc.stderr
    return proc.returncode, int(count)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("factors", "--n", "1"), 0),
        (("check", "tests/data/malformed/missing_equals.pk"), 2),
        (("factors", "--n", "x"), 2),  # argparse's SystemExit
    ],
)
def test_the_process_entry_freezes_the_heap_on_its_way_out(argv, code):
    entry = "import runpy; runpy.run_module('parakenmotsu.cli', run_name='__main__')"
    exit_code, frozen = _frozen_at_exit(entry, *argv)
    assert exit_code == code
    assert frozen > 0


def test_main_called_in_process_freezes_nothing():
    entry = "from parakenmotsu import cli; sys.exit(cli.main(sys.argv[1:]))"
    assert _frozen_at_exit(entry, "factors", "--n", "1") == (0, 0)


def test_the_installed_script_is_the_module_entry():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.fullmatch(r'parakenmotsu = "parakenmotsu\.cli:(\w+)"\s*', scripts)
    assert target is not None, scripts
    tree = ast.parse((ROOT / "src" / "parakenmotsu" / "cli.py").read_text(encoding="utf-8"))
    (block,) = (
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    called = {
        node.func.id
        for node in ast.walk(block)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert called == {target.group(1)}


def test_cli_import_adds_no_heavy_stdlib_modules():
    added = _loaded_after("import parakenmotsu.cli") - _loaded_after("pass")
    heavy = {
        "argparse", "dataclasses", "decimal", "fractions", "gettext", "inspect", "json",
        "numbers",
    } & added
    assert not heavy, sorted(heavy)
    # the tracer imports the suite before it looks the spanned modules up
    traced = _loaded_after("import parakenmotsu.cli; from parakenmotsu import suite")
    missing = _spanned() - traced
    assert not missing, sorted(missing)


# what a command compiles is what its path reaches: these malformed
# documents parse and fail when their structure is built, and every other
# one fails in the grammar
_STRUCTURAL = {
    "dependent_frame", "diagonal_terms", "eta_mismatch", "hostile7",
    "nonunit_frame", "not_orthonormal", "phi_terms",
}
_MALFORMED = sorted(path.stem for path in (ROOT / "tests" / "data" / "malformed").glob("*.pk"))
_START = {"cli", "kinds", "scalar"}

# (argv, exit code, modules loaded, modules not loaded)
_LOADS = [
    *(
        (("check", f"tests/data/malformed/{stem}.pk"), 2, _START | {"dsl"},
         set(MODULES) - _START - {"dsl"})
        for stem in _MALFORMED
        if stem not in _STRUCTURAL
    ),
    *(
        (("check", f"tests/data/malformed/{stem}.pk"), 2, {"geometry", "structure"},
         {"fixtures", "products", "soliton", "suite"})
        for stem in sorted(_STRUCTURAL)
    ),
    (("solve", "manifolds/example_r3.pk"), 0, {"products", "soliton"}, {"fixtures", "suite"}),
    (("condition", "manifolds/example_r3.pk", "--kind", "S.W2"), 0,
     {"products", "soliton"}, {"fixtures", "suite"}),
    # only the factor checks build the warped family
    (("check", "manifolds/example_r3.pk", "--select", "axioms"), 0, {"suite"}, {"fixtures"}),
    (("factors", "--n", "1"), 0, {"fixtures", "soliton"}, {"dsl", "suite"}),
    (("check", "manifolds/example_r3.pk"), 0, {module for module, _ in _traced().SPANNED},
     set()),
]


@pytest.mark.parametrize(
    "argv, code, loads, skips",
    _LOADS,
    ids=[
        "-".join(
            Path(arg).stem if arg.endswith(".pk") else arg
            for arg in argv
            if not arg.startswith("--")
        )
        for argv, *_ in _LOADS
    ],
)
def test_each_command_loads_only_what_its_path_reaches(argv, code, loads, skips):
    exit_code, loaded = _loaded_by_command(*argv)
    assert exit_code == code
    # each argv here is a plain spelling, which cli reads without argparse
    assert not {"argparse", "gettext", "locale"} & loaded
    # the scalar ring's coefficients are its own Rationals
    assert not {"decimal", "fractions", "numbers"} & loaded
    package = {name.split(".", 1)[1] for name in loaded if name.startswith("parakenmotsu.")}
    assert not skips & package, sorted(skips & package)
    assert not loads - package, sorted(loads - package)


def test_cli_import_loads_no_geometry():
    loaded = _loaded_after("import parakenmotsu.cli")
    assert "parakenmotsu.geometry" not in loaded
    assert {f"parakenmotsu.{module}" for module in _START} <= loaded


def test_kind_choices_are_the_condition_table_in_order():
    from parakenmotsu import cli
    from parakenmotsu.soliton import CONDITIONS

    (commands,) = [
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    (kind,) = [a for a in commands.choices["condition"]._actions if a.dest == "kind"]
    assert list(kind.choices) == [k.value for k in CONDITIONS]


def test_package_import_loads_no_module():
    loaded = _loaded_after("import parakenmotsu")
    assert "parakenmotsu" in loaded
    assert not {name for name in loaded if name.startswith("parakenmotsu.")}


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_without_a_cycle(module):
    assert f"parakenmotsu.{module}" in _loaded_after(f"import parakenmotsu.{module}")


def test_readme_library_example_runs(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    library_use = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", library_use, re.DOTALL).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_factors_block_is_the_command_output():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Symbolic factor analysis", 1)[1]
    block = re.search(r"```\n\$ parakenmotsu factors --n 1\n(.*?)```", section, re.DOTALL)
    golden = ROOT / "tests" / "data" / "golden" / "factors-1-text.out"
    assert block is not None
    assert block.group(1) == golden.read_text(encoding="utf-8")


def test_readme_manifold_block_is_the_shipped_document():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Manifold documents", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL)
    shipped = (ROOT / "manifolds" / "example_r3.pk").read_text(encoding="utf-8")

    def body(text):
        return [line for line in text.splitlines() if not line.startswith("#")]

    assert block is not None
    assert body(block.group(1)) == body(shipped)


def test_every_name_the_tracer_wraps_exists():
    # the benchmark's tracer looks these up by name after import
    for module, function in _traced().SPANNED:
        assert callable(
            getattr(importlib.import_module(f"parakenmotsu.{module}"), function, None)
        ), f"{module}.{function}"
    from parakenmotsu import suite
    from parakenmotsu.geometry import Components, Tensor
    from parakenmotsu.scalar import ScalarExpr

    assert set(suite._RUNNERS) == {stage for stage, _, _ in suite.CATALOG}
    assert callable(suite._selected)
    for cls, names in (
        (Tensor, ("build", "__getitem__")),
        (ScalarExpr, ("normalize", "__add__", "__mul__", "diff")),
    ):
        for name in names:
            assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name}"
    # its counted Tensor.build reads len() and the dense iteration of what
    # it builds, one entry per index and the zeros included
    from parakenmotsu.fixtures import build_warped

    s = build_warped(1)
    zero = Tensor.build(s.frame, 1, 2, Components((), 3, s.dim, s.chart.zero()))
    for t in (s.metric(), s.phi, s.eta, zero):
        entries = list(t.components)
        assert len(t.components) == len(entries) == s.dim**t.rank
        assert sum(not c.is_zero() for c in entries) == len(t.nonzero())


def test_the_tracer_times_every_stage_of_a_full_check(tmp_path):
    # the benchmark's traced pass, as its CI step runs it: a fresh
    # interpreter, because soliton._generic is an lru_cache
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/traced.py", "spans", str(out), "t", "--",
         "check", "manifolds/example_r5.pk"],
        capture_output=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = Counter(name for name, *_ in json.loads(out.read_text())["spans"])
    from parakenmotsu.suite import CATALOG

    stages = {f"suite.stage:{stage}" for stage, _, _ in CATALOG}
    assert {name: names[name] for name in stages} == dict.fromkeys(stages, 1)
    assert names["soliton.condition_residual"] >= 1


def _names_read(tree: ast.AST) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        or isinstance(node, ast.Attribute)
    }


def test_src_holds_only_what_it_reads():
    """Every call compiles what src holds, so src defines nothing that
    only the tests read: each function, class and method other than a
    dunder is read somewhere in src, and each module reads every name it
    imports."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted((ROOT / "src" / "parakenmotsu").glob("*.py"))
    }
    read = {module: _names_read(tree) for module, tree in trees.items()}
    read_anywhere = set().union(*read.values())
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in read_anywhere:
                    unread.append(f"{module}.{node.name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read[module]:
                        unread.append(f"{module} imports {name}")
    assert not unread, unread
