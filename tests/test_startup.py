"""What `import parakenmotsu.cli` loads beyond a bare interpreter.

Every `check`, `solve`, `condition` and `factors` call starts a fresh
interpreter, so each module loaded at import is paid once per call.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _loaded_after(statement: str) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
        capture_output=True,
        check=True,
        cwd=ROOT,
        text=True,
    )
    return set(proc.stdout.split())


def _traced_modules() -> set[str]:
    """The modules whose functions perfbench/traced.py rebinds after import."""
    path = ROOT / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return {f"parakenmotsu.{module}" for module, _ in traced.SPANNED}


def test_cli_import_adds_no_heavy_stdlib_modules():
    added = _loaded_after("import parakenmotsu.cli") - _loaded_after("pass")
    heavy = {"dataclasses", "inspect", "json"} & added
    assert not heavy, sorted(heavy)
    missing = _traced_modules() - added
    assert not missing, sorted(missing)
