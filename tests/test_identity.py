"""Byte identity of the command line over one fixed corpus.

For each argv, tests/data/identity.json holds the exit code and the
SHA-256 of stdout and of stderr.  The corpus runs `check` in both
formats, alone and with `--select axioms`, `connection,curvature` and
`factors`, `solve` in both formats and `condition` for every kind in both
formats.  It runs them on every document under manifolds/, tests/data/
and tests/data/malformed/ and on the seed-1 documents of
perfbench/docs.py, and adds `factors --n 0..5` and `--n 33`.  Each case
runs `cli.main` in process, as tests/test_golden.py does; the goldens keep
the readable bytes of fewer cases.  To record again after an intended
change of output, run

    PYTHONPATH=src python tests/test_identity.py

and list the argvs whose entry changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
from pathlib import Path

from parakenmotsu import cli

ROOT = Path(__file__).parent.parent
RECORD = ROOT / "tests" / "data" / "identity.json"
SELECTIONS = (None, "axioms", "connection,curvature", "factors")
FORMATS = ("text", "json-like")
KINDS = ("R.S", "S.R", "W2.S", "S.W2")


def perfbench_documents() -> dict[str, str]:
    """The seed-1 documents of each benchmark workload, in the order the
    benchmark draws them, by name."""
    spec = importlib.util.spec_from_file_location("docs", ROOT / "perfbench" / "docs.py")
    docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(docs)
    texts = {}
    rng = random.Random(1)
    texts["warped2"], texts["warped3"] = docs.warped(2, rng), docs.warped(3, rng)
    rng = random.Random(1)
    texts["rotated_a"], texts["rotated_b"] = docs.rotated(rng), docs.rotated(rng)
    rng = random.Random(1)
    texts["small1"], texts["small2"] = docs.warped(1, rng), docs.warped(2, rng)
    texts["flat2"] = docs.warped(2, rng, warp=False)
    texts["malformed"], _ = docs.malformed(rng)
    return texts


def document_argvs(doc: str) -> list[list[str]]:
    """Every argv the corpus runs on one document."""
    argvs = []
    for fmt in FORMATS:
        for sel in SELECTIONS:
            argvs.append(["check", doc, "--format", fmt] + (["--select", sel] if sel else []))
        argvs.append(["solve", doc, "--format", fmt])
        argvs.extend(["condition", doc, "--kind", kind, "--format", fmt] for kind in KINDS)
    return argvs


def corpus(scratch: Path) -> dict[str, list[str]]:
    """key -> argv.  A key names a file by its path under the checkout, or
    `perfbench/<name>` for a generated document, which is written into
    `scratch`; the argv holds the path that is read."""
    paths = {}
    for folder in ("manifolds", "tests/data", "tests/data/malformed"):
        for path in sorted((ROOT / folder).glob("*.pk")):
            paths[path.relative_to(ROOT).as_posix()] = str(path)
    for name, text in perfbench_documents().items():
        path = scratch / f"{name}.pk"
        path.write_text(text, encoding="utf-8")
        paths[f"perfbench/{name}"] = str(path)
    cases = {}
    for key, path in paths.items():
        for argv in document_argvs(path):
            cases[" ".join(key if a == path else a for a in argv)] = argv
    for n in (0, 1, 2, 3, 4, 5, 33):
        argv = ["factors", "--n", str(n)]
        cases[" ".join(argv)] = argv
    return cases


def run(argv: list[str]) -> dict:
    """Exit code and the digests of stdout and stderr of one in-process call."""
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2)]
    with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
        code = cli.main(argv)
    digests = []
    for stream in streams:
        stream.flush()
        digests.append(hashlib.sha256(stream.buffer.getvalue()).hexdigest())
    return {"exit": code, "stdout": digests[0], "stderr": digests[1]}


def test_every_output_is_the_recorded_one(tmp_path):
    want = json.loads(RECORD.read_text(encoding="utf-8"))
    cases = corpus(tmp_path)
    assert sorted(cases) == sorted(want)
    changed = [key for key, argv in cases.items() if run(argv) != want[key]]
    assert not changed, changed


def _record(scratch: Path) -> None:
    cases = corpus(scratch)
    lines = [f"{json.dumps(key)}: {json.dumps(run(cases[key]))}" for key in sorted(cases)]
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _record(Path(scratch))
