"""Golden replay of the reduction commands: `reduce`, `sigma` and `verify-ap`.

`tests/golden/manifest.json` holds one entry per command: its argv, any
environment it sets, its exit code, its stdout, the first line of its
stderr and the sha256 of every file it wrote.  The replay copies
`tests/golden/inputs` into a fresh directory and runs every entry there in
order, in-process through `run_cli`, so a later `sigma` reads the trace an
earlier `reduce` wrote.  `tests/golden/regen.py` rebuilds the inputs and
the manifest; a change that moves an entry says which and why.
"""

import hashlib
import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from mine.cli import run_cli
from mine.solvers import BRUTE_LIMIT_ENV

GOLDEN = Path(__file__).parent / "golden"


def _snapshot() -> dict[str, str]:
    """sha256 of every file under the current directory, by relative path."""
    return {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path().rglob("*")) if p.is_file()}


def run_command(entry: dict) -> dict:
    """Run one manifest command in the current directory; the entry it yields."""
    env = entry.get("env", {})
    before = _snapshot()
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        code = run_cli(entry["argv"])
    written = {path: digest for path, digest in _snapshot().items()
               if before.get(path) != digest}
    return {"id": entry["id"], "argv": entry["argv"], **({"env": env} if env else {}),
            "exit": code, "stdout": out.getvalue(),
            "stderr": next(iter(err.getvalue().splitlines()), ""), "files": written}


def test_golden_replay(tmp_path, monkeypatch):
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    shutil.copytree(GOLDEN / "inputs", tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(BRUTE_LIMIT_ENV, raising=False)
    changed = [entry["id"] for entry in manifest if run_command(entry) != entry]
    assert changed == []
    assert len(manifest) > 40
