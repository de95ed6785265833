"""The node timing harness keeps running: benchmarks/test_nodes.py sits
outside testpaths, so a refactor that deletes or renames a node it times
fails here rather than at the next timing run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_node_benchmarks_run_once_untimed():
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         str(ROOT / "benchmarks" / "test_nodes.py")],
        capture_output=True, text=True, cwd=ROOT, env=env,
    )
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]
