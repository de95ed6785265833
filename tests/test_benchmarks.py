"""The timing harnesses keep running: benchmarks/test_nodes.py sits outside
testpaths, and perfbench wraps library functions by name, so a refactor that
deletes or renames a node or a function they time fails here rather than at
the next timing run."""

import importlib
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


def test_perfbench_span_targets_resolve(monkeypatch):
    # perfbench/run.py --trace 1 wraps library functions by the names
    # install_spans gives; a deleted or renamed one would break only there
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    wrapped, unresolved = [], []

    class ResolvingTracer:
        """Looks each target up as the real tracer does, and wraps nothing."""

        def wrap(self, owner, attr, name, kind_of=None, on_result=None):
            try:
                target = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (KeyError, AttributeError):
                target = None
            wrapped.append(name)
            if not callable(target):
                unresolved.append(f"{getattr(owner, '__name__', owner)}.{attr} ({name})")

    workloads.install_spans(ResolvingTracer())
    assert unresolved == []
    assert len(wrapped) == 30
