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


def test_perfbench_trace_counts_the_kv_cache_of_a_request(monkeypatch):
    # perfbench/run.py --trace 1 labels a forward pass prefill or step by its
    # past_kv and sums the bytes of the (k, v) pairs aux["kv"] yields
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    from chamtoy.decoder import DecodePolicy, generate_stream
    from chamtoy.model import ModelConfig, init_params
    from chamtoy.tokenizer import MixedVocab

    vocab = MixedVocab(n_text=256, n_image=8)
    cfg = ModelConfig(vocab_size=vocab.total, d_model=16, n_layers=2, n_heads=2, n_kv_heads=1,
                      ffn_hidden=32, max_seq=32)
    params = init_params(cfg, seed=0)
    pol = DecodePolicy(block_len=4, mode="image-only")
    tracer = tracing.Tracer()
    workloads.install_spans(tracer)
    try:
        with tracer.recording(), tracer.op_span("request", 0):
            *_, fin = generate_stream(params, cfg, [vocab.bos, 7, 9], pol, vocab)
    finally:
        tracer.restore()
    # the prompt's 3 positions, BOI and 3 of the 4 codes, at 8 bytes for
    # each of head_dim 8 in one key and one value head, in 2 layers
    fed = len(fin.tokens) - 2
    assert fed == 7
    assert tracer.counters[("decoder.kv_bytes", 0)] == fed * 8 * 8 * 2 * 2
    totals = tracer.totals()
    assert totals[("model.forward", "prefill")][2] == 1
    assert totals[("model.forward", "step")][2] == fed - 3
