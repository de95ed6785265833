"""Per-node timings of the training step at the toy preset's float32 shapes.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/test_nodes.py \
        --benchmark-only --benchmark-json=nodes.json

Each fused node of ``chamtoy.numerics``, ``chamtoy.layers`` and
``chamtoy.objective`` (and AdamW from the trainer) is timed on the inputs
one toy-preset step hands it: batch 8 x 64, d_model 64, 4 query and 4
key/value heads of width 16, SwiGLU width 128 and a 700-token vocabulary,
in float32 as ``train_loop`` computes.  A node's ``forward`` case builds the node from inputs that
require gradients, as training does; its ``backward`` case runs the
node's backward closure on a fixed upstream gradient, on a node built
afresh (untimed) from cleared input gradients each round.  The attention
node (from the q/k/v product to the merged heads) and the SwiGLU node
also have ``-decode`` cases: one row, the attention node's over a
13-position cache.  AdamW updates the float64 master weights of the whole
toy model.  ``train-step`` times whole ``train_loop`` steps of the toy
model: the float32 copy of the masters, both shards' forward and backward
(the second in the forked worker process where two CPUs are usable), the
float64 gradient sum, clipping, AdamW and the log row.  Each round is one
``train_loop`` call of STEPS_PER_CALL steps, so that the fork is spread
over its steps as in a real run; its ``extra_info`` holds the minimum,
median and IQR per step in ms.

The file sits outside ``testpaths``; ``tests/test_benchmarks.py`` runs it
once with ``--benchmark-disable`` (one untimed call per case), so a node
it times cannot be deleted or renamed unnoticed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from chamtoy.layers import KVCache, _attention_node, swiglu  # noqa: E402
from chamtoy.model import init_params, preset  # noqa: E402
from chamtoy.numerics import Tensor, embedding, normalize  # noqa: E402
from chamtoy.objective import total_loss  # noqa: E402
from chamtoy.trainer import OptimConfig, adamw_step, init_opt_state, train_loop  # noqa: E402

B, S, D, H, HD, FF, VOCAB = 8, 64, 64, 4, 16, 128, 700
F32 = np.float32


def _rng():
    return np.random.default_rng(0)


def _leaf(a):
    return Tensor(np.ascontiguousarray(a, dtype=F32), requires_grad=True)


def _heads(rng):
    """A [b, h, s, hd] view laid out as the attention node's head split
    leaves it, the layout its QK norm reads."""
    return rng.normal(size=(B, S, H, HD)).astype(F32).transpose(0, 2, 1, 3)


def _rope():
    """Two [S, HD] rotary tables.  Only their shape and dtype matter to the
    timing, so they are drawn here rather than taken from a revision's own
    rotary tables, whose layout may change."""
    c, s = _rng().uniform(-1.0, 1.0, size=(2, S, HD)).astype(F32)
    return c, s


def _case_embedding():
    rng = _rng()
    w = _leaf(rng.normal(0.0, 0.02, size=(VOCAB, D)))
    ids = rng.integers(0, VOCAB, size=(B, S))
    return (lambda: embedding(w, ids)), [w]


def _case_matmul():
    rng = _rng()
    x, w = _leaf(rng.normal(size=(B, S, D))), _leaf(rng.normal(0.0, 0.02, size=(D, FF)))
    return (lambda: x @ w), [x, w]


def _case_matmul_qkv():
    """The fused query, key and value projection, [512, 64] @ [64, 192]."""
    rng = _rng()
    x, w = _leaf(rng.normal(size=(B, S, D))), _leaf(rng.normal(0.0, 0.02, size=(D, 3 * D)))
    return (lambda: x @ w), [x, w]


def _case_normalize_rms():
    rng = _rng()
    x, g = _leaf(rng.normal(size=(B, S, D))), _leaf(np.ones(D))
    return (lambda: normalize(x, g, 1e-5, center=False)), [x, g]


def _case_normalize_qk():
    x, g = Tensor(_heads(_rng()), requires_grad=True), _leaf(np.ones(HD))
    return (lambda: normalize(x, g, 1e-5, center=True)), [x, g]


def _case_attention(rows=(B, S), cached=0):
    """The attention node, QK norm on, from a [b, s, 3 d] q/k/v product.
    With a cache, each call writes its row into a cache object of its own
    over the same buffers, so every round sees `cached` positions."""
    c, s = _rope()
    rng = _rng()
    qkv = _leaf(rng.normal(size=rows + (3 * D,)))
    q_gain, k_gain = _leaf(np.ones(HD)), _leaf(np.ones(HD))
    k, v = rng.normal(size=(2, 1, H, cached + 1, HD)).astype(F32)

    def node():
        cache = KVCache(k, v, cached) if cached else None
        return _attention_node(qkv, H, H, c, s, q_gain, k_gain, 1e-5, cache)[0]

    return node, [qkv, q_gain, k_gain]


def _case_swiglu(rows=(B, S)):
    rng = _rng()
    x = _leaf(rng.normal(size=rows + (D,)))
    w_gate, w_up = (_leaf(rng.normal(0.0, 0.02, size=(D, FF))) for _ in range(2))
    w_down = _leaf(rng.normal(0.0, 0.02, size=(FF, D)))
    return (lambda: swiglu(x, w_gate, w_up, w_down)), [x, w_gate, w_up, w_down]


def _case_total_loss():
    rng = _rng()
    logits = _leaf(rng.normal(size=(B, S, VOCAB)))
    targets = rng.integers(0, VOCAB, size=B * S)
    mask = np.ones(B * S)
    return (lambda: total_loss(logits, targets, mask, 1e-5).total), [logits]


CASES = {
    "embedding": _case_embedding,
    "matmul": _case_matmul,
    "matmul-qkv": _case_matmul_qkv,
    "normalize-rms": _case_normalize_rms,
    "normalize-qk": _case_normalize_qk,
    "attention": _case_attention,
    "attention-decode": lambda: _case_attention(rows=(1, 1), cached=13),
    "swiglu": _case_swiglu,
    "swiglu-decode": lambda: _case_swiglu(rows=(1, 1)),
    "total_loss": _case_total_loss,
}


@pytest.mark.parametrize("name", CASES)
def test_forward(benchmark, name):
    node, _ = CASES[name]()
    out = benchmark(node)
    assert out.data.dtype == F32


@pytest.mark.parametrize("name", CASES)
def test_backward(benchmark, name):
    node, inputs = CASES[name]()
    out = node()
    g = np.ones_like(out.data) if out.ndim == 0 else _rng().normal(size=out.shape).astype(F32)

    def fresh():
        # a graph of its own for each round, untimed: a backward closure may
        # consume what its forward saved (total_loss writes its gradient into
        # its exponentials), so it runs once
        for t in inputs:
            t.grad = None
        return (node(),), {}

    def reverse(out):
        out._backward_fn(g)

    benchmark.pedantic(reverse, setup=fresh, rounds=300, warmup_rounds=10)
    assert all(t.grad is not None and t.grad.dtype == F32 for t in inputs)


def test_adamw_step(benchmark):
    cfg = preset("toy", vocab_size=VOCAB)
    params = init_params(cfg, seed=0)
    rng = _rng()
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    state = init_opt_state(params)
    benchmark(adamw_step, params, state, 1e-3)
    assert state["t"] > 0


STEPS_PER_CALL = 8


def test_train_step(benchmark):
    cfg = preset("toy", vocab_size=VOCAB)
    params = init_params(cfg, seed=0)
    ids = _rng().integers(0, VOCAB, size=(B, S + 1))
    mask = np.ones((B, S))
    opt_cfg = OptimConfig(lr=1e-3, warmup_steps=1, total_steps=10**9)
    state = init_opt_state(params)

    def steps():
        t = state["t"]
        train_loop(params, cfg, opt_cfg, lambda step, rng: (ids[:, :-1], ids[:, 1:], mask),
                   start_step=t, end_step=t + STEPS_PER_CALL, opt_state=state)

    benchmark(steps)
    assert state["t"] >= STEPS_PER_CALL
    assert all(p.grad.dtype == np.float64 for p in params.values())
    if benchmark.stats is not None:  # None under --benchmark-disable
        per_call = benchmark.stats.stats
        benchmark.extra_info.update({f"step_ms_{key}": getattr(per_call, key) * 1e3 / STEPS_PER_CALL
                                     for key in ("min", "median", "iqr")})
