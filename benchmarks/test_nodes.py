"""Per-node timings of the training step at the toy preset's float32 shapes.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks/test_nodes.py \
        --benchmark-only --benchmark-json=nodes.json

Each fused node of ``chamtoy.numerics`` (and AdamW from the trainer) is
timed on the inputs one toy-preset step hands it: batch 8 x 64, d_model
64, 4 query and 4 key/value heads of width 16, SwiGLU width 128 and a
700-token vocabulary, in float32 as ``train_loop`` computes.  A node's
``forward`` case builds the node from inputs that require gradients, as
training does; its ``backward`` case runs the node's backward closure on
a fixed upstream gradient, from cleared input gradients each round.
AdamW updates the float64 master weights of the whole toy model.  The
head split and merge of ``chamtoy.layers`` are timed the same way; where a
revision builds one of them from several nodes, its backward case runs
each of their closures in turn.

The file sits outside ``testpaths``; ``tests/test_benchmarks.py`` runs it
once with ``--benchmark-disable`` (one untimed call per case), so a node
it times cannot be deleted or renamed unnoticed.  It uses only the node
entry points that have kept their signatures,
so the same file times any revision whose ``src/`` is on the path; on a
revision whose ``normalize`` takes no rotary tables, the QK norm-and-rotate
case times the norm and ``rotate_pairs`` as a chain of two nodes.
"""

from __future__ import annotations

import inspect
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from chamtoy.layers import causal_mask, merge_heads, split_heads  # noqa: E402
from chamtoy.model import init_params, preset  # noqa: E402
from chamtoy.numerics import (  # noqa: E402
    Tensor, attend, embedding, gated_silu, lm_loss, normalize, rotate_pairs,
)
from chamtoy.trainer import OptimConfig, adamw_step, init_opt_state  # noqa: E402

B, S, D, H, HD, FF, VOCAB = 8, 64, 64, 4, 16, 128, 700
F32 = np.float32


def _rng():
    return np.random.default_rng(0)


def _leaf(a):
    return Tensor(np.ascontiguousarray(a, dtype=F32), requires_grad=True)


def _heads(rng):
    """A [b, h, s, hd] view laid out as split_heads leaves it; the QK norm
    and v see this layout, RoPE and the queries and keys of attend a
    contiguous copy."""
    return rng.normal(size=(B, S, H, HD)).astype(F32).transpose(0, 2, 1, 3)


def _rope():
    """rotate_pairs' two [S, HD] tables.  Only their shape and dtype matter
    to the timing, so they are drawn here rather than taken from a
    revision's own rotary tables, whose layout may change."""
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


def _case_rotate_pairs():
    c, s = _rope()
    x = _leaf(_heads(_rng()))
    return (lambda: rotate_pairs(x, c, s)), [x]


def _case_split_heads():
    x = _leaf(_rng().normal(size=(B, S, D)))
    return (lambda: split_heads(x, H)), [x]


def _case_merge_heads():
    x = _leaf(_rng().normal(size=(B, H, S, HD)))
    return (lambda: merge_heads(x)), [x]


def _case_normalize_rms():
    rng = _rng()
    x, g = _leaf(rng.normal(size=(B, S, D))), _leaf(np.ones(D))
    return (lambda: normalize(x, g, 1e-5, center=False)), [x, g]


def _case_normalize_qk():
    x, g = Tensor(_heads(_rng()), requires_grad=True), _leaf(np.ones(HD))
    return (lambda: normalize(x, g, 1e-5, center=True)), [x, g]


def _case_normalize_qk_rotate():
    """The QK norm and its rotation: one node where ``normalize`` takes the
    rotary tables, and the norm then ``rotate_pairs`` where it does not."""
    c, s = _rope()
    x, g = Tensor(_heads(_rng()), requires_grad=True), _leaf(np.ones(HD))
    if "rotate" in inspect.signature(normalize).parameters:
        return (lambda: normalize(x, g, 1e-5, center=True, rotate=(c, s))), [x, g]
    return (lambda: rotate_pairs(normalize(x, g, 1e-5, center=True), c, s)), [x, g]


def _case_attend():
    rng = _rng()
    q, k = _leaf(_heads(rng)), _leaf(_heads(rng))
    v = Tensor(_heads(rng), requires_grad=True)
    mask = causal_mask(S, S)
    return (lambda: attend(q, k, v, mask)), [q, k, v]


def _case_gated_silu():
    rng = _rng()
    a, b = _leaf(rng.normal(size=(B, S, FF))), _leaf(rng.normal(size=(B, S, FF)))
    return (lambda: gated_silu(a, b)), [a, b]


def _case_lm_loss():
    rng = _rng()
    logits = _leaf(rng.normal(size=(B, S, VOCAB)))
    targets = rng.integers(0, VOCAB, size=B * S)
    mask = np.ones(B * S)
    return (lambda: lm_loss(logits, targets, mask, 1e-5)[0]), [logits]


CASES = {
    "embedding": _case_embedding,
    "matmul": _case_matmul,
    "matmul-qkv": _case_matmul_qkv,
    "rotate_pairs": _case_rotate_pairs,
    "split_heads": _case_split_heads,
    "merge_heads": _case_merge_heads,
    "normalize-rms": _case_normalize_rms,
    "normalize-qk": _case_normalize_qk,
    "normalize-qk-rotate": _case_normalize_qk_rotate,
    "attend": _case_attend,
    "gated_silu": _case_gated_silu,
    "lm_loss": _case_lm_loss,
}


@pytest.mark.parametrize("name", CASES)
def test_forward(benchmark, name):
    node, _ = CASES[name]()
    out = benchmark(node)
    assert out.data.dtype == F32


def _chain(out, inputs):
    """The nodes from out down to the inputs, out first: out alone for one
    fused node, and each node of a chain that a revision builds instead."""
    chain = [out]
    while not any(p is t for p in chain[-1]._parents for t in inputs):
        chain.append(chain[-1]._parents[0])
    return chain


@pytest.mark.parametrize("name", CASES)
def test_backward(benchmark, name):
    node, inputs = CASES[name]()
    out = node()
    g = np.ones_like(out.data) if out.ndim == 0 else _rng().normal(size=out.shape).astype(F32)
    inner = _chain(out, inputs)[1:]

    def clear():
        for t in inputs + inner:
            t.grad = None

    def reverse(g):
        out._backward_fn(g)
        for t in inner:
            t._backward_fn(t.grad)

    benchmark.pedantic(reverse, args=(g,), setup=clear, rounds=300, warmup_rounds=10)
    assert all(t.grad is not None and t.grad.dtype == F32 for t in inputs)


def test_adamw_step(benchmark):
    cfg = preset("toy", vocab_size=VOCAB)
    params = init_params(cfg, seed=0)
    rng = _rng()
    for p in params.values():
        p.grad = rng.normal(size=p.shape)
    state = init_opt_state(params)
    opt = OptimConfig(lr=1e-3)
    benchmark(adamw_step, params, state, 1e-3, opt)
    assert state["t"] > 0
