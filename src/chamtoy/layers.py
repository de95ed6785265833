"""Transformer building blocks: norms, SwiGLU, rotary embeddings, attention.

Everything here is a pure function over Tensors; parameters are passed in
explicitly so the model module can own naming and checkpointing.  The
norms, SwiGLU and attention also take plain arrays, as decoding passes
them: they then run the same kernels and return arrays, and build no node.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import (
    Tensor, attend_backward, attend_forward, gain_gradient, matmul, normalize,
    normalize_backward, normalize_forward, turn, turn_back,
)


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis.

    out = x / sqrt(mean(x^2) + eps) * gain.  As eps -> 0 the output rows
    have root-mean-square exactly 1 before the gain is applied.
    """
    return normalize(x, gain, eps, center=False)


def layer_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Mean-subtracting layer normalization over the last axis (no bias)."""
    return normalize(x, gain, eps, center=True)


def swiglu(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    """Gated feed-forward down(silu(x @ w_gate) * (x @ w_up)), as one node.

    The three products are 2-d GEMMs over x's leading axes folded into
    rows, as `Tensor.__matmul__` runs them.  The sigmoid comes from a
    single exp(-|a|) pass: sigmoid(a) = max(e, [a >= 0]) / (1 + e) with
    e = exp(-|a|), the numerator picked by a max against the 0/1 sign
    indicator instead of a masked select, which numpy runs an order of
    magnitude slower on an unpredictable sign pattern.  The backward adds
    the gate's and then the up's gradient into x's one at a time: summing
    the two first would round differently.  On an array x (the weights
    arrays too) this is the output's array.
    """
    arrays = type(x) is np.ndarray
    xd, wg, wu, wd = ((x, w_gate, w_up, w_down) if arrays
                      else (x.data, w_gate.data, w_up.data, w_down.data))
    x2 = xd.reshape(-1, xd.shape[-1])
    a = x2 @ wg
    b = x2 @ wu
    e = np.exp(-np.abs(a))
    sig = np.maximum(e, a >= 0)
    e += 1.0
    sig /= e
    del e
    gate = a * sig * b
    n = wd.shape[1]
    out = (gate @ wd).reshape(xd.shape[:-1] + (n,))
    if arrays:
        return out

    def backward_fn(g):
        g2 = g.reshape(-1, n)
        g_gate = g2 @ wd.T
        if w_down.requires_grad:
            w_down._take(gate.T @ g2)
        ga = g_gate * b * sig * (1.0 + a * (1.0 - sig))
        gb = g_gate * (a * sig)
        if x.requires_grad:
            x._take((ga @ wg.T).reshape(xd.shape))
            x._take((gb @ wu.T).reshape(xd.shape))
        if w_gate.requires_grad:
            w_gate._take(x2.T @ ga)
        if w_up.requires_grad:
            w_up._take(x2.T @ gb)

    return x._make(out, (x, w_gate, w_up, w_down), backward_fn)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) at train time."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability out of range: {p}")
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(keep)


@functools.lru_cache(maxsize=16)
def rope_tables(head_dim: int, max_len: int, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Rotary tables C and S of shape [max_len, head_dim] for `numerics.turn`.

    Pair i at position p turns by p * 10000^(-2i/head_dim).  C holds that
    angle's cosine in both channels of the pair and S its sine, negated in
    the first, so x*C + x[..., swap]*S maps (x[2i], x[2i+1]) to
    (x[2i]*cos - x[2i+1]*sin, x[2i]*sin + x[2i+1]*cos).  The angles are
    computed in float64 and the tables cast once to `dtype`; they are
    cached per argument and read-only.
    """
    if head_dim % 2 != 0:
        raise ValueError("rotary embeddings need an even head dimension")
    inv_freq = 10000.0 ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    angles = np.arange(max_len, dtype=np.float64)[:, None] * inv_freq[None, :]
    c = np.repeat(np.cos(angles), 2, axis=-1).astype(dtype)
    s = np.repeat(np.sin(angles), 2, axis=-1).astype(dtype)
    s[:, 0::2] *= -1
    c.flags.writeable = s.flags.writeable = False
    return c, s


class KVCache:
    """One layer's rotated keys and values, for incremental decoding.

    k and v are [batch, kv_heads, capacity, head_dim] buffers whose first
    `length` positions are filled.  `attention` writes each call's new
    positions at `length` and advances it, in place while the buffers
    have room (`with_capacity` makes room ahead).  Iterating gives the
    filled part as a (k, v) pair of Tensors.
    """

    __slots__ = ("k", "v", "length")

    def __init__(self, k: np.ndarray, v: np.ndarray, length: int):
        self.k, self.v, self.length = k, v, length

    def __iter__(self):
        t = self.length
        return iter((Tensor(self.k[:, :, :t]), Tensor(self.v[:, :, :t])))

    def with_capacity(self, capacity: int) -> "KVCache":
        """A cache of `capacity` positions holding a copy of the filled part."""
        t = self.length
        k, v = (np.empty(a.shape[:2] + (capacity,) + a.shape[3:], a.dtype)
                for a in (self.k, self.v))
        k[:, :, :t], v[:, :, :t] = self.k[:, :, :t], self.v[:, :, :t]
        return KVCache(k, v, t)


def attention(
    x: Tensor,
    wqkv: Tensor,
    wo: Tensor,
    n_heads: int,
    n_kv_heads: int,
    rope_c: np.ndarray,
    rope_s: np.ndarray,
    q_gain: Tensor | None = None,
    k_gain: Tensor | None = None,
    norm_eps: float = 1e-5,
    past_kv: KVCache | None = None,
):
    """Causal multi-head attention with grouped key/value heads.

    wqkv is the query, key and value projections side by side, of widths
    n_heads * hd, n_kv_heads * hd and n_kv_heads * hd, so that one GEMM
    makes all three (the fused projection of Megatron-LM, arXiv 1909.08053).

    When q_gain/k_gain are given, queries and keys are layer-normalized per
    head before the rotary rotation, which bounds each attention logit by
    sqrt(head_dim) regardless of input scale.

    Between the two weight products, everything is one node
    (`_attention_node`): the head split, the QK norm and rotation of q and
    k, the cache write, the softmax-attention and the head merge.

    Returns the output and a `KVCache` of every position so far, so callers
    can decode incrementally.  past_kv holds the earlier positions; the new
    ones are written into its buffers, in place when they have room and
    otherwise into a copy with exactly enough, and attention reads the
    filled prefix.  The cache carries no graph in any mode: the positions
    it held before the call are constants, and the gradient reaches this
    call's queries, keys and values alone.  Training never passes one, and
    decoding passes arrays, on which this returns the output's array.
    """
    if n_heads % n_kv_heads != 0:
        raise ValueError("query head count must be a multiple of kv head count")
    merged, cache = _attention_node(matmul(x, wqkv), n_heads, n_kv_heads, rope_c, rope_s,
                                    q_gain, k_gain, norm_eps, past_kv)
    return matmul(merged, wo), cache


def _attention_node(qkv: Tensor, n_heads: int, n_kv_heads: int, rope_c: np.ndarray,
                    rope_s: np.ndarray, q_gain: Tensor | None, k_gain: Tensor | None,
                    norm_eps: float, past_kv: KVCache | None):
    """The fused q/k/v product [b, s, d + 2 kv] -> the merged heads
    [b, s, d] and the cache, as one node.  The arithmetic is that of
    `normalize_forward`, `turn` and `attend_forward`; the backward runs
    their backward kernels and writes the query, key and value gradients
    once each into their column ranges of one buffer shaped as qkv.  On an
    array qkv (the gains arrays too) it returns the merged heads' array."""
    arrays = type(qkv) is np.ndarray
    data = qkv if arrays else qkv.data
    offset = 0 if past_kv is None else past_kv.length
    b, s, width = data.shape
    hd = width // (n_heads + 2 * n_kv_heads)
    c, sn = _rope_rows(rope_c, rope_s, offset, s)
    # [b, heads, s, hd] views of the q, k and v column ranges
    heads = data.reshape(b, s, -1, hd).transpose(0, 2, 1, 3)
    kv_end = n_heads + n_kv_heads
    q, q_saved = _qk_forward(heads[:, :n_heads], q_gain, norm_eps, c, sn)
    k, k_saved = _qk_forward(heads[:, n_heads:kv_end], k_gain, norm_eps, c, sn)
    v = heads[:, kv_end:]

    if past_kv is None:
        # on arrays the values get memory of their own, so that the q/k/v
        # product they view is freed when this returns, not with the cache
        cache = KVCache(k, v.copy() if arrays else v, s)
    else:
        t = offset + s
        cache = past_kv if t <= past_kv.k.shape[2] else past_kv.with_capacity(t)
        cache.k[:, :, offset:t], cache.v[:, :, offset:t] = k, v
        cache.length = t
        k, v = cache.k[:, :, :t], cache.v[:, :, :t]
    out, exps, sums = attend_forward(q, k, v)
    merged = out.transpose(0, 2, 1, 3).reshape(b, s, n_heads * hd)
    if arrays:
        return merged, cache

    # not 20 cells: CPython 3.11 never reuses a freed closure tuple of exactly
    # 20 from its free list, so a run of forward passes would pile up one per
    # call there
    def backward_fn(g):
        gq, gk, gv = attend_backward(g.reshape(b, s, n_heads, hd).transpose(0, 2, 1, 3),
                                     q, k, v, exps, sums)
        # the keys and values of this call's positions, the last s of t
        gq = _qk_backward(gq, q_gain, q_saved, c, sn)
        gk = _qk_backward(gk[:, :, offset:], k_gain, k_saved, c, sn)
        if qkv.requires_grad:
            grad = np.empty_like(qkv.data)
            grad_heads = grad.reshape(b, s, -1, hd).transpose(0, 2, 1, 3)
            grad_heads[:, :n_heads] = gq
            grad_heads[:, n_heads:kv_end] = gk
            grad_heads[:, kv_end:] = gv[:, :, offset:]
            qkv._take(grad)

    parents = tuple([t for t in (qkv, q_gain, k_gain) if t is not None])
    return qkv._make(merged, parents, backward_fn), cache


def _rope_rows(c: np.ndarray, s: np.ndarray, offset: int, seq: int):
    """`rope_tables`' rows for the absolute positions offset .. offset + seq - 1."""
    if c.shape[0] < offset + seq:
        raise ValueError(f"rotary table of {c.shape[0]} positions is shorter than the "
                         f"{offset + seq} positions needed")
    return c[offset:offset + seq], s[offset:offset + seq]


def _qk_forward(x: np.ndarray, gain, eps: float, c: np.ndarray, s: np.ndarray):
    """Queries or keys, layer-normalized first when there is a gain (a
    Tensor or an array), then rotated: (out, saved), saved the norm's
    (unit, inv), or None without a gain."""
    if gain is None:
        return turn(np.ascontiguousarray(x), c, s), None
    out, unit, inv = normalize_forward(x, gain if type(gain) is np.ndarray else gain.data,
                                       eps, True)
    return turn(out, c, s), (unit, inv)


def _qk_backward(g: np.ndarray, gain: Tensor | None, saved, c: np.ndarray,
                 s: np.ndarray) -> np.ndarray:
    """The gradient into `_qk_forward`'s x; the gain's goes to the gain."""
    g = turn_back(g, c, s)
    if gain is None:
        return g
    unit, inv = saved
    if gain.requires_grad:
        gain._take(gain_gradient(g, unit))
    return normalize_backward(g, gain.data, unit, inv, True)


def apply_rope_at(x: Tensor, c: np.ndarray, s: np.ndarray, offset: int) -> Tensor:
    """Rotate x [..., seq, head_dim] by `rope_tables`' rows for the absolute
    positions offset .. offset + seq - 1, as one node.  The rotation is
    orthogonal, so vector norms are preserved up to rounding.  Attention
    rotates its queries and keys inside its own node with the same
    `turn`, so this is the rotation alone, on a tensor of any layout."""
    c, s = _rope_rows(c, s, offset, x.shape[-2])

    def backward_fn(g):
        x._take(turn_back(g, c, s))

    return x._make(turn(np.ascontiguousarray(x.data), c, s), (x,), backward_fn)
