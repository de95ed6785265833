"""Transformer building blocks: norms, SwiGLU, rotary embeddings, attention.

Everything here is a pure function over Tensors; parameters are passed in
explicitly so the model module can own naming and checkpointing.
"""

from __future__ import annotations

import functools

import numpy as np

from .numerics import Tensor, attend, gated_silu, normalize, rotate_pairs


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
    """Gated feed-forward: down(silu(x @ w_gate) * (x @ w_up))."""
    return gated_silu(x @ w_gate, x @ w_up) @ w_down


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
    """Rotary tables C and S of shape [max_len, head_dim] for `apply_rope_at`.

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


def split_heads(x: Tensor, n_heads: int, start: int = 0, stop: int | None = None) -> Tensor:
    """Columns start:stop of [batch, seq, width] -> [batch, n, seq, hd], a
    strided view, as one node.  Its backward adds into that column range of
    x's gradient, so the heads of one fused q/k/v product share one buffer."""
    b, s, _ = x.shape
    cols = x.data[..., start:stop]
    d = cols.shape[-1]
    index = (Ellipsis, slice(start, stop))

    def backward_fn(g):
        x._accumulate_slice(index, g.transpose(0, 2, 1, 3).reshape(b, s, d))

    return x._make(cols.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3), (x,),
                   backward_fn)


def merge_heads(x: Tensor) -> Tensor:
    """[batch, n, seq, hd] -> [batch, seq, n*hd] as one node."""
    b, n, s, hd = x.shape

    def backward_fn(g):
        x._accumulate(g.reshape(b, s, n, hd).transpose(0, 2, 1, 3))

    return x._make(x.data.transpose(0, 2, 1, 3).reshape(b, s, n * hd), (x,), backward_fn)


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

    Returns the output and a `KVCache` of every position so far, so callers
    can decode incrementally.  past_kv holds the earlier positions; the new
    ones are written into its buffers, in place when they have room and
    otherwise into a copy with exactly enough, and attention reads the
    filled prefix.  The cache carries no graph in any mode, so no gradient
    flows through it: training never passes one, and decoding runs on
    frozen parameter views.
    """
    if n_heads % n_kv_heads != 0:
        raise ValueError("query head count must be a multiple of kv head count")
    offset = 0 if past_kv is None else past_kv.length
    qkv = x @ wqkv
    kv = qkv.shape[-1] // (n_heads + 2 * n_kv_heads) * n_kv_heads
    d = qkv.shape[-1] - 2 * kv
    q = apply_rope_at(split_heads(qkv, n_heads, 0, d), rope_c, rope_s, offset, q_gain, norm_eps)
    k = apply_rope_at(split_heads(qkv, n_kv_heads, d, d + kv), rope_c, rope_s, offset, k_gain,
                      norm_eps)
    v = split_heads(qkv, n_kv_heads, d + kv)

    if past_kv is None:
        cache = KVCache(k.data, v.data, k.shape[2])
    else:
        t = offset + k.shape[2]
        cache = past_kv if t <= past_kv.k.shape[2] else past_kv.with_capacity(t)
        cache.k[:, :, offset:t], cache.v[:, :, offset:t] = k.data, v.data
        cache.length = t
        k, v = cache

    return merge_heads(attend(q, k, v)) @ wo, cache


def apply_rope_at(x: Tensor, c: np.ndarray, s: np.ndarray, offset: int,
                  gain: Tensor | None = None, eps: float = 1e-5) -> Tensor:
    """Rotate x [..., seq, head_dim] by `rope_tables`' rows for the absolute
    positions offset .. offset + seq - 1.  The rotation is orthogonal, so
    vector norms are preserved up to rounding.  With `gain`, x is first
    layer-normalized (the QK norm) in the same node."""
    seq = x.shape[-2]
    if c.shape[0] < offset + seq:
        raise ValueError("rotary table shorter than sequence")
    c, s = c[offset:offset + seq], s[offset:offset + seq]
    if gain is None:
        return rotate_pairs(x, c, s)
    return normalize(x, gain, eps, center=True, rotate=(c, s))
