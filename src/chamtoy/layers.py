"""Transformer building blocks: norms, SwiGLU, rotary embeddings, attention.

Everything here is a pure function over Tensors; parameters are passed in
explicitly so the model module can own naming and checkpointing.
"""

from __future__ import annotations

import numpy as np

from .numerics import Tensor, concat


def rms_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis.

    out = x / sqrt(mean(x^2) + eps) * gain.  As eps -> 0 the output rows
    have root-mean-square exactly 1 before the gain is applied.
    """
    ms = (x * x).mean(axis=-1, keepdims=True)
    return x * ((ms + eps) ** -0.5) * gain


def layer_norm(x: Tensor, gain: Tensor, eps: float = 1e-5) -> Tensor:
    """Mean-subtracting layer normalization over the last axis (no bias)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * ((var + eps) ** -0.5) * gain


def silu(x: Tensor) -> Tensor:
    return x * x.sigmoid()


def swiglu(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor) -> Tensor:
    """Gated feed-forward: down(silu(x @ w_gate) * (x @ w_up))."""
    return (silu(x @ w_gate) * (x @ w_up)) @ w_down


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) at train time."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability out of range: {p}")
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(keep)


def rope_tables(head_dim: int, max_len: int, base: float = 10000.0):
    """Cosine/sine tables for rotary position embeddings.

    Frequencies follow base^(-2i/head_dim) for pair index i; returns two
    float arrays of shape [max_len, head_dim // 2].
    """
    if head_dim % 2 != 0:
        raise ValueError("rotary embeddings need an even head dimension")
    inv_freq = base ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    angles = np.arange(max_len, dtype=np.float64)[:, None] * inv_freq[None, :]
    return np.cos(angles), np.sin(angles)


def apply_rope(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate consecutive channel pairs of x by position-dependent angles.

    x has shape [..., seq, head_dim]; cos/sin rows must cover seq.  The
    rotation is orthogonal, so vector norms are preserved exactly up to
    rounding.
    """
    *lead, seq, head_dim = x.shape
    if cos.shape[0] < seq:
        raise ValueError("rotary table shorter than sequence")
    c = Tensor(cos[:seq])
    s = Tensor(sin[:seq])
    x1 = x[..., 0::2]
    x2 = x[..., 1::2]
    r1 = x1 * c - x2 * s
    r2 = x1 * s + x2 * c
    paired = concat(
        [r1.reshape(*lead, seq, head_dim // 2, 1), r2.reshape(*lead, seq, head_dim // 2, 1)],
        axis=-1,
    )
    return paired.reshape(*x.shape)


def causal_mask(seq: int) -> np.ndarray:
    """Boolean [seq, seq] mask, True strictly above the diagonal."""
    return np.triu(np.ones((seq, seq), dtype=bool), k=1)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[batch, seq, n*hd] -> [batch, n, seq, hd]."""
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def merge_heads(x: Tensor) -> Tensor:
    """[batch, n, seq, hd] -> [batch, seq, n*hd]."""
    b, n, s, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, n * hd)


def _rotated_qk(x, wq, wk, n_heads, n_kv_heads, cos, sin, q_gain, k_gain, norm_eps, offset):
    """Split-head queries and keys, layer-normalized when gains are given,
    then rotated for positions starting at offset."""
    q = split_heads(x @ wq, n_heads)
    k = split_heads(x @ wk, n_kv_heads)
    if q_gain is not None:
        q = layer_norm(q, q_gain, eps=norm_eps)
    if k_gain is not None:
        k = layer_norm(k, k_gain, eps=norm_eps)
    return apply_rope_at(q, cos, sin, offset), apply_rope_at(k, cos, sin, offset)


def attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    n_heads: int,
    n_kv_heads: int,
    cos: np.ndarray,
    sin: np.ndarray,
    q_gain: Tensor | None = None,
    k_gain: Tensor | None = None,
    norm_eps: float = 1e-5,
    past_kv: tuple[Tensor, Tensor] | None = None,
):
    """Causal multi-head attention with grouped key/value heads.

    When q_gain/k_gain are given, queries and keys are layer-normalized per
    head before the rotary rotation, which bounds each attention logit by
    sqrt(head_dim) regardless of input scale.

    past_kv carries rotated key/value tensors from earlier positions; the
    new tokens are appended and the full (k, v) pair is returned alongside
    the output so callers can decode incrementally.
    """
    if n_heads % n_kv_heads != 0:
        raise ValueError("query head count must be a multiple of kv head count")
    b, s, d = x.shape
    head_dim = d // n_heads
    offset = 0 if past_kv is None else past_kv[0].shape[2]
    q, k = _rotated_qk(x, wq, wk, n_heads, n_kv_heads, cos, sin, q_gain, k_gain, norm_eps, offset)
    v = split_heads(x @ wv, n_kv_heads)

    if past_kv is not None:
        k = concat([past_kv[0], k], axis=2)
        v = concat([past_kv[1], v], axis=2)
    kv = (k, v)

    if n_kv_heads != n_heads:
        k = k.repeat_interleave(n_heads // n_kv_heads, axis=1)
        v = v.repeat_interleave(n_heads // n_kv_heads, axis=1)

    total = k.shape[2]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(head_dim))
    mask = causal_mask(total)[total - s:, :]
    if mask.any():
        scores = scores.masked_fill(np.broadcast_to(mask, scores.shape), -np.inf)
    probs = scores.softmax(axis=-1)
    out = merge_heads(probs @ v) @ wo
    return out, kv


def apply_rope_at(x: Tensor, cos: np.ndarray, sin: np.ndarray, offset: int) -> Tensor:
    """Rotary rotation for tokens whose absolute positions start at offset."""
    seq = x.shape[-2]
    return apply_rope(x, cos[offset:offset + seq], sin[offset:offset + seq])


def attention_logits(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    n_heads: int,
    n_kv_heads: int,
    cos: np.ndarray,
    sin: np.ndarray,
    q_gain: Tensor | None = None,
    k_gain: Tensor | None = None,
    norm_eps: float = 1e-5,
) -> Tensor:
    """Pre-softmax attention scores, exposed for norm-growth diagnostics."""
    head_dim = x.shape[-1] // n_heads
    q, k = _rotated_qk(x, wq, wk, n_heads, n_kv_heads, cos, sin, q_gain, k_gain, norm_eps, 0)
    if n_kv_heads != n_heads:
        k = k.repeat_interleave(n_heads // n_kv_heads, axis=1)
    return (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(head_dim))
