"""Training objective, `total_loss`: masked cross-entropy plus the penalty
z_coeff * mean(log^2 Z), Z the softmax partition function per token.

Cross-entropy is invariant to shifting all logits by a constant; log Z is
not, so the penalty anchors the normalizer near 1 and keeps logit
magnitudes from drifting during long runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor


@dataclass
class LossBreakdown:
    total: Tensor
    cross_entropy: float
    z_loss: float


def total_loss(logits: Tensor, targets, mask=None, z_coeff: float = 1e-5) -> LossBreakdown:
    """Mean cross-entropy plus normalizer penalty over tokens where mask is 1,
    as one autodiff node.

    Masked positions contribute exactly zero to both the value and the
    gradient, so frozen prompt tokens cannot leak into the update.  Only
    `total` carries the graph; the two parts are plain floats.  z_coeff 0
    leaves out the z term.  One max-shifted exponential feeds both: the
    log-probability keeps the form shifted - log(sum), so integer logits
    shifted by an integer give a bit-identical cross-entropy, and log Z is
    max + log(sum).
    """
    if logits.ndim not in (2, 3):
        raise ValueError(f"logits must be rank 2 or 3, got shape {logits.shape}")
    rows = logits.size // logits.shape[-1]
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if targets.shape[0] != rows:
        raise ValueError("targets do not match logits rows")
    if np.any(targets < 0) or np.any(targets >= logits.shape[-1]):
        raise IndexError("target id out of vocabulary range")
    mask = np.ones(rows) if mask is None else np.asarray(mask, dtype=np.float64).reshape(-1)
    if mask.shape[0] != rows:
        raise ValueError("mask does not match logits rows")
    if mask.sum() == 0:
        raise ValueError("loss mask selects no tokens")
    flat = logits.data.reshape(rows, -1)
    mask = mask.astype(flat.dtype, copy=False)
    per_row = 1.0 / float(mask.sum())
    top = flat.max(axis=-1)
    soft = flat - top[:, None]
    index = np.arange(rows)
    picked = soft[index, targets]
    np.exp(soft, out=soft)
    sums = soft.sum(axis=-1)
    log_sums = np.log(sums)
    ce = float((-(picked - log_sums) * mask).sum() * per_row)
    log_z = top + log_sums
    z = float((log_z * log_z * mask).sum() * per_row * z_coeff) if z_coeff else 0.0

    def backward_fn(g):
        # per row: weight * (softmax - onehot) for the cross-entropy,
        # weight * 2 z_coeff log Z * softmax for the z term
        # g as a Python float, so a 0-d g cannot set the gradient's dtype
        weight = mask * (float(g) * per_row)
        row = 1.0 + (2.0 * z_coeff * log_z if z_coeff else 0.0)
        # soft holds the unnormalized exponentials: 1 / sums turns them into
        # the softmax, in place, since a released closure never runs again
        grad = soft
        grad *= (weight * row / sums)[:, None]
        grad[index, targets] -= weight
        logits._take(grad.reshape(logits.shape))

    total = logits._make(np.array(ce + z, dtype=flat.dtype), (logits,), backward_fn)
    return LossBreakdown(total, ce, z)
