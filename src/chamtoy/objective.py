"""Training objective, `total_loss`: masked cross-entropy plus the penalty
z_coeff * mean(log^2 Z), Z the softmax partition function per token.

Cross-entropy is invariant to shifting all logits by a constant; log Z is
not, so the penalty anchors the normalizer near 1 and keeps logit
magnitudes from drifting during long runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, lm_loss


@dataclass
class LossBreakdown:
    total: Tensor
    cross_entropy: float
    z_loss: float


def total_loss(logits: Tensor, targets, mask=None, z_coeff: float = 1e-5) -> LossBreakdown:
    """Mean cross-entropy plus normalizer penalty over tokens where mask is 1.

    Masked positions contribute exactly zero to both the value and the
    gradient, so frozen prompt tokens cannot leak into the update.  Only
    `total` carries the graph; the two parts are plain floats.
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
    return LossBreakdown(*lm_loss(logits, targets, mask, z_coeff))
