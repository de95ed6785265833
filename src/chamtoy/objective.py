"""Training objective: masked cross-entropy plus a softmax-normalizer penalty.

The penalty term is coeff * mean(log^2 Z) where Z is the softmax partition
function per token.  Cross-entropy is invariant to shifting all logits by a
constant; log Z is not, so the penalty anchors the normalizer near 1 and
keeps logit magnitudes from drifting during long runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, pick


@dataclass
class LossBreakdown:
    total: Tensor
    cross_entropy: Tensor
    z_loss: Tensor
    n_tokens: int


def _flatten(logits: Tensor, targets, mask):
    if logits.ndim == 3:
        b, s, v = logits.shape
        logits = logits.reshape(b * s, v)
    elif logits.ndim != 2:
        raise ValueError(f"logits must be rank 2 or 3, got shape {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if targets.shape[0] != logits.shape[0]:
        raise ValueError("targets do not match logits rows")
    if mask is None:
        mask = np.ones(targets.shape[0], dtype=logits.data.dtype)
    else:
        mask = np.asarray(mask, dtype=logits.data.dtype).reshape(-1)
        if mask.shape[0] != targets.shape[0]:
            raise ValueError("mask does not match targets")
    if mask.sum() == 0:
        raise ValueError("loss mask selects no tokens")
    return logits, targets, mask


def _masked_mean(per_token: Tensor, mask: np.ndarray) -> Tensor:
    return (per_token * Tensor(mask)).sum() * (1.0 / float(mask.sum()))


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-likelihood over tokens where mask is 1.

    Masked positions contribute exactly zero to both the value and the
    gradient, so frozen prompt tokens cannot leak into the update.
    """
    logits, targets, mask = _flatten(logits, targets, mask)
    nll = -pick(logits.log_softmax(axis=-1), targets)
    return _masked_mean(nll, mask)


def z_loss(logits: Tensor, mask=None, coeff: float = 1e-5) -> Tensor:
    """coeff * mean(log^2 Z) over unmasked tokens, Z = sum(exp(logits))."""
    if mask is None:
        flat = logits.reshape(-1, logits.shape[-1]) if logits.ndim == 3 else logits
        mask_arr = np.ones(flat.shape[0], dtype=logits.data.dtype)
    else:
        flat, _, mask_arr = _flatten(logits, np.zeros(np.asarray(mask).size), mask)
    log_z = flat.logsumexp(axis=-1)
    return _masked_mean(log_z * log_z, mask_arr) * coeff


def total_loss(logits: Tensor, targets, mask=None, z_coeff: float = 1e-5) -> LossBreakdown:
    """Cross-entropy plus normalizer penalty under one shared mask."""
    flat, targets, mask_arr = _flatten(logits, targets, mask)
    ce = cross_entropy(flat, targets, mask_arr)
    zl = z_loss(flat, mask_arr, coeff=z_coeff)
    return LossBreakdown(
        total=ce + zl,
        cross_entropy=ce,
        z_loss=zl,
        n_tokens=int(mask_arr.sum()),
    )
