"""Optimizer, schedules, divergence monitoring, and the training loop.

Determinism contract: every step derives its own generator from
(seed, step), and optimizer state plus parameters are the only carried
state.  A run checkpointed at step k and resumed reproduces the
uninterrupted run bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import ModelConfig, model_forward
from .numerics import Tensor
from .objective import total_loss


@dataclass
class OptimConfig:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.95
    eps: float = 1e-5
    weight_decay: float = 0.1
    clip_norm: float = 1.0
    warmup_steps: int = 4000
    total_steps: int = 10000
    schedule: str = "exp-decay"  # or "cosine"
    final_lr_fraction: float = 0.01

    def __post_init__(self):
        for name in ("lr", "eps", "clip_norm"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and non-negative, got {self.weight_decay}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {self.warmup_steps}")
        if self.schedule not in ("exp-decay", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not 0 < self.final_lr_fraction <= 1:
            raise ValueError("final_lr_fraction must be in (0, 1]")
        if self.warmup_steps >= self.total_steps:
            raise ValueError("warmup must be shorter than the run")


def init_opt_state(params: dict[str, Tensor]) -> dict:
    return {
        "m": {k: np.zeros_like(v.data) for k, v in params.items()},
        "v": {k: np.zeros_like(v.data) for k, v in params.items()},
        "t": 0,
    }


def lr_at(step: int, cfg: OptimConfig) -> float:
    """Linear warmup, then decay to final_lr_fraction of the peak.

    exp-decay multiplies by a constant factor per step so the floor is
    reached exactly on the last step; cosine follows half a cosine wave
    between the same endpoints.
    """
    if step < cfg.warmup_steps:
        return cfg.lr * (step + 1) / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    progress = min((step - cfg.warmup_steps + 1) / span, 1.0)
    if cfg.schedule == "exp-decay":
        return cfg.lr * cfg.final_lr_fraction ** progress
    floor = cfg.lr * cfg.final_lr_fraction
    return floor + 0.5 * (cfg.lr - floor) * (1.0 + math.cos(math.pi * progress))


def clip_global_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


def adamw_step(params: dict[str, Tensor], state: dict, lr: float, cfg: OptimConfig) -> None:
    """One decoupled-weight-decay Adam update.

    Decay is applied to the weights first, then the moment update; only
    matrices (ndim >= 2) are decayed, norm gains are left alone.
    """
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if cfg.weight_decay > 0.0 and p.data.ndim >= 2:
            p.data *= 1.0 - lr * cfg.weight_decay
        m = state["m"][name]
        v = state["v"][name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


# ----------------------------------------------------------------------
# divergence monitor
# ----------------------------------------------------------------------


@dataclass
class DivergenceMonitor:
    """Flags sustained exponential growth of the final-layer output norm.

    Tracks an exponentially weighted average of log(rms); when its
    per-step slope stays above slope_threshold for window consecutive
    steps the trace is declared divergent.  The latch never resets.
    """

    decay: float = 0.99
    slope_threshold: float = 1e-3
    window: int = 100
    ewma: float | None = None
    run_length: int = 0
    steps_seen: int = 0
    diverged_at: int | None = None

    def update(self, output_rms: float) -> bool:
        if not np.isfinite(output_rms) or output_rms <= 0.0:
            # a non-finite norm is divergence by definition
            self.run_length = self.window
            if self.diverged_at is None:
                self.diverged_at = self.steps_seen
            self.steps_seen += 1
            return True
        x = math.log(output_rms)
        if self.ewma is None:
            self.ewma = x
        else:
            prev = self.ewma
            self.ewma = self.decay * prev + (1.0 - self.decay) * x
            if self.ewma - prev > self.slope_threshold:
                self.run_length += 1
            else:
                self.run_length = 0
            if self.run_length >= self.window and self.diverged_at is None:
                self.diverged_at = self.steps_seen
        self.steps_seen += 1
        return self.diverged_at is not None

    def observe(self, row: dict) -> bool:
        """Update from one log row; a non-finite loss counts as a non-finite norm."""
        finite = math.isfinite(row["ce"]) and math.isfinite(row["z_loss"])
        return self.update(row["output_rms"] if finite else math.nan)

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None


# ----------------------------------------------------------------------
# training loop
# ----------------------------------------------------------------------

LOG_FIELDS = ("step", "ce", "z_loss", "lr", "grad_norm", "output_rms", "diverged")


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    opt_state: dict
    rows: list[dict]
    monitor: DivergenceMonitor
    final_step: int

    @property
    def diverged(self) -> bool:
        return self.monitor.diverged


def step_rng(seed: int, step: int) -> np.random.Generator:
    """The one generator for everything random inside a step."""
    return np.random.default_rng((seed, step))


def train_loop(
    params: dict[str, Tensor],
    model_cfg: ModelConfig,
    opt_cfg: OptimConfig,
    batch_fn,
    *,
    seed: int = 0,
    start_step: int = 0,
    end_step: int | None = None,
    opt_state: dict | None = None,
    monitor: DivergenceMonitor | None = None,
    halt_on_divergence: bool = False,
) -> TrainResult:
    """Run optimization steps [start_step, end_step).

    batch_fn(step, rng) must return (inputs, targets, loss_mask) and draw
    all of its randomness from the rng it is handed.
    """
    if opt_state is None:
        opt_state = init_opt_state(params)
    if monitor is None:
        monitor = DivergenceMonitor()
    rows = []
    if end_step is None:
        end_step = opt_cfg.total_steps

    step = start_step
    for step in range(start_step, end_step):
        # the last step's float64 gradients stay on the masters for the
        # caller, and go before this step allocates
        for p in params.values():
            p.grad = None
        rng = step_rng(seed, step)
        inputs, targets, mask = batch_fn(step, rng)

        # non-finite values are the monitor's to flag, not numpy's to warn about
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # forward and backward in float32 on copies of the float64 master
            # weights; clipping, AdamW and the monitor work in float64
            leaves = {k: Tensor(p.data.astype(np.float32), requires_grad=True)
                      for k, p in params.items()}
            logits, aux = model_forward(leaves, model_cfg, inputs, rng=rng, training=True)
            breakdown = total_loss(logits, targets, mask=mask, z_coeff=model_cfg.z_coeff)
            breakdown.total.backward()
            for k, p in params.items():
                g = leaves[k].grad
                p.grad = None if g is None else g.astype(np.float64)

            grad_norm = clip_global_norm(params, opt_cfg.clip_norm)
            lr = lr_at(step, opt_cfg)
            adamw_step(params, opt_state, lr, opt_cfg)
            hidden = aux["hidden"].data.astype(np.float64)
            output_rms = float(np.sqrt(np.mean(hidden * hidden)))

        row = {
            "step": step,
            "ce": float(breakdown.cross_entropy.data),
            "z_loss": float(breakdown.z_loss.data),
            "lr": lr,
            "grad_norm": grad_norm,
            "output_rms": output_rms,
        }
        # so that no array of this step is live during the next one's forward
        del logits, aux, breakdown, hidden
        diverged = monitor.observe(row)
        row["diverged"] = int(diverged)
        rows.append(row)
        if halt_on_divergence and diverged:
            break

    return TrainResult(
        params=params, opt_state=opt_state, rows=rows, monitor=monitor,
        final_step=step + 1 if end_step > start_step else start_step,
    )


def save_log(rows: list[dict], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=LOG_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def load_log(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != LOG_FIELDS:
            raise ValueError(f"unexpected log columns in {path}")
        out = []
        for row in reader:
            out.append({
                "step": int(row["step"]),
                "ce": float(row["ce"]),
                "z_loss": float(row["z_loss"]),
                "lr": float(row["lr"]),
                "grad_norm": float(row["grad_norm"]),
                "output_rms": float(row["output_rms"]),
                "diverged": int(row["diverged"]),
            })
        return out
