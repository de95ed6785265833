"""Optimizer, schedules, divergence monitoring, and the training loop.

Determinism contract: every step derives its own generator from
(seed, step), and optimizer state plus parameters are the only carried
state.  A run checkpointed at step k and resumed reproduces the
uninterrupted run bit for bit.  Each batch is split into SHARDS fixed row
ranges whose gradients are summed in shard order.  Shard 0 runs on the
calling thread.  Shard 1 runs in a child process that train_loop forks
for the call, where that is safe and pays (see `_forks`), and otherwise
inline after shard 0.  Each shard's arithmetic is the same in either
process, and neither the shard count nor any generator depends on the
CPU count or on which path ran, so no output does either.
"""

from __future__ import annotations

import csv
import math
import mmap
import multiprocessing
import os
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import ModelConfig, model_forward
from .numerics import Tensor
from .objective import total_loss


# the paper's one optimizer recipe (arXiv 2405.09818 §2.3): AdamW, clipping
# at a global norm, and a schedule that ends at FINAL_LR_FRACTION of its peak
BETA1 = 0.9
BETA2 = 0.95
EPS = 1e-5
WEIGHT_DECAY = 0.1
CLIP_NORM = 1.0
FINAL_LR_FRACTION = 0.01


@dataclass
class OptimConfig:
    lr: float = 1e-4
    warmup_steps: int = 4000
    total_steps: int = 10000
    schedule: str = "exp-decay"  # or "cosine"

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be non-negative, got {self.warmup_steps}")
        if self.schedule not in ("exp-decay", "cosine"):
            raise ValueError(f"schedule must be exp-decay or cosine, got {self.schedule!r}")
        if self.warmup_steps >= self.total_steps:
            raise ValueError(f"warmup_steps must be below total_steps, "
                             f"got {self.warmup_steps} and {self.total_steps}")


def init_opt_state(params: dict[str, Tensor]) -> dict:
    return {
        "m": {k: np.zeros_like(v.data) for k, v in params.items()},
        "v": {k: np.zeros_like(v.data) for k, v in params.items()},
        "t": 0,
    }


def lr_at(step: int, cfg: OptimConfig) -> float:
    """Linear warmup, then decay to FINAL_LR_FRACTION of the peak.

    exp-decay multiplies by a constant factor per step so the floor is
    reached exactly on the last step; cosine follows half a cosine wave
    between the same endpoints.
    """
    if step < cfg.warmup_steps:
        return cfg.lr * (step + 1) / cfg.warmup_steps
    span = cfg.total_steps - cfg.warmup_steps
    progress = min((step - cfg.warmup_steps + 1) / span, 1.0)
    if cfg.schedule == "exp-decay":
        return cfg.lr * FINAL_LR_FRACTION ** progress
    floor = cfg.lr * FINAL_LR_FRACTION
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


def adamw_step(params: dict[str, Tensor], state: dict, lr: float) -> None:
    """One decoupled-weight-decay Adam update.

    Decay is applied to the weights first, then the moment update; only
    matrices (ndim >= 2) are decayed, norm gains are left alone.
    """
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if p.data.ndim >= 2:
            p.data *= 1.0 - lr * WEIGHT_DECAY
        m = state["m"][name]
        v = state["v"][name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


# ----------------------------------------------------------------------
# divergence monitor
# ----------------------------------------------------------------------

MONITOR_DECAY = 0.99
MONITOR_SLOPE = 1e-3
MONITOR_WINDOW = 100


@dataclass
class DivergenceMonitor:
    """Flags sustained exponential growth of the final-layer output norm.

    Tracks an exponentially weighted average of log(rms) (MONITOR_DECAY);
    when its per-step slope stays above MONITOR_SLOPE for MONITOR_WINDOW
    consecutive steps the trace is declared divergent.  The latch never resets.
    """

    ewma: float | None = field(default=None, init=False)
    run_length: int = field(default=0, init=False)
    steps_seen: int = field(default=0, init=False)
    diverged_at: int | None = field(default=None, init=False)

    def update(self, output_rms: float) -> bool:
        if not np.isfinite(output_rms) or output_rms <= 0.0:
            # a non-finite norm is divergence by definition
            self.run_length = MONITOR_WINDOW
            if self.diverged_at is None:
                self.diverged_at = self.steps_seen
            self.steps_seen += 1
            return True
        x = math.log(output_rms)
        if self.ewma is None:
            self.ewma = x
        else:
            prev = self.ewma
            self.ewma = MONITOR_DECAY * prev + (1.0 - MONITOR_DECAY) * x
            if self.ewma - prev > MONITOR_SLOPE:
                self.run_length += 1
            else:
                self.run_length = 0
            if self.run_length >= MONITOR_WINDOW and self.diverged_at is None:
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

# loss.csv's columns in order, each with the type load_log reads it back as
LOG_COLUMNS = {"step": int, "ce": float, "z_loss": float, "lr": float,
               "grad_norm": float, "output_rms": float, "diverged": int}
LOG_FIELDS = tuple(LOG_COLUMNS)


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
    """The generator of one step: batch_fn draws from it first, then it
    draws one integer seed per shard for that shard's dropout generator,
    SHARDS of them whatever the batch size, so every draw depends on
    (seed, step) alone, in either process."""
    return np.random.default_rng((seed, step))


# fixed row ranges per batch; a constant, so that no output depends on the
# machine a run happens on
SHARDS = 2


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forks() -> bool:
    """Whether train_loop runs shard 1 in a forked child process.

    Only with a second usable CPU, and only from a process with one native
    thread: forking a multi-threaded process is unsafe, and a live BLAS
    pool makes the two shards' GEMMs fight over the CPUs.  The thread
    count is read from /proc, so elsewhere than Linux shard 1 runs inline.
    A daemonic multiprocessing worker (a Pool's) may not start children.
    """
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return False
    return ("fork" in multiprocessing.get_all_start_methods() and _usable_cpus() > 1
            and threads == 1 and not multiprocessing.current_process().daemon)


def _shard_pass(weights, model_cfg, inputs, targets, mask, share, seed):
    """One shard's forward, and its loss and backward when its mask selects
    tokens, in float32 on leaves of its own over the shared `weights`;
    dropout draws from `default_rng(seed)`.

    `share` is the shard's part of the batch's masked tokens and weights
    its loss, so that the shards' terms and gradients sum to those of the
    batch's masked mean.  Returns the float32 gradients (None for a shard
    without tokens), share * ce, share * z_loss and the sum of squares of
    the hidden state the monitor reads.
    """
    # non-finite values are the monitor's to flag, not numpy's to warn about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        learns = share > 0.0
        leaves = {k: Tensor(w, requires_grad=learns) for k, w in weights.items()}
        logits, aux = model_forward(leaves, model_cfg, inputs, rng=np.random.default_rng(seed),
                                    training=True)
        sum_sq = float(np.sum(np.square(aux["hidden"].data, dtype=np.float64)))
        # so that the backward frees the logits and each layer's cache as it goes
        del aux
        if not learns:
            return None, 0.0, 0.0, sum_sq
        breakdown = total_loss(logits, targets, mask=mask, z_coeff=model_cfg.z_coeff)
        del logits
        # a float32 factor, so that the weighting node stays float32 too
        (breakdown.total * np.float32(share)).backward()
        return ({k: leaf.grad for k, leaf in leaves.items()},
                share * breakdown.cross_entropy, share * breakdown.z_loss, sum_sq)


def _serve(conn, parent_end, weights, grads, model_cfg) -> None:
    """The child's loop: one shard pass per job received, its gradients
    written into `grads`, until the parent closes its end of the pipe."""
    parent_end.close()  # or the pipe would never read EOF here
    # the child writes nothing: a warning its shard raises is the parent's
    # to print, from its own shard
    sys.stdout = sys.stderr = None
    try:
        while True:
            job = conn.recv()
            try:
                shard_grads, ce, z, sum_sq = _shard_pass(weights, model_cfg, *job)
                names = None if shard_grads is None else [
                    k for k, g in shard_grads.items() if g is not None]
                for k in names or ():
                    np.copyto(grads[k], shard_grads[k])
                reply = (names, ce, z, sum_sq)
            except Exception as exc:
                reply = exc
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the parent is done, or gone


class _ShardWorker:
    """Shard 1 of every step of one train_loop call, in a forked child.

    The float32 weights and the child's float32 gradients are arrays in
    one anonymous shared mapping, which the child inherits.  A pipe
    carries each step's shard to the child, and back the names of the
    gradients it wrote, share * ce, share * z_loss and the sum of squares,
    or the exception it raised.  The pipe's order is the only
    synchronisation: the parent reads a step's gradients before it sends
    the next step, and writes the weights only between the two.
    """

    def __init__(self, params: dict[str, Tensor], model_cfg: ModelConfig):
        # each array starts on a 64-byte line
        spans = [-(-p.data.size // 16) * 16 for p in params.values()]
        flat = np.frombuffer(mmap.mmap(-1, 4 * 2 * sum(spans)), dtype=np.float32)
        self.weights, self.grads = {}, {}
        offset = 0
        for table in (self.weights, self.grads):
            for (k, p), span in zip(params.items(), spans):
                table[k] = flat[offset:offset + p.data.size].reshape(p.data.shape)
                offset += span
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._process = ctx.Process(
            target=_serve, args=(child_end, self._conn, self.weights, self.grads, model_cfg),
            name="chamtoy-shard", daemon=True)
        # the child starts with SIGINT blocked and keeps it so: Ctrl-C is the
        # parent's to handle, and the child leaves when the parent closes the pipe
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self._process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            child_end.close()

    def send(self, job: tuple) -> None:
        self._conn.send(job)

    def receive(self) -> tuple:
        """The result of the job sent last, as `_shard_pass` returns it."""
        try:
            reply = self._conn.recv()
        except EOFError:
            self._process.join()
            raise ChildProcessError(f"the shard worker process exited with code "
                                    f"{self._process.exitcode}") from None
        if isinstance(reply, BaseException):
            raise reply
        names, ce, z, sum_sq = reply
        grads = None if names is None else {k: self.grads[k] if k in names else None
                                            for k in self.grads}
        return grads, ce, z, sum_sq

    def close(self) -> None:
        self._conn.close()  # the child reads EOF once its job is done, and exits
        self._process.join()


def _run_shards(weights, model_cfg, jobs: list, worker: _ShardWorker | None) -> list:
    """Each shard's `_shard_pass` result in order: shard 0 here while shard
    1 runs in the worker, or both here when there is no worker."""
    if worker is None or len(jobs) == 1:
        return [_shard_pass(weights, model_cfg, *job) for job in jobs]
    zero, one = jobs
    worker.send(one)
    return [_shard_pass(weights, model_cfg, *zero), worker.receive()]


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
    all of its randomness from the rng it is handed.  Rows [0, ceil(b/2))
    and [ceil(b/2), b) of each batch are the two shards (one, for a batch
    of one row); each runs forward and backward in float32 over one copy
    of the float64 masters, and the gradient is shard 0's plus shard 1's.
    Shard 1 runs in a child process forked for the call where `_forks`
    allows it, and after shard 0 otherwise; no child outlives the call.
    Clipping, AdamW and the monitor then work in float64 on the sum.
    """
    if opt_state is None:
        opt_state = init_opt_state(params)
    if monitor is None:
        monitor = DivergenceMonitor()
    rows = []
    if end_step is None:
        end_step = opt_cfg.total_steps
    worker = _ShardWorker(params, model_cfg) if end_step > start_step and _forks() else None
    # one float32 copy of the masters, rewritten each step, which the shards share
    weights = worker.weights if worker else {
        k: np.empty(p.data.shape, np.float32) for k, p in params.items()}

    step = start_step
    try:
        for step in range(start_step, end_step):
            # the last step's float64 gradients stay on the masters for the
            # caller, and go before this step allocates
            for p in params.values():
                p.grad = None
            rng = step_rng(seed, step)
            inputs, targets, mask = map(np.asarray, batch_fn(step, rng))
            seeds = rng.integers(2**63, size=SHARDS)
            n_masked = float(mask.sum())
            if not n_masked > 0.0:
                raise ValueError("loss mask selects no tokens")
            cuts = [-(-len(inputs) * i // SHARDS) for i in range(SHARDS + 1)]

            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for k, p in params.items():
                    np.copyto(weights[k], p.data, casting="same_kind")
                jobs = [(inputs[lo:hi], targets[lo:hi], mask[lo:hi],
                         float(mask[lo:hi].sum()) / n_masked, shard_seed)
                        for lo, hi, shard_seed in zip(cuts, cuts[1:], seeds) if hi > lo]
                grads, ces, z_losses, sum_sqs = zip(*_run_shards(weights, model_cfg, jobs, worker))
                # the first learning shard's gradient upcast, plus the others' in order
                first, *rest = [shard for shard in grads if shard is not None]
                for k, p in params.items():
                    if first[k] is not None:
                        p.grad = first[k].astype(np.float64)
                        for shard in rest:
                            p.grad += shard[k]
                grad_norm = clip_global_norm(params, CLIP_NORM)
                lr = lr_at(step, opt_cfg)
                adamw_step(params, opt_state, lr)

            row = {
                "step": step,
                "ce": sum(ces),
                "z_loss": sum(z_losses),
                "lr": lr,
                "grad_norm": grad_norm,
                "output_rms": math.sqrt(sum(sum_sqs) / (inputs.size * model_cfg.d_model)),
            }
            # so that no array of this step is live during the next one's forward
            del jobs, grads, first, rest
            diverged = monitor.observe(row)
            row["diverged"] = int(diverged)
            rows.append(row)
            if halt_on_divergence and diverged:
                break
    finally:
        if worker is not None:
            worker.close()  # no process outlives the call

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
    """The rows of a `save_log` file; ValueError for a header or a row of
    another width, naming the file and line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != LOG_FIELDS:
            raise ValueError(f"unexpected log columns in {path}")
        rows = []
        for row in reader:
            # DictReader keys extra values by None and fills missing ones with None
            if None in row or None in row.values():
                raise ValueError(f"{path} line {reader.line_num}: expected "
                                 f"{len(LOG_FIELDS)} comma-separated values")
            rows.append({key: kind(row[key]) for key, kind in LOG_COLUMNS.items()})
        return rows
