"""Optimizer, schedules, divergence monitoring, and the training loop.

Determinism contract: every step derives its own generator from
(seed, step), and optimizer state plus parameters are the only carried
state.  A run checkpointed at step k and resumed reproduces the
uninterrupted run bit for bit.  Each batch is split into SHARDS fixed row
ranges whose gradients are summed, and the optimizer step into two fixed
halves of the parameters (`_halves`, ZeRO stage 1, arXiv 1910.02054).
Shard 0 and the first half run on the calling thread.  Shard 1 and the
second half run in a child process that train_loop forks for the call,
where that is safe and pays (`_forks`, FORK_MIN_STEPS), and otherwise
inline after shard 0 and the first half.  Each shard's and each half's
arithmetic is the same in either process, and the global norm sums the
parameters' squares in one order, so neither the shard count, the split
nor any generator depends on the CPU count or on which path ran, and no
output does either.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import math
import mmap
import multiprocessing
import os
import signal
import sys
from dataclasses import dataclass, field
from functools import cache, partial
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


def clip_global_norm(params: dict[str, Tensor | float], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the pre-clip norm.  A float in place of a tensor is the sum of
    squares of a gradient that another process holds and scales itself
    (the worker's half of a train_loop step): it counts, in its place.
    """
    total = 0.0
    for p in params.values():
        if isinstance(p, float):
            total += p
        elif p.grad is not None:
            total += _sum_of_squares(p.grad)
    norm = math.sqrt(total)
    _scale_to(params, norm, max_norm)
    return norm


def _sum_of_squares(grad: np.ndarray) -> float:
    return float(np.sum(grad * grad))


def _scale_to(params: dict, norm: float, max_norm: float) -> None:
    """Scale the tensors' gradients by max_norm / norm when norm exceeds max_norm."""
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if not isinstance(p, float) and p.grad is not None:
                p.grad *= scale


def adamw_step(params: dict[str, Tensor], state: dict, lr: float) -> None:
    """One decoupled-weight-decay Adam update.

    Decay is applied to the weights first, then the moment update; only
    matrices (ndim >= 2) are decayed, norm gains are left alone.  Each
    parameter's update is the textbook
    `data -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)`, in that order of
    operations, computed in place over two parameter-sized temporaries.
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
        scratch = np.multiply(g, 1.0 - BETA1)
        m += scratch
        np.multiply(g, 1.0 - BETA2, out=scratch)
        scratch *= g
        v *= BETA2
        v += scratch
        update = np.divide(m, bc1)
        update *= lr
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        update /= scratch
        p.data -= update


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
# a call of fewer steps runs inline: a fork costs more than one step saves
# (toy preset, batch 8 x 64: a forked one-step call took 1.36x the inline
# time, a two-step call 0.92x)
FORK_MIN_STEPS = 2
# glibc's allocator thresholds, set by the first train_loop call and kept
# for the whole process: with the defaults, glibc hands the free top of
# the caller's heap back to the kernel after each backward and faults it
# in again in the next (about 950 minor faults per toy step in a fresh
# process, which made the caller's pass, the forked step's critical path,
# about 1.4 ms slower than the worker's, and the inline step about 14%
# slower); blocks below MMAP_THRESHOLD come from the heap, and its top is
# trimmed once TRIM_THRESHOLD bytes of it are free
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt's parameters, from glibc's malloc.h


@cache
def _keep_heap() -> None:
    """Set glibc's trim and mmap thresholds, once per process; a no-op
    where the C library has no `mallopt`."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def _forks() -> bool:
    """Whether this process may run shard 1 in a forked child process.

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
    return ("fork" in multiprocessing.get_all_start_methods() and len(os.sched_getaffinity(0)) > 1
            and threads == 1 and not multiprocessing.current_process().daemon)


def _halves(params: dict[str, Tensor]) -> tuple[list[str], list[str]]:
    """The names whose update the calling process makes and those the
    worker makes: the prefix of `params` whose element count is nearest
    half the total (the shorter prefix on a tie), and the rest."""
    sizes = np.cumsum([p.data.size for p in params.values()])
    cut = int(np.argmin(np.abs(2 * sizes - sizes[-1]))) + 1
    names = list(params)
    return names[:cut], names[cut:]


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


class _Layout:
    """Where each parameter's arrays live for one train_loop call.

    The float64 master and AdamW moments are the caller's own arrays, and
    the float32 weights the shards read an array of the call; each step
    allocates its float64 gradient sums (`_Half.add`).  With a worker
    (`shared` a list of names), one anonymous shared mapping, which the
    forked worker inherits, holds instead the weights, the float32 shard
    gradients one process hands the other, every float64 gradient sum,
    and the master and moments of each name in `shared`; `hand_back`
    copies those masters and moments back into the caller's arrays.  Each
    array of the mapping starts on a 64-byte line.
    """

    def __init__(self, params: dict[str, Tensor], opt_state: dict, shared: list[str] | None):
        self.shared = shared or []
        mapped = [] if shared is None else [
            *((field, k, np.float32) for field in ("weights", "handed") for k in params),
            *((field, k, np.float64) for field in ("masters", "m", "v") for k in shared),
            *(("grad", k, np.float64) for k in params)]
        spans = [-(-params[k].data.size * np.dtype(dtype).itemsize // 64) * 64
                 for _, k, dtype in mapped]
        self.buffer = mmap.mmap(-1, sum(spans)) if mapped else None
        self.weights, self.handed, self.masters, self.m, self.v, self.grad = (
            {} for _ in range(6))
        for (field, k, dtype), offset in zip(mapped, np.cumsum([0, *spans]).tolist()):
            getattr(self, field)[k] = np.ndarray(params[k].data.shape, dtype, self.buffer, offset)
        for k, p in params.items():
            for table, own in ((self.masters, p.data), (self.m, opt_state["m"][k]),
                               (self.v, opt_state["v"][k])):
                if k in table:
                    np.copyto(table[k], own)
                else:
                    table[k] = own
            if k not in self.weights:
                self.weights[k] = np.empty(p.data.shape, np.float32)
            np.copyto(self.weights[k], p.data, casting="same_kind")

    def hand_back(self, params: dict[str, Tensor], opt_state: dict) -> None:
        """Copy the shared masters and moments into the caller's arrays."""
        for k in self.shared:
            np.copyto(params[k].data, self.masters[k])
            np.copyto(opt_state["m"][k], self.m[k])
            np.copyto(opt_state["v"][k], self.v[k])

    def hand_over(self, grads: dict | None, names: list[str]) -> list[str]:
        """Copy the shard gradients of `names` that exist into the handed
        arrays, for the other process; returns their names."""
        present = [k for k in names if grads is not None and grads[k] is not None]
        for k in present:
            np.copyto(self.handed[k], grads[k])
        return present

    def handed_over(self, names: list[str]) -> dict:
        return {k: self.handed[k] for k in names}


class _Half:
    """One process's part of the optimizer step: tensors over the layout's
    masters and float64 gradient sums for its names, and their AdamW state."""

    def __init__(self, layout: _Layout, names: list[str], t: int):
        self.layout = layout
        self.params = {k: Tensor(layout.masters[k]) for k in names}
        self.state = {"m": {k: layout.m[k] for k in names},
                      "v": {k: layout.v[k] for k in names}, "t": t}

    def clear(self) -> None:
        """Drop the last step's gradient sums, before this step allocates."""
        for p in self.params.values():
            p.grad = None

    def add(self, shard: dict | None) -> None:
        """Add one shard's float32 gradients into the float64 sums; the
        first shard added since `clear` is upcast, into the mapping for a
        shared name and into a new array otherwise.  The worker adds the
        shards in the other order, which gives the same sums, since a
        float64 addition commutes."""
        for k, p in self.params.items():
            g = shard.get(k) if shard is not None else None
            if g is None:
                continue
            if p.grad is not None:
                p.grad += g
            elif k in self.layout.grad:
                p.grad = self.layout.grad[k]
                np.copyto(p.grad, g)
            else:
                p.grad = g.astype(np.float64)

    def sums(self) -> dict[str, float]:
        """Each gradient's sum of squares, as clip_global_norm takes them."""
        return {k: _sum_of_squares(p.grad) for k, p in self.params.items() if p.grad is not None}

    def update(self, norm: float | None, lr: float) -> None:
        """Clip by the global `norm` unless clip_global_norm already did,
        run AdamW, and write the float32 weights the next step reads."""
        if norm is not None:
            _scale_to(self.params, norm, CLIP_NORM)
        adamw_step(self.params, self.state, lr)
        for k, p in self.params.items():
            np.copyto(self.layout.weights[k], p.data, casting="same_kind")


def _serve(conn, parent_end, layout: _Layout, half: _Half, other: list[str], model_cfg) -> None:
    """The child's loop, one step per job received, until the parent closes
    its end of the pipe: shard 1's pass, then the worker's half of the
    update, in the message order `_step` gives.  An exception is sent in
    place of the next message, and ends the steps."""
    parent_end.close()  # or the pipe would never read EOF here
    # the child writes nothing: a warning its shard raises is the parent's
    # to print, from its own shard
    sys.stdout = sys.stderr = None
    try:
        while True:
            job, lr = conn.recv()
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    grads, *result = (_shard_pass(layout.weights, model_cfg, *job) if job
                                      else (None, 0.0, 0.0, 0.0))
                    conn.send((layout.hand_over(grads, other), *result))
                    half.clear()
                    half.add(grads)
                    half.add(layout.handed_over(conn.recv()))
                    conn.send(half.sums())
                    half.update(conn.recv(), lr)
            except Exception as exc:
                conn.send(exc)
                while True:  # until the parent, which raises it, closes the pipe
                    conn.recv()
            conn.send(None)
    except (EOFError, OSError):
        pass  # the parent is done, or gone


class _ShardWorker:
    """Shard 1 and the second half of the update, for every step of one
    train_loop call, in a forked child.

    The child inherits the layout, so both processes read and write the
    same float32 weights, handed gradients, masters, moments and gradient
    sums.  Per step, the pipe carries shard 1's job and the learning rate,
    the names of the shard-0 gradients handed over, shard 1's result with
    the names it handed over, the child's sums of squares, the global
    norm, and an acknowledgement once the child's weights are written;
    or, in place of any reply, the exception the child raised.  The
    pipe's order is the only synchronisation.  The acknowledgement is
    read late (`acknowledge`): the next step reads it after it sends its
    job and before its shard 0 reads the weights, and the call's last one
    is read as the call ends, so the child's update overlaps the parent's
    bookkeeping.
    """

    def __init__(self, layout: _Layout, half: _Half, other: list[str], model_cfg: ModelConfig):
        self.unread = False  # whether the last step's acknowledgement is still in the pipe
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._process = ctx.Process(
            target=_serve, args=(child_end, self._conn, layout, half, other, model_cfg),
            name="chamtoy-shard", daemon=True)
        # the child starts with SIGINT blocked and keeps it so: Ctrl-C is the
        # parent's to handle, and the child leaves when the parent closes the pipe
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self._process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            child_end.close()

    def send(self, message) -> None:
        try:
            self._conn.send(message)
        except OSError:
            self._exited()

    def receive(self):
        """The child's next message; its exception is raised here."""
        try:
            reply = self._conn.recv()
        except (EOFError, OSError):
            self._exited()
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def acknowledge(self) -> None:
        """Read the last step's acknowledgement, unless it is read already:
        once it is, the child's half of the weights is written."""
        if self.unread:
            self.unread = False
            self.receive()

    def _exited(self):
        self._process.join()
        raise ChildProcessError(f"the shard worker process exited with code "
                                f"{self._process.exitcode}") from None

    def close(self) -> None:
        self._conn.close()  # the child reads EOF once its step is done, and exits
        self._process.join()


def _step(layout: _Layout, halves: list[_Half], model_cfg, jobs: list, lr: float,
          worker: _ShardWorker | None, ahead) -> tuple[list, float, object]:
    """One step's shard passes and update; returns each shard's share * ce,
    share * z_loss and hidden sum of squares, the pre-clip norm, and what
    `ahead` returned (None without it).

    Shard 0 and the first half of the update run here.  Shard 1 and the
    second half run in the worker, or here after the first.  Either way
    the global norm is clip_global_norm's, over the squares of every
    gradient in parameter order: the worker sends those of its half.
    `ahead`, the next step's draw, runs once shard 0's gradients are
    added, while the worker finishes shard 1.  This returns once the first
    half's weights are written; the worker's acknowledgement that its
    half's are is read by the next step, before its shard 0 reads them, or
    as the call ends.
    """
    mine, theirs = halves
    mine.clear()
    theirs.clear()
    zero, one = jobs if len(jobs) == SHARDS else (jobs[0], None)
    if worker is not None:
        worker.send((one, lr))
        worker.acknowledge()  # the last step's, since shard 0 reads the worker's half
    grads, *result = _shard_pass(layout.weights, model_cfg, *zero)
    results = [result]
    if worker is not None:
        worker.send(layout.hand_over(grads, list(theirs.params)))
    else:
        other, *result = _shard_pass(layout.weights, model_cfg, *one) if one else (None,)
    mine.add(grads)
    drawn = ahead() if ahead is not None else None
    if worker is not None:
        handed, *result = worker.receive()
        mine.add(layout.handed_over(handed))
        sums = worker.receive()
        for k, p in theirs.params.items():  # for the caller, after the last step
            p.grad = layout.grad[k] if k in sums else None
    else:
        mine.add(other)
        theirs.add(other)
        theirs.add(grads)
        sums = theirs.params  # clipped with the first half's
    if one:
        results.append(result)
    norm = clip_global_norm({**mine.params, **sums}, CLIP_NORM)
    if worker is not None:
        worker.send(norm)
    mine.update(None, lr)
    if worker is None:
        theirs.update(None, lr)
    else:
        worker.unread = True
    return results, norm, drawn


def _draw(batch_fn, seed: int, errors: dict, step: int):
    """Step `step`'s inputs and shard jobs, with batch_fn run in numpy's
    error state `errors`, or the exception that drawing them raised, to
    be raised at that step."""
    try:
        rng = step_rng(seed, step)
        with np.errstate(**errors):
            batch = batch_fn(step, rng)
        inputs, targets, mask = map(np.asarray, batch)
        seeds = rng.integers(2**63, size=SHARDS)
        n_masked = float(mask.sum())
        if not n_masked > 0.0:
            raise ValueError("loss mask selects no tokens")
        cuts = [-(-len(inputs) * i // SHARDS) for i in range(SHARDS + 1)]
        return inputs, [(inputs[lo:hi], targets[lo:hi], mask[lo:hi],
                         float(mask[lo:hi].sum()) / n_masked, shard_seed)
                        for lo, hi, shard_seed in zip(cuts, cuts[1:], seeds) if hi > lo]
    except Exception as exc:
        return exc


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
    all of its randomness from the rng it is handed.  It runs one step
    ahead: each step but the call's last draws the next step's batch while
    shard 1 finishes, so batch_fn is called once per step, in order, and
    never for end_step.  An exception it raises, or an empty loss mask,
    is raised in place of that batch's step, once the steps before it are
    done; a halt on divergence drops the batch drawn ahead.  Rows
    [0, ceil(b/2)) and [ceil(b/2), b) of each batch are the two shards
    (one, for a batch of one row); each runs forward and backward in
    float32 over one copy of the float64 masters, and the gradient is
    shard 0's plus shard 1's.  The update is split in two fixed halves of
    the parameters (`_halves`): each half sums its gradients, the global
    norm clips them, and AdamW updates them in float64.  Shard 1 and the
    second half run in a child process forked for the call when the call
    has at least FORK_MIN_STEPS steps and `_forks` allows it, and after
    shard 0 and the first half otherwise; no child outlives the call.
    The first call sets glibc's heap thresholds (MMAP_THRESHOLD,
    TRIM_THRESHOLD) for the rest of the process.  The masters and moments
    of the first half are the caller's arrays, updated in place.  With a
    child, the second half's live in a mapping the two processes share,
    and are copied back into the caller's arrays when the call ends, on
    every exit, once the child's last update is done; after the child dies
    in its update they may be torn.  The masters keep the last step's
    clipped float64 gradients, in arrays of their own.
    """
    if opt_state is None:
        opt_state = init_opt_state(params)
    if monitor is None:
        monitor = DivergenceMonitor()
    rows = []
    if end_step is None:
        end_step = opt_cfg.total_steps
    if end_step <= start_step:
        return TrainResult(params=params, opt_state=opt_state, rows=rows, monitor=monitor,
                           final_step=start_step)
    names = _halves(params)
    forks = end_step - start_step >= FORK_MIN_STEPS and _forks()
    _keep_heap()  # before any fork, so that the worker inherits it
    for p in params.values():
        p.grad = None  # the last call's, before this one allocates
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        layout = _Layout(params, opt_state, names[1] if forks else None)
    halves = [_Half(layout, half, opt_state["t"]) for half in names]
    worker = _ShardWorker(layout, halves[1], names[0], model_cfg) if forks else None

    try:
        # batch_fn runs in the caller's error state, also when drawn within a step
        draw = partial(_draw, batch_fn, seed, np.geterr())
        drawn = draw(start_step)
        for step in range(start_step, end_step):
            if isinstance(drawn, Exception):
                break
            inputs, jobs = drawn
            lr = lr_at(step, opt_cfg)
            ahead = partial(draw, step + 1) if step + 1 < end_step else None
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                results, grad_norm, drawn = _step(layout, halves, model_cfg, jobs, lr, worker,
                                                  ahead)
            ces, z_losses, sum_sqs = zip(*results)

            row = {
                "step": step,
                "ce": sum(ces),
                "z_loss": sum(z_losses),
                "lr": lr,
                "grad_norm": grad_norm,
                "output_rms": math.sqrt(sum(sum_sqs) / (inputs.size * model_cfg.d_model)),
            }
            diverged = monitor.observe(row)
            row["diverged"] = int(diverged)
            rows.append(row)
            if halt_on_divergence and diverged:
                drawn = None  # the batch drawn ahead, or its error, is dropped
                break
        if worker is not None:
            worker.acknowledge()  # an error of the last update comes first
        if isinstance(drawn, Exception):
            raise drawn
    finally:
        if worker is not None:
            with contextlib.suppress(Exception):  # another exception is leaving the call
                worker.acknowledge()
            worker.close()  # no process outlives the call
        # the caller's own arrays, not views of the mapping the child shared
        layout.hand_back(params, opt_state)
        for half in halves:
            for k, p in half.params.items():
                mapped = p.grad is not None and k in layout.grad
                params[k].grad = p.grad.copy() if mapped else p.grad
        opt_state["t"] = halves[0].state["t"]

    return TrainResult(params=params, opt_state=opt_state, rows=rows, monitor=monitor,
                       final_step=step + 1)


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
