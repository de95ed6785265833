import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chamtoy.data import MixtureSpec, PretrainBatcher
from chamtoy.model import (
    ModelConfig,
    NormStrategy,
    init_params,
    load_checkpoint,
    model_forward,
    preset,
    save_checkpoint,
)
from chamtoy.numerics import Tensor
from chamtoy.objective import total_loss
from chamtoy.trainer import (
    BETA1,
    BETA2,
    CLIP_NORM,
    EPS,
    FINAL_LR_FRACTION,
    LOG_FIELDS,
    SHARDS,
    WEIGHT_DECAY,
    DivergenceMonitor,
    OptimConfig,
    _forks,
    _shard_pass,
    adamw_step,
    clip_global_norm,
    init_opt_state,
    load_log,
    lr_at,
    save_log,
    step_rng,
    train_loop,
)


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------


def test_adamw_first_step_hand_value():
    # decay by 1 - lr * 0.1 first; then m_hat = 1, v_hat = 1 -> update = lr / (1 + eps)
    p = {"w": Tensor(np.array([[1.0]]), requires_grad=True)}
    p["w"].grad = np.array([[1.0]])
    state = init_opt_state(p)
    adamw_step(p, state, lr=0.1)
    expected = 1.0 * (1.0 - 0.1 * 0.1) - 0.1 / (1.0 + 1e-5)
    assert p["w"].data[0, 0] == pytest.approx(expected, abs=1e-12)
    assert state["t"] == 1


def test_weight_decay_is_decoupled_and_first():
    # zero gradient: the only change is the multiplicative decay
    p = {"w": Tensor(np.array([[2.0]]), requires_grad=True)}
    p["w"].grad = np.array([[0.0]])
    state = init_opt_state(p)
    adamw_step(p, state, lr=0.5)
    assert p["w"].data[0, 0] == pytest.approx(2.0 * (1.0 - 0.5 * 0.1), abs=1e-15)


def test_weight_decay_skips_gain_vectors():
    p = {"g": Tensor(np.array([2.0]), requires_grad=True)}
    p["g"].grad = np.array([0.0])
    state = init_opt_state(p)
    adamw_step(p, state, lr=0.5)
    assert p["g"].data[0] == 2.0


def test_adamw_defaults_match_recipe():
    assert (BETA1, BETA2) == (0.9, 0.95)
    assert EPS == 1e-5
    assert WEIGHT_DECAY == 0.1
    assert CLIP_NORM == 1.0
    assert FINAL_LR_FRACTION == 0.01
    assert OptimConfig().warmup_steps == 4000


def test_clip_global_norm():
    p = {
        "a": Tensor(np.zeros(1), requires_grad=True),
        "b": Tensor(np.zeros(1), requires_grad=True),
    }
    p["a"].grad = np.array([3.0])
    p["b"].grad = np.array([4.0])
    norm = clip_global_norm(p, 1.0)
    assert norm == pytest.approx(5.0, abs=1e-12)
    assert p["a"].grad[0] == pytest.approx(0.6, abs=1e-12)
    assert p["b"].grad[0] == pytest.approx(0.8, abs=1e-12)

    p["a"].grad = np.array([0.3])
    p["b"].grad = np.array([0.4])
    norm = clip_global_norm(p, 1.0)
    assert norm == pytest.approx(0.5, abs=1e-12)
    assert p["a"].grad[0] == 0.3  # under the cap: untouched


def test_grads_from_one_output_are_separate_buffers_clipped_once():
    # add's backward hands the same array to both parents
    p = {
        "a": Tensor(np.full((2, 3), 1.0), requires_grad=True),
        "b": Tensor(np.full((2, 3), 2.0), requires_grad=True),
    }
    out = p["a"] + p["b"]
    out.sum().backward()
    assert not np.shares_memory(p["a"].grad, p["b"].grad)
    assert not np.shares_memory(p["a"].grad, out.grad)
    assert not np.shares_memory(p["b"].grad, out.grad)
    norm = clip_global_norm(p, 1.0)
    assert norm == np.sqrt(12.0)
    expected = np.full((2, 3), 1.0 / np.sqrt(12.0))
    assert np.array_equal(p["a"].grad, expected)
    assert np.array_equal(p["b"].grad, expected)
    assert np.array_equal(out.grad, np.ones((2, 3)))


# ----------------------------------------------------------------------
# learning-rate schedule
# ----------------------------------------------------------------------


def test_warmup_is_linear_to_peak():
    cfg = OptimConfig(lr=1.0, warmup_steps=10, total_steps=110)
    assert lr_at(0, cfg) == pytest.approx(0.1)
    assert lr_at(4, cfg) == pytest.approx(0.5)
    assert lr_at(9, cfg) == pytest.approx(1.0)


def test_exp_decay_hits_floor_exactly_at_end():
    cfg = OptimConfig(lr=2.0, warmup_steps=10, total_steps=110)
    assert lr_at(109, cfg) == pytest.approx(2.0 * 0.01, rel=1e-12)
    mid = lr_at(59, cfg)
    assert mid == pytest.approx(2.0 * 0.01 ** 0.5, rel=1e-12)


def test_decay_is_monotone():
    cfg = OptimConfig(lr=1.0, warmup_steps=5, total_steps=60)
    values = [lr_at(s, cfg) for s in range(5, 60)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_cosine_schedule_endpoints():
    cfg = OptimConfig(lr=1.0, warmup_steps=5, total_steps=105, schedule="cosine")
    assert lr_at(4, cfg) == pytest.approx(1.0)
    assert lr_at(104, cfg) == pytest.approx(0.01, abs=1e-12)
    assert lr_at(5, cfg) < 1.0


def test_schedule_validation():
    with pytest.raises(ValueError, match="^schedule must be exp-decay or cosine, got 'linear'$"):
        OptimConfig(schedule="linear")
    with pytest.raises(ValueError, match="^warmup_steps must be below total_steps, got 100 and 100$"):
        OptimConfig(warmup_steps=100, total_steps=100)


# ----------------------------------------------------------------------
# divergence monitor
# ----------------------------------------------------------------------


def test_monitor_ignores_stable_noise():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mon = DivergenceMonitor()
        for _ in range(600):
            assert not mon.update(float(np.exp(rng.normal(0.0, 0.05))))
        assert not mon.diverged


def test_monitor_ignores_decaying_norms():
    mon = DivergenceMonitor()
    for t in range(500):
        mon.update(float(5.0 * np.exp(-0.002 * t)))
    assert not mon.diverged


def test_monitor_flags_one_percent_growth_within_200_steps():
    mon = DivergenceMonitor()
    flagged_at = None
    for t in range(400):
        if mon.update(float(np.exp(0.00995 * t))):
            flagged_at = t
            break
    assert flagged_at is not None and flagged_at <= 200


def test_monitor_requires_sustained_growth():
    # a single spike produces one large slope reading, not 100 in a row
    mon = DivergenceMonitor()
    for t in range(300):
        rms = 100.0 if t == 150 else 1.0
        mon.update(rms)
    assert not mon.diverged


def test_monitor_flags_nonfinite_immediately():
    mon = DivergenceMonitor()
    assert mon.update(float("nan"))
    assert mon.diverged


def test_monitor_latches():
    mon = DivergenceMonitor()
    for t in range(250):
        mon.update(float(np.exp(0.02 * t)))
    assert mon.diverged
    first = mon.diverged_at
    for _ in range(50):
        assert mon.update(1.0)  # norm back to sane, flag stays
    assert mon.diverged_at == first


# ----------------------------------------------------------------------
# training loop
# ----------------------------------------------------------------------


def tiny_setup(total_steps=20, seed=0, **cfg_kw):
    cfg = ModelConfig(**{
        **dict(vocab_size=48, d_model=16, n_layers=1, n_heads=2, n_kv_heads=2,
               ffn_hidden=32, max_seq=32),
        **cfg_kw,
    })
    docs_rng = np.random.default_rng(123)
    docs = {"text": [list(docs_rng.integers(0, 48, size=20)) for _ in range(8)]}
    batcher = PretrainBatcher(docs, MixtureSpec(stage1={"text": 1.0}), total_steps, 2, 12)
    opt = OptimConfig(lr=3e-3, warmup_steps=3, total_steps=total_steps)
    return cfg, opt, batcher.batch


def test_train_runs_and_logs_all_fields():
    cfg, opt, batch_fn = tiny_setup()
    params = init_params(cfg, seed=1)
    result = train_loop(params, cfg, opt, batch_fn, seed=5)
    assert result.final_step == 20
    assert len(result.rows) == 20
    assert tuple(result.rows[0]) == LOG_FIELDS
    for row in result.rows:
        assert np.isfinite(row["ce"]) and np.isfinite(row["grad_norm"])
    assert not result.diverged


def test_training_reduces_loss():
    cfg, opt, batch_fn = tiny_setup(total_steps=60)
    params = init_params(cfg, seed=2)
    result = train_loop(params, cfg, opt, batch_fn, seed=7)
    first = np.mean([r["ce"] for r in result.rows[:5]])
    last = np.mean([r["ce"] for r in result.rows[-5:]])
    assert last < first


def test_training_is_deterministic():
    cfg, opt, batch_fn = tiny_setup()
    r1 = train_loop(init_params(cfg, seed=3), cfg, opt, batch_fn, seed=9)
    r2 = train_loop(init_params(cfg, seed=3), cfg, opt, batch_fn, seed=9)
    for k in r1.params:
        assert np.array_equal(r1.params[k].data, r2.params[k].data)
    assert r1.rows == r2.rows


def test_resume_from_checkpoint_is_bit_exact(tmp_path):
    cfg, opt, batch_fn = tiny_setup(total_steps=16, dropout=0.1)

    straight = train_loop(init_params(cfg, seed=4), cfg, opt, batch_fn, seed=11)

    params = init_params(cfg, seed=4)
    half = train_loop(params, cfg, opt, batch_fn, seed=11, end_step=8)
    save_checkpoint(tmp_path / "ck", half.params, cfg,
                    opt_state=half.opt_state, step=half.final_step)
    loaded, cfg2, opt_state, step = load_checkpoint(tmp_path / "ck")
    resumed = train_loop(
        loaded, cfg2, opt, batch_fn, seed=11,
        start_step=step, opt_state=opt_state,
    )

    for k in straight.params:
        assert np.array_equal(straight.params[k].data, resumed.params[k].data), k


# each preset's overrides at tiny_setup's geometry; 34b-recipe's grouped
# KV heads are one per two query heads here, as its 2 are per 4 at toy size
PRESET_OVERRIDES = {
    "toy": {},
    "7b-recipe": dict(dropout=0.1),
    "34b-recipe": dict(n_kv_heads=1),
    "llama2-recipe": dict(z_coeff=0.0, qk_norm=False, norm_strategy=NormStrategy.PRE_NORM),
}
RESUME_STEPS = 8


@pytest.fixture(scope="module")
def uninterrupted_runs():
    """(preset, schedule) -> the setup and its one-leg reference run."""
    runs = {}
    for name, overrides in PRESET_OVERRIDES.items():
        for schedule in ("exp-decay", "cosine"):
            cfg, opt, batch_fn = tiny_setup(RESUME_STEPS, **overrides)
            opt = replace(opt, schedule=schedule)
            run = train_loop(init_params(cfg, seed=4), cfg, opt, batch_fn, seed=11)
            runs[name, schedule] = (cfg, opt, batch_fn, run)
    return runs


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_resume_at_any_step_is_bit_exact_on_every_preset(uninterrupted_runs, data):
    # params, AdamW moments and step count, and the log all match one
    # uninterrupted run, whichever step the checkpoint was written at
    for (name, schedule), (cfg, opt, batch_fn, straight) in uninterrupted_runs.items():
        split = data.draw(st.integers(1, RESUME_STEPS - 1), label=f"{name} {schedule} split")
        first = train_loop(init_params(cfg, seed=4), cfg, opt, batch_fn, seed=11,
                           end_step=split)
        with tempfile.TemporaryDirectory() as tmp:
            ck = Path(tmp) / "ck"
            save_checkpoint(ck, first.params, cfg, opt_state=first.opt_state,
                            step=first.final_step)
            loaded, cfg2, opt_state, step = load_checkpoint(ck)
        second = train_loop(loaded, cfg2, opt, batch_fn, seed=11,
                            start_step=step, opt_state=opt_state)
        assert first.rows + second.rows == straight.rows
        assert second.opt_state["t"] == straight.opt_state["t"] == RESUME_STEPS
        for k, p in straight.params.items():
            assert np.array_equal(second.params[k].data, p.data), k
            for moment in ("m", "v"):
                assert np.array_equal(second.opt_state[moment][k],
                                      straight.opt_state[moment][k]), (moment, k)


def test_step_rng_is_independent_of_history():
    a = step_rng(7, 3).integers(0, 1000, size=5)
    b = step_rng(7, 3).integers(0, 1000, size=5)
    c = step_rng(7, 4).integers(0, 1000, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_halt_on_divergence_stops_early():
    cfg, opt, batch_fn = tiny_setup(total_steps=30)
    params = init_params(cfg, seed=5)
    mon = DivergenceMonitor()
    mon.update(float("nan"))  # tripped before the first step
    result = train_loop(
        params, cfg, opt, batch_fn, seed=13,
        monitor=mon, halt_on_divergence=True,
    )
    assert result.diverged
    assert result.final_step < 30


def test_non_finite_loss_flags_divergence_at_its_own_step():
    cfg, opt, batch_fn = tiny_setup(total_steps=5)
    for halt in (False, True):
        params = init_params(cfg, seed=6)
        params["lm_head"].data[:, 3] = np.inf
        with np.errstate(all="ignore"):
            result = train_loop(
                params, cfg, opt, batch_fn, seed=15, halt_on_divergence=halt,
            )
        assert not np.isfinite(result.rows[0]["ce"])
        assert result.rows[0]["diverged"] == 1
        assert result.monitor.diverged_at == 0
        assert len(result.rows) == (1 if halt else 5)


def test_log_roundtrip(tmp_path):
    cfg, opt, batch_fn = tiny_setup(total_steps=5)
    result = train_loop(init_params(cfg, seed=6), cfg, opt, batch_fn, seed=15)
    f = tmp_path / "loss.csv"
    save_log(result.rows, f)
    assert f.read_text().splitlines()[0] == "step,ce,z_loss,lr,grad_norm,output_rms,diverged"
    back = load_log(f)
    assert back == result.rows


def record_step_graphs(monkeypatch) -> list:
    """Make train_loop append each shard's graph, as the list of its
    tensors, to the returned list, which keeps them alive; a graph is
    walked as its loss is made, since backward releases it.  Both shards
    run inline, since a forked worker's graphs never reach this process."""
    graphs = []
    monkeypatch.setattr("chamtoy.trainer._forks", lambda: False)

    def recording_total_loss(*args, **kwargs):
        breakdown = total_loss(*args, **kwargs)
        nodes, seen, stack = [], set(), [breakdown.total]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        graphs.append(nodes)
        return breakdown

    monkeypatch.setattr("chamtoy.trainer.total_loss", recording_total_loss)
    return graphs


def test_step_computes_in_float32_and_keeps_float64_masters(tmp_path, monkeypatch):
    # a float64 operand anywhere in the step would promote the graph
    # downstream of it and give back the float32 saving
    graphs = record_step_graphs(monkeypatch)
    cfg = preset("toy", 48)
    _, opt, batch_fn = tiny_setup()
    result = train_loop(init_params(cfg, seed=1), cfg, opt, batch_fn, seed=5, end_step=1)

    # one graph per shard, each on leaves of its own
    assert len(graphs) == SHARDS
    for nodes in graphs:
        leaves = [n for n in nodes if n._backward_fn is None]
        assert len(leaves) == len(result.params)
        # per layer one q/k/v product, one attention node and one SwiGLU node
        # (59 tensors with the attention core in seven nodes and the
        # feed-forward in four)
        assert len(nodes) == 41
        for node in nodes:
            assert node.data.dtype == np.float32, node
        for leaf in leaves:
            assert leaf.grad.dtype == np.float32, leaf
    # over one float32 copy of the masters, which the shards share
    first, second = ([n for n in nodes if n._backward_fn is None] for nodes in graphs)
    assert not {id(n) for n in first} & {id(n) for n in second}
    assert {id(n.data) for n in first} == {id(n.data) for n in second}

    for k, p in result.params.items():
        for arr in (p.data, p.grad, result.opt_state["m"][k], result.opt_state["v"][k]):
            assert arr.dtype == np.float64, k
    # the masters keep digits that float32 would round away
    assert any(not np.array_equal(p.data, p.data.astype(np.float32)) for p in result.params.values())
    save_checkpoint(tmp_path / "ck", result.params, cfg, opt_state=result.opt_state, step=1)
    for line in (tmp_path / "ck" / "manifest.txt").read_text().splitlines():
        assert line.split(" ")[2] == "float64"
    loaded, _, opt_state, _ = load_checkpoint(tmp_path / "ck")
    for k, p in result.params.items():
        assert np.array_equal(loaded[k].data, p.data)
        assert np.array_equal(opt_state["v"][k], result.opt_state["v"][k])


def test_handed_over_gradients_alias_nothing(monkeypatch):
    # nodes hand the gradient arrays they make over instead of copying
    # them, so each .grad must still be an array of its own: one shared
    # with another gradient or with any tensor's data would be summed into
    graphs = record_step_graphs(monkeypatch)
    cfg = preset("toy", 48)
    _, opt, batch_fn = tiny_setup()
    train_loop(init_params(cfg, seed=1), cfg, opt, batch_fn, seed=5, end_step=1)

    nodes = [node for graph in graphs for node in graph]
    grads = [n.grad for n in nodes if n.grad is not None]
    assert len(grads) == len(nodes)  # the leaves' among them
    for i, grad in enumerate(grads):
        for other in grads[i + 1:]:
            assert not np.shares_memory(grad, other)
        for node in nodes:
            assert not np.shares_memory(grad, node.data)


def test_three_toy_steps_peak_under_17_5_mb():
    # backward frees each interior node as it goes, nodes hand their fresh
    # gradients over, each shard drops its logits before its backward, and
    # train_loop carries no array of a step into the next: about 14.7 MB
    # traced with the batch in two shards (15.5 as one pass that held its
    # logits), against 19.1 when each first gradient was copied and the
    # last step's logits and float64 gradients were live during the next
    # forward, and 36 when the graph stayed alive
    cfg = preset("toy", 700)
    params = init_params(cfg, seed=0)
    rows = np.random.default_rng(0).integers(0, 700, size=(3, 8, 65))

    def batch_fn(step, rng):
        return rows[step, :, :-1], rows[step, :, 1:], np.ones((8, 64))

    opt = OptimConfig(lr=1e-3, warmup_steps=2, total_steps=100)
    tracemalloc.start()
    try:
        train_loop(params, cfg, opt, batch_fn, seed=0, end_step=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17.5e6, peak / 1e6


# ----------------------------------------------------------------------
# the batch as shards
# ----------------------------------------------------------------------


def fixed_batch(rows, seq=12, vocab=48, mask=None):
    """A batch_fn that hands every step the same [rows, seq] batch."""
    ids = np.random.default_rng(rows).integers(0, vocab, size=(rows, seq + 1))
    mask = np.ones((rows, seq)) if mask is None else mask
    return lambda step, rng: (ids[:, :-1], ids[:, 1:], mask)


def full_batch_pass(params, cfg, batch_fn):
    """The float64 gradients, ce, z_loss and output RMS of one float32
    forward and backward over the whole batch, unsharded."""
    inputs, targets, mask = batch_fn(0, None)
    leaves = {k: Tensor(p.data.astype(np.float32), requires_grad=True) for k, p in params.items()}
    logits, aux = model_forward(leaves, cfg, inputs, training=True)
    breakdown = total_loss(logits, targets, mask=mask, z_coeff=cfg.z_coeff)
    breakdown.total.backward()
    hidden = aux["hidden"].data.astype(np.float64)
    grads = {k: leaf.grad.astype(np.float64) for k, leaf in leaves.items()}
    return grads, breakdown.cross_entropy, breakdown.z_loss, float(np.sqrt(np.mean(hidden * hidden)))


def record_shards(monkeypatch, tmp_path, forks: bool):
    """Run train_loop with its shard worker process or without, and return
    a function that lists (process id, rows) for each shard run so far; a
    file collects them, since a forked worker's lists die with it."""
    log = tmp_path / f"shards-{forks}.txt"
    log.touch()

    def recording_shard_pass(weights, model_cfg, inputs, *args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(inputs)}\n")
        return _shard_pass(weights, model_cfg, inputs, *args)

    monkeypatch.setattr("chamtoy.trainer._forks", lambda: forks)
    monkeypatch.setattr("chamtoy.trainer._shard_pass", recording_shard_pass)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def assert_step_matches_full_pass(cfg, batch_fn, *, exact=False):
    """One train_loop step against full_batch_pass: within float32 rounding,
    relative to each gradient's largest entry, or bit for bit."""
    params = init_params(cfg, seed=3)
    grads, ce, z, rms = full_batch_pass(params, cfg, batch_fn)
    opt = OptimConfig(lr=1e-3, warmup_steps=1, total_steps=10)
    result = train_loop(params, cfg, opt, batch_fn, seed=0, end_step=1)
    row = result.rows[0]
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    close = (lambda a, b: a == b) if exact else (lambda a, b: a == pytest.approx(b, rel=1e-6))
    assert close(row["ce"], ce) and close(row["z_loss"], z) and close(row["output_rms"], rms), row
    assert close(row["grad_norm"], norm), row
    scale = min(1.0, CLIP_NORM / row["grad_norm"])  # as clip_global_norm left them
    for k, g in grads.items():
        got, want = result.params[k].grad, g * scale
        if exact:
            assert np.array_equal(got, want), k
        else:
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want)), k


@pytest.mark.parametrize("empty", [None, 0, 1], ids=["full", "shard-0-empty", "shard-1-empty"])
@pytest.mark.parametrize("name", ["toy", "34b-recipe", "llama2-recipe"])
def test_sharded_step_matches_one_full_batch_pass(name, empty):
    # each shard's loss weighted by its share of the masked tokens sums to
    # the batch's masked mean; a shard with none (as in an SFT batch whose
    # rows are all prompt) runs its forward alone, for the output RMS
    mask = np.ones((4, 12))
    mask[:, :3] = 0
    if empty is not None:
        mask[2 * empty:2 * empty + 2] = 0
    assert_step_matches_full_pass(preset(name, 48), fixed_batch(4, mask=mask))


def test_batch_of_one_row_is_one_shard_and_the_full_pass(monkeypatch, tmp_path):
    shards = record_shards(monkeypatch, tmp_path, forks=True)
    assert_step_matches_full_pass(preset("toy", 48), fixed_batch(1), exact=True)
    assert shards() == [(os.getpid(), 1)]
    assert multiprocessing.active_children() == []


def test_odd_batch_splits_three_and_two(monkeypatch, tmp_path):
    shards = record_shards(monkeypatch, tmp_path, forks=True)
    assert_step_matches_full_pass(preset("toy", 48), fixed_batch(5))
    assert sorted(rows for _, rows in shards()) == [2, 3]
    assert dict(shards())[os.getpid()] == 3
    assert len(dict(shards())) == 2  # shard 1, of two rows, in the worker process


def run_inline_and_forked(monkeypatch, tmp_path, cfg, batch_fn, steps=4):
    """train_loop's results with shard 1 inline and in the worker process,
    after checking where each shard ran and that no process is left."""
    opt = OptimConfig(lr=3e-3, warmup_steps=2, total_steps=10)
    runs = {}
    for forks in (False, True):
        shards = record_shards(monkeypatch, tmp_path, forks)
        runs[forks] = train_loop(init_params(cfg, seed=2), cfg, opt, batch_fn, seed=7,
                                 end_step=steps)
        pids = [pid for pid, _ in shards()]
        assert len(pids) == steps * SHARDS
        # shard 0 runs here either way, shard 1 in one worker for the call
        assert pids.count(os.getpid()) == steps * (1 if forks else SHARDS), pids
        assert len(set(pids)) == (2 if forks else 1), pids
        assert multiprocessing.active_children() == []
    return runs[False], runs[True]


def assert_same_runs(inline, forked):
    assert inline.rows == forked.rows
    assert inline.opt_state["t"] == forked.opt_state["t"]
    for k, p in inline.params.items():
        assert np.array_equal(p.data, forked.params[k].data), k
        for moment in ("m", "v"):
            assert np.array_equal(inline.opt_state[moment][k], forked.opt_state[moment][k]), k


@pytest.mark.parametrize("name", ["toy", "7b-recipe", "34b-recipe", "llama2-recipe"])
def test_shards_give_one_run_inline_and_on_the_worker(monkeypatch, tmp_path, name):
    # the worker process changes where shard 1 runs, not what it computes;
    # 7b-recipe's dropout draws from each shard's own generator
    inline, forked = run_inline_and_forked(monkeypatch, tmp_path, preset(name, 48), fixed_batch(5))
    assert forked.opt_state["t"] == 4
    assert_same_runs(inline, forked)


@pytest.mark.parametrize("empty", [0, 1], ids=["shard-0-empty", "shard-1-empty"])
def test_shard_without_tokens_runs_alike_in_the_worker(monkeypatch, tmp_path, empty):
    # a shard whose mask selects no token sends back no gradient, not the
    # one it wrote a step before
    mask = np.ones((4, 12))
    mask[2 * empty:2 * empty + 2] = 0
    full, emptied = fixed_batch(4), fixed_batch(4, mask=mask)
    batch_fn = lambda step, rng: (emptied if step % 2 else full)(step, rng)
    inline, forked = run_inline_and_forked(monkeypatch, tmp_path, preset("7b-recipe", 48),
                                           batch_fn)
    assert_same_runs(inline, forked)


def test_overflow_on_the_worker_warns_nothing(monkeypatch):
    # the worker process starts with numpy's default error state and this
    # test's warning filters: it enters its own error state, or the
    # overflow of its shard would come back as an exception
    monkeypatch.setattr("chamtoy.trainer._forks", lambda: True)
    cfg, _, batch_fn = tiny_setup()
    opt = OptimConfig(lr=1e200, warmup_steps=1, total_steps=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = train_loop(init_params(cfg, seed=1), cfg, opt, batch_fn, seed=3)
    assert not math.isfinite(result.rows[1]["ce"])
    assert result.monitor.diverged_at == 1
    assert multiprocessing.active_children() == []


def raise_in_one_shard(monkeypatch, tmp_path, row):
    """A one-step run whose shard holding `row` raises, with the worker
    process; returns where each shard ran."""
    shards = record_shards(monkeypatch, tmp_path, forks=True)
    inputs, targets, mask = fixed_batch(4)(0, None)
    targets = targets.copy()
    targets[row, 0] = 48
    cfg, opt, _ = tiny_setup()
    with pytest.raises(IndexError, match="^target id out of vocabulary range$"):
        train_loop(init_params(cfg, seed=1), cfg, opt, lambda step, rng: (inputs, targets, mask),
                   end_step=1)
    assert multiprocessing.active_children() == []
    return shards()


def test_worker_errors_reraise_on_the_calling_thread(monkeypatch, tmp_path):
    # the exception crosses the pipe with its type and message
    assert len(dict(raise_in_one_shard(monkeypatch, tmp_path, row=3))) == 2


def test_errors_in_shard_0_end_the_worker_too(monkeypatch, tmp_path):
    assert len(dict(raise_in_one_shard(monkeypatch, tmp_path, row=0))) == 2


def test_worker_that_dies_is_an_error(monkeypatch):
    here = os.getpid()

    def dying_shard_pass(*args):
        if os.getpid() != here:
            os._exit(3)
        return _shard_pass(*args)

    monkeypatch.setattr("chamtoy.trainer._forks", lambda: True)
    monkeypatch.setattr("chamtoy.trainer._shard_pass", dying_shard_pass)
    cfg, opt, batch_fn = tiny_setup()
    with pytest.raises(ChildProcessError, match="^the shard worker process exited with code 3$"):
        train_loop(init_params(cfg, seed=1), cfg, opt, batch_fn, end_step=2)
    assert multiprocessing.active_children() == []


def src_env(**extra) -> dict:
    """This process's environment, with this tree's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "PYTHONPATH": path, **extra}


CTRL_C = """
import multiprocessing, os, signal
import numpy as np
from chamtoy import trainer
from chamtoy.model import ModelConfig, init_params
trainer._forks = lambda: True
cfg = ModelConfig(vocab_size=48, d_model=16, n_layers=1, n_heads=2, n_kv_heads=2,
                  ffn_hidden=32, max_seq=32)
ids = np.random.default_rng(0).integers(0, 48, size=(4, 13))
workers = []
print("started")  # still buffered when the worker forks, and printed once

def batch_fn(step, rng):
    if step == 2:
        workers.extend(p.pid for p in multiprocessing.active_children())
        os.killpg(0, signal.SIGINT)  # as Ctrl-C does, to the parent and its worker
    return ids[:, :-1], ids[:, 1:], np.ones((4, 12))

try:
    trainer.train_loop(init_params(cfg, seed=0), cfg,
                       trainer.OptimConfig(lr=1e-3, warmup_steps=1, total_steps=10), batch_fn)
except KeyboardInterrupt:
    for pid in workers:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            print("worker gone")
    print("interrupted", multiprocessing.active_children())
"""


def test_ctrl_c_ends_the_worker_with_the_call():
    # the worker blocks SIGINT and leaves when train_loop closes its pipe;
    # it writes nothing, and the caller gets the KeyboardInterrupt
    out = subprocess.run([sys.executable, "-c", CTRL_C], capture_output=True, text=True,
                         env=src_env(), start_new_session=True, timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "started\nworker gone\ninterrupted []\n"


POOL = """
import multiprocessing, os
from chamtoy import trainer
here = trainer._forks(), len(os.sched_getaffinity(0))  # before the pool starts its threads
with multiprocessing.get_context("spawn").Pool(1) as pool:
    print(*here, pool.apply(trainer._forks))
"""


def test_fork_rule_wants_two_cpus_and_one_thread(monkeypatch):
    # a second thread alive here makes fork unsafe, whatever the CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    done = threading.Event()
    waiting = threading.Thread(target=done.wait)
    waiting.start()
    try:
        assert not _forks()
    finally:
        done.set()
        waiting.join()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not _forks()
    # a fresh process whose BLAS pool is pinned to one thread forks where
    # it has two CPUs, but not a Pool's worker, which may not start children
    env = src_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", POOL], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    forks, cpus, in_pool = out.stdout.split()
    assert forks == str(int(cpus) > 1 and sys.platform == "linux")
    assert in_pool == "False"


def test_batch_without_masked_tokens_is_refused():
    cfg, opt, _ = tiny_setup()
    with pytest.raises(ValueError, match="^loss mask selects no tokens$"):
        train_loop(init_params(cfg, seed=1), cfg, opt, fixed_batch(2, mask=np.zeros((2, 12))),
                   end_step=1)
