import tracemalloc

import numpy as np
import pytest

from chamtoy.data import MixtureSpec, PretrainBatcher
from chamtoy.model import (
    ModelConfig,
    init_params,
    load_checkpoint,
    preset,
    save_checkpoint,
)
from chamtoy.numerics import Tensor
from chamtoy.objective import total_loss
from chamtoy.trainer import (
    LOG_FIELDS,
    DivergenceMonitor,
    OptimConfig,
    adamw_step,
    clip_global_norm,
    init_opt_state,
    load_log,
    lr_at,
    save_log,
    step_rng,
    train_loop,
)


def small_opt(**kw):
    base = dict(lr=1e-3, warmup_steps=2, total_steps=50)
    base.update(kw)
    return OptimConfig(**base)


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------


def test_adamw_first_step_hand_value():
    # m_hat = 1, v_hat = 1 -> update = lr / (1 + eps)
    p = {"w": Tensor(np.array([[1.0]]), requires_grad=True)}
    p["w"].grad = np.array([[1.0]])
    state = init_opt_state(p)
    cfg = small_opt(lr=0.1, weight_decay=0.0)
    adamw_step(p, state, lr=0.1, cfg=cfg)
    expected = 1.0 - 0.1 / (1.0 + 1e-5)
    assert p["w"].data[0, 0] == pytest.approx(expected, abs=1e-12)
    assert state["t"] == 1


def test_weight_decay_is_decoupled_and_first():
    # zero gradient: the only change is the multiplicative decay
    p = {"w": Tensor(np.array([[2.0]]), requires_grad=True)}
    p["w"].grad = np.array([[0.0]])
    state = init_opt_state(p)
    cfg = small_opt(lr=0.5, weight_decay=0.1)
    adamw_step(p, state, lr=0.5, cfg=cfg)
    assert p["w"].data[0, 0] == pytest.approx(2.0 * (1.0 - 0.5 * 0.1), abs=1e-15)


def test_weight_decay_skips_gain_vectors():
    p = {"g": Tensor(np.array([2.0]), requires_grad=True)}
    p["g"].grad = np.array([0.0])
    state = init_opt_state(p)
    cfg = small_opt(lr=0.5, weight_decay=0.1)
    adamw_step(p, state, lr=0.5, cfg=cfg)
    assert p["g"].data[0] == 2.0


def test_adamw_defaults_match_recipe():
    cfg = OptimConfig()
    assert (cfg.beta1, cfg.beta2) == (0.9, 0.95)
    assert cfg.eps == 1e-5
    assert cfg.weight_decay == 0.1
    assert cfg.clip_norm == 1.0
    assert cfg.warmup_steps == 4000


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
    with pytest.raises(ValueError):
        OptimConfig(schedule="linear")
    with pytest.raises(ValueError):
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
    cfg = ModelConfig(
        vocab_size=48, d_model=16, n_layers=1, n_heads=2, n_kv_heads=2,
        ffn_hidden=32, max_seq=32, **cfg_kw,
    )
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


def test_step_rng_is_independent_of_history():
    a = step_rng(7, 3).integers(0, 1000, size=5)
    b = step_rng(7, 3).integers(0, 1000, size=5)
    c = step_rng(7, 4).integers(0, 1000, size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_halt_on_divergence_stops_early():
    cfg, opt, batch_fn = tiny_setup(total_steps=30)
    params = init_params(cfg, seed=5)
    mon = DivergenceMonitor(window=2, slope_threshold=-1.0)  # trips immediately
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


def test_step_computes_in_float32_and_keeps_float64_masters(tmp_path, monkeypatch):
    # a float64 operand anywhere in the step would promote the graph
    # downstream of it and give back the float32 saving
    # the graph is walked as the loss is made: backward releases it
    nodes = []

    def recording_total_loss(*args, **kwargs):
        breakdown = total_loss(*args, **kwargs)
        seen, stack = set(), [breakdown.total]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node._parents)
        return breakdown

    monkeypatch.setattr("chamtoy.trainer.total_loss", recording_total_loss)
    cfg = preset("toy", 48)
    _, opt, batch_fn = tiny_setup()
    result = train_loop(init_params(cfg, seed=1), cfg, opt, batch_fn, seed=5, end_step=1)

    leaves = [n for n in nodes if n._backward_fn is None]
    assert len(leaves) == len(result.params)
    # one q/k/v product and one norm-and-rotation node for each of q and k
    # (71 tensors with three products and the norm and rotation apart)
    assert len(nodes) == 59
    for node in nodes:
        assert node.data.dtype == np.float32, node
    for leaf in leaves:
        assert leaf.grad.dtype == np.float32, leaf

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


def test_three_toy_steps_peak_under_24_mb():
    # backward frees each interior node as it goes, so no step's graph is
    # live during the next step's forward: about 19 MB traced, against 36
    # when the graph stayed alive until train_loop rebound its locals
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
    assert peak <= 24e6, peak / 1e6
