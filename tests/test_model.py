import numpy as np
import pytest

from chamtoy.model import (
    ModelConfig,
    NormStrategy,
    block_forward,
    clone_params,
    count_params,
    init_params,
    load_checkpoint,
    model_forward,
    preset,
    save_checkpoint,
)
from chamtoy.numerics import Tensor
from chamtoy.objective import total_loss


def tiny_cfg(**kw):
    base = dict(
        vocab_size=32, d_model=16, n_layers=2, n_heads=2, n_kv_heads=2,
        ffn_hidden=24, max_seq=32,
    )
    base.update(kw)
    return ModelConfig(**base)


def test_forward_shapes():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(2, 7))
    logits, aux = model_forward(params, cfg, ids)
    assert logits.shape == (2, 7, cfg.vocab_size)
    assert aux["hidden"].shape == (2, 7, cfg.d_model)
    assert len(aux["kv"]) == cfg.n_layers


@pytest.mark.parametrize("strategy", list(NormStrategy))
def test_model_is_causal(strategy):
    cfg = tiny_cfg(norm_strategy=strategy)
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(1)
    ids = rng.integers(0, cfg.vocab_size, size=(1, 8))
    base, _ = model_forward(params, cfg, ids)
    mutated = ids.copy()
    mutated[0, 5] = (mutated[0, 5] + 1) % cfg.vocab_size
    out, _ = model_forward(params, cfg, mutated)
    assert np.array_equal(out.data[0, :5], base.data[0, :5])
    assert not np.array_equal(out.data[0, 5:], base.data[0, 5:])


def test_reordered_norm_increments_have_unit_rms():
    cfg = tiny_cfg(norm_strategy=NormStrategy.POST_NORM_REORDER, norm_eps=1e-12)
    params = init_params(cfg, seed=2)
    x = Tensor(np.random.default_rng(2).normal(size=(1, 6, cfg.d_model)) * 5.0)
    out, info = block_forward(x, params, cfg, 0)
    for key in ("attn_increment", "ffn_increment"):
        rows = np.sqrt(np.mean(info[key].data ** 2, axis=-1))
        assert np.all(np.abs(rows - 1.0) < 1e-6), key


def test_pre_norm_increments_scale_with_projection_weights():
    # Scaling the output projections by 100 inflates the additive updates
    # under the conventional arrangement; the reordered norm pins them at
    # unit scale no matter what the sublayers emit.
    x = Tensor(np.random.default_rng(3).normal(size=(1, 6, 16)))

    def max_increment(strategy, scale):
        cfg = tiny_cfg(norm_strategy=strategy, norm_eps=1e-12)
        params = init_params(cfg, seed=3)
        for name in ("layers.0.attn.wo", "layers.0.ffn.w_down"):
            params[name] = Tensor(params[name].data * scale, requires_grad=True)
        _, info = block_forward(x, params, cfg, 0)
        return max(
            np.sqrt(np.mean(info[k].data ** 2, axis=-1)).max()
            for k in ("attn_increment", "ffn_increment")
        )

    pre_base = max_increment(NormStrategy.PRE_NORM, 1.0)
    pre_scaled = max_increment(NormStrategy.PRE_NORM, 100.0)
    assert pre_scaled / pre_base >= 10.0

    re_scaled = max_increment(NormStrategy.POST_NORM_REORDER, 100.0)
    assert abs(re_scaled - 1.0) < 1e-6


def test_end_to_end_gradient_directional():
    cfg = tiny_cfg(n_layers=1, qk_norm=True)
    params = init_params(cfg, seed=4)
    ids = np.random.default_rng(4).integers(0, cfg.vocab_size, size=(1, 5))
    targets = np.roll(ids, -1, axis=1)

    def loss_value(p):
        logits, _ = model_forward(p, cfg, ids)
        return total_loss(logits, targets).total

    loss = loss_value(params)
    loss.backward()

    rng = np.random.default_rng(44)
    direction = {k: rng.normal(size=v.shape) for k, v in params.items()}
    analytic = sum(
        float(np.sum(params[k].grad * direction[k]))
        for k in params
        if params[k].grad is not None
    )

    eps = 1e-6
    def shifted(sign):
        moved = {
            k: Tensor(params[k].data + sign * eps * direction[k]) for k in params
        }
        return loss_value(moved).item()

    numeric = (shifted(+1) - shifted(-1)) / (2 * eps)
    denom = max(abs(analytic), abs(numeric), 1.0)
    assert abs(analytic - numeric) / denom < 1e-3


def test_kv_cache_matches_full_forward():
    cfg = tiny_cfg(n_kv_heads=1)
    params = init_params(cfg, seed=5)
    ids = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(1, 9))

    full, _ = model_forward(params, cfg, ids)

    cache = None
    rows = []
    for t in range(ids.shape[1]):
        logits, aux = model_forward(params, cfg, ids[:, t:t + 1], past_kv=cache)
        cache = aux["kv"]
        rows.append(logits.data[:, 0])
    stacked = np.stack(rows, axis=1)
    assert np.max(np.abs(stacked - full.data)) <= 1e-8


def test_sequence_length_guard():
    cfg = tiny_cfg(max_seq=8)
    params = init_params(cfg, seed=6)
    with pytest.raises(ValueError):
        model_forward(params, cfg, np.zeros((1, 9), dtype=int))


def test_dropout_only_active_in_training():
    cfg = tiny_cfg(dropout=0.5)
    params = init_params(cfg, seed=7)
    ids = np.zeros((1, 4), dtype=int)
    a, _ = model_forward(params, cfg, ids)
    b, _ = model_forward(params, cfg, ids)
    assert np.array_equal(a.data, b.data)
    t1, _ = model_forward(params, cfg, ids, rng=np.random.default_rng(1), training=True)
    t2, _ = model_forward(params, cfg, ids, rng=np.random.default_rng(2), training=True)
    assert not np.array_equal(t1.data, t2.data)


def test_presets_encode_the_recipe_table():
    strong = preset("7b-recipe", vocab_size=64)
    assert strong.dropout == 0.1 and strong.qk_norm and strong.z_coeff == 1e-5
    assert strong.norm_strategy is NormStrategy.POST_NORM_REORDER

    grouped = preset("34b-recipe", vocab_size=64)
    assert grouped.dropout == 0.0 and grouped.qk_norm
    assert grouped.n_kv_heads < grouped.n_heads

    plain = preset("llama2-recipe", vocab_size=64)
    assert not plain.qk_norm and plain.z_coeff == 0.0 and plain.dropout == 0.0
    assert plain.norm_strategy is NormStrategy.PRE_NORM

    with pytest.raises(KeyError):
        preset("8b-recipe", vocab_size=64)


def test_qk_norm_flag_controls_gain_params():
    with_norm = init_params(tiny_cfg(qk_norm=True), seed=8)
    without = init_params(tiny_cfg(qk_norm=False), seed=8)
    assert "layers.0.attn.q_gain" in with_norm
    assert "layers.0.attn.q_gain" not in without
    assert count_params(with_norm) > count_params(without)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = tiny_cfg(qk_norm=True, dropout=0.25)
    params = init_params(cfg, seed=9)
    opt = {
        "m": {k: np.random.default_rng(1).normal(size=v.shape) for k, v in params.items()},
        "v": {k: np.abs(np.random.default_rng(2).normal(size=v.shape)) for k, v in params.items()},
        "t": 17,
    }
    save_checkpoint(tmp_path / "ck", params, cfg, opt_state=opt, step=123)
    loaded, cfg2, opt2, step = load_checkpoint(tmp_path / "ck")

    assert step == 123
    assert cfg2 == cfg
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k].data, params[k].data), k
    assert opt2["t"] == 17
    for k in params:
        assert np.array_equal(opt2["m"][k], opt["m"][k])
        assert np.array_equal(opt2["v"][k], opt["v"][k])


def test_checkpoint_without_optimizer(tmp_path):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=10)
    save_checkpoint(tmp_path / "ck", params, cfg)
    _, _, opt_state, step = load_checkpoint(tmp_path / "ck")
    assert opt_state is None and step is None


def test_checkpoint_version_guard(tmp_path):
    cfg = tiny_cfg()
    save_checkpoint(tmp_path / "ck", init_params(cfg, seed=11), cfg)
    cfgfile = tmp_path / "ck" / "config.txt"
    cfgfile.write_text(cfgfile.read_text().replace("format_version 1", "format_version 99"))
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_params_must_match_config(tmp_path):
    cfg = tiny_cfg()
    save_checkpoint(tmp_path / "ck", init_params(cfg, seed=11), cfg)
    manifest = tmp_path / "ck" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(l for l in lines if not l.startswith("lm_head ")) + "\n")
    with pytest.raises(ValueError, match=r"missing \['lm_head'\]"):
        load_checkpoint(tmp_path / "ck")

    # a 16x32 matrix read back as 32x16 has the right byte span, wrong shape
    manifest.write_text("\n".join(
        l.replace("lm_head 16,32 ", "lm_head 32,16 ") for l in lines) + "\n")
    with pytest.raises(ValueError, match=r"wrong shape \['lm_head'\]"):
        load_checkpoint(tmp_path / "ck")


def test_clone_params_detaches_storage():
    params = init_params(tiny_cfg(), seed=12)
    copy = clone_params(params)
    copy["tok_emb"].data[0, 0] += 1.0
    assert params["tok_emb"].data[0, 0] != copy["tok_emb"].data[0, 0]
