import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from chamtoy.model import (
    FORMAT_VERSION,
    ModelConfig,
    NormStrategy,
    block_forward,
    clone_params,
    init_params,
    load_checkpoint,
    model_forward,
    preset,
    save_checkpoint,
)
from chamtoy.decoder import _frozen
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
        return float(loss_value(moved).data)

    numeric = (shifted(+1) - shifted(-1)) / (2 * eps)
    denom = max(abs(analytic), abs(numeric), 1.0)
    assert abs(analytic - numeric) / denom < 1e-3


@pytest.mark.parametrize("name", ["toy", "7b-recipe", "34b-recipe", "llama2-recipe"])
def test_float32_gradients_agree_with_float64(name):
    # training computes in float32; each parameter's gradient must stay
    # within 1e-4 relative (L2) error of the float64 one
    cfg = preset(name, 300)
    params = init_params(cfg, seed=1)
    ids = np.random.default_rng(2).integers(0, cfg.vocab_size, size=(4, 33))
    mask = np.ones((4, 32))
    mask[0, :5] = 0.0
    grads = {}
    for dtype in (np.float64, np.float32):
        leaves = {k: Tensor(p.data.astype(dtype), requires_grad=True) for k, p in params.items()}
        logits, _ = model_forward(leaves, cfg, ids[:, :-1], rng=np.random.default_rng(3),
                                  training=True)
        total_loss(logits, ids[:, 1:], mask=mask, z_coeff=cfg.z_coeff).total.backward()
        grads[dtype] = {k: t.grad for k, t in leaves.items()}
    for k, ref in grads[np.float64].items():
        assert grads[np.float32][k].dtype == np.float32, k
        err = np.linalg.norm(grads[np.float32][k] - ref) / np.linalg.norm(ref)
        assert err <= 1e-4, (k, err)


def test_backward_frees_every_interior_node_the_caller_does_not_hold():
    cfg = preset("toy", 48)
    leaves = {k: Tensor(p.data.astype(np.float32), requires_grad=True)
              for k, p in init_params(cfg, seed=1).items()}
    ids = np.random.default_rng(2).integers(0, cfg.vocab_size, size=(2, 17))
    mask = np.ones((2, 16))
    mask[0, :3] = 0.0
    logits, aux = model_forward(leaves, cfg, ids[:, :-1], rng=np.random.default_rng(3),
                                training=True)
    hidden = aux["hidden"]
    del aux  # its kv cache shares arrays with interior nodes
    breakdown = total_loss(logits, ids[:, 1:], mask=mask, z_coeff=cfg.z_coeff)
    loss = breakdown.total
    held = (logits, hidden, loss)

    # weakrefs to each interior node's data; Tensor has __slots__ and takes none
    refs, seen, stack = [], set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            if node._backward_fn is not None:
                refs.append((any(node is t for t in held), weakref.ref(node.data)))
    del node
    assert len(refs) == 59 - len(leaves)

    gc.disable()  # freed by reference counts alone, as the pass goes
    try:
        loss.backward()
        assert [ref() is not None for _, ref in refs] == [kept for kept, _ in refs]
    finally:
        gc.enable()
    assert sum(kept for kept, _ in refs) == len(held)
    assert all(leaf.grad is not None for leaf in leaves.values())

    # the held logits keep the gradient the loss alone gives them
    alone = Tensor(logits.data, requires_grad=True)
    total_loss(alone, ids[:, 1:], mask=mask, z_coeff=cfg.z_coeff).total.backward()
    assert logits.grad.dtype == np.float32
    assert np.array_equal(logits.grad, alone.grad)
    assert hidden.grad is not None


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


def test_kv_cache_carries_no_graph():
    # trainable parameters, so any node built from them would record a graph
    cfg = tiny_cfg(n_kv_heads=1)
    params = init_params(cfg, seed=5)
    ids = np.random.default_rng(5).integers(0, cfg.vocab_size, size=(1, 5))
    _, prefill = model_forward(params, cfg, ids[:, :4])
    _, step = model_forward(params, cfg, ids[:, 4:], past_kv=prefill["kv"])
    for aux in (prefill, step):
        for t in (t for pair in aux["kv"] for t in pair):
            assert t.requires_grad is False
            assert t._parents == ()
    assert step["kv"][0][0].shape[2] == 5


def test_kv_step_builds_37_nodes_on_the_toy_preset(monkeypatch):
    # per layer: one q/k/v product, three head splits, one norm-and-rotation
    # node each for q and k, attend, the merge and its output product, then
    # the two norms, adds and feed-forward (45 nodes with three products
    # and the norm and rotation apart)
    cfg = preset("toy", 48)
    params = _frozen(init_params(cfg, seed=1))
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(1, 6))
    _, prefill = model_forward(params, cfg, ids[:, :5])
    made = []
    make = Tensor._make

    def counting(self, *args):
        made.append(self)
        return make(self, *args)

    monkeypatch.setattr(Tensor, "_make", counting)
    model_forward(params, cfg, ids[:, 5:], past_kv=prefill["kv"])
    assert len(made) == 37


def test_sequence_length_guard():
    cfg = tiny_cfg(max_seq=8)
    params = init_params(cfg, seed=6)
    with pytest.raises(ValueError):
        model_forward(params, cfg, np.zeros((1, 9), dtype=int))
    with pytest.raises(ValueError):
        model_forward(params, cfg, np.zeros(4, dtype=int))


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

    post, pre = NormStrategy.POST_NORM_REORDER, NormStrategy.PRE_NORM
    table = {  # name: (dropout, z_coeff, qk_norm, norm_strategy, n_kv_heads)
        "toy": (0.0, 1e-5, True, post, 4),
        "7b-recipe": (0.1, 1e-5, True, post, 4),
        "34b-recipe": (0.0, 1e-5, True, post, 2),
        "llama2-recipe": (0.0, 0.0, False, pre, 4),
    }
    for name, knobs in table.items():
        cfg = preset(name, vocab_size=64)
        assert (cfg.dropout, cfg.z_coeff, cfg.qk_norm, cfg.norm_strategy, cfg.n_kv_heads) == knobs, name


def test_qk_norm_flag_controls_gain_params():
    with_norm = init_params(tiny_cfg(qk_norm=True), seed=8)
    without = init_params(tiny_cfg(qk_norm=False), seed=8)
    assert "layers.0.attn.q_gain" in with_norm
    assert "layers.0.attn.q_gain" not in without
    assert sum(t.size for t in with_norm.values()) > sum(t.size for t in without.values())


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


def split_qkv(arrays, cfg):
    """Format 1's layout of a parameter or moment dict: each attn.wqkv as
    the separate attn.wq, attn.wk and attn.wv it joins."""
    d, kv = cfg.d_model, cfg.n_kv_heads * cfg.head_dim
    out = {}
    for name, arr in arrays.items():
        if name.endswith(".attn.wqkv"):
            stem = name[:-len("wqkv")]
            for part, cols in zip(("wq", "wk", "wv"), np.split(arr, [d, d + kv], axis=1)):
                out[stem + part] = cols
        else:
            out[name] = arr
    return out


def save_format_1(path, params, cfg, opt_state=None, step=None):
    """A checkpoint as format 1 wrote it, from format-2 parameters."""
    split = {k: Tensor(v) for k, v in split_qkv({k: t.data for k, t in params.items()}, cfg).items()}
    if opt_state is not None:
        opt_state = {"m": split_qkv(opt_state["m"], cfg), "v": split_qkv(opt_state["v"], cfg),
                     "t": opt_state["t"]}
    save_checkpoint(path, split, cfg, opt_state=opt_state, step=step)
    cfgfile = Path(path) / "config.txt"
    cfgfile.write_text(cfgfile.read_text().replace(
        f"format_version {FORMAT_VERSION}", "format_version 1"))


def test_format_1_checkpoint_loads_bit_identical(tmp_path):
    cfg = tiny_cfg(n_heads=4, n_kv_heads=2)
    params = init_params(cfg, seed=12)
    rng = np.random.default_rng(12)
    opt = {"m": {k: rng.normal(size=v.shape) for k, v in params.items()},
           "v": {k: rng.random(size=v.shape) for k, v in params.items()}, "t": 5}
    save_format_1(tmp_path / "ck", params, cfg, opt_state=opt, step=5)
    manifest = (tmp_path / "ck" / "manifest.txt").read_text()
    assert "layers.0.attn.wk 16,8 " in manifest and "attn.wqkv" not in manifest
    loaded, cfg2, opt2, step = load_checkpoint(tmp_path / "ck")
    assert cfg2 == cfg and step == 5 and opt2["t"] == 5
    assert list(loaded) == list(params)
    for k in params:
        assert np.array_equal(loaded[k].data, params[k].data), k
        assert np.array_equal(opt2["m"][k], opt["m"][k]), k
        assert np.array_equal(opt2["v"][k], opt["v"][k]), k
    ids = np.random.default_rng(13).integers(0, cfg.vocab_size, size=(1, 21))
    want, _ = model_forward(params, cfg, ids)
    got, _ = model_forward(_frozen(loaded), cfg, ids)
    assert got.data.dtype == np.float64
    assert np.array_equal(got.data, want.data)


def test_format_1_checkpoint_missing_a_projection_is_refused(tmp_path):
    cfg = tiny_cfg()
    params = init_params(cfg, seed=14)
    save_format_1(tmp_path / "ck", params, cfg)
    manifest = tmp_path / "ck" / "manifest.txt"
    manifest.write_text("".join(line + "\n" for line in manifest.read_text().splitlines()
                                if not line.startswith("layers.1.attn.wv ")))
    with pytest.raises(ValueError, match="missing \\['layers.1.attn.wqkv'\\]"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("name", ["toy", "34b-recipe"])
def test_init_params_draws_wqkv_as_separate_projections(name):
    # the format-1 init drew every matrix in turn, wq, wk and wv apart
    cfg = preset(name, vocab_size=40)
    params = init_params(cfg, seed=7)
    rng = np.random.default_rng(7)
    d, kv, ff = cfg.d_model, cfg.n_kv_heads * cfg.head_dim, cfg.ffn_hidden

    def draw(*shape):
        return rng.normal(0.0, 0.02, size=shape)

    assert np.array_equal(params["tok_emb"].data, draw(cfg.vocab_size, d))
    for i in range(cfg.n_layers):
        pre = f"layers.{i}"
        wq, wk, wv = draw(d, d), draw(d, kv), draw(d, kv)
        assert np.array_equal(params[f"{pre}.attn.wqkv"].data, np.concatenate([wq, wk, wv], 1))
        for part, shape in (("attn.wo", (d, d)), ("ffn.w_gate", (d, ff)), ("ffn.w_up", (d, ff)),
                            ("ffn.w_down", (ff, d))):
            assert np.array_equal(params[f"{pre}.{part}"].data, draw(*shape)), part
    assert np.array_equal(params["lm_head"].data, draw(d, cfg.vocab_size))


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
    text = cfgfile.read_text()
    assert f"format_version {FORMAT_VERSION}\n" in text
    for version in (0, 3, 99):
        cfgfile.write_text(text.replace(f"format_version {FORMAT_VERSION}", f"format_version {version}"))
        with pytest.raises(ValueError, match=f"checkpoint format {version} not supported"):
            load_checkpoint(tmp_path / "ck")


def test_checkpoint_config_values_parse_strictly(tmp_path):
    cfg = tiny_cfg()
    save_checkpoint(tmp_path / "ck", init_params(cfg, seed=11), cfg)
    cfgfile = tmp_path / "ck" / "config.txt"
    text = cfgfile.read_text()
    assert "model.qk_norm true\n" in text
    cfgfile.write_text(text.replace("model.qk_norm true", "model.qk_norm maybe"))
    with pytest.raises(ValueError, match="expected a boolean, got 'maybe'"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_config_missing_model_keys_named(tmp_path):
    cfg = tiny_cfg()
    save_checkpoint(tmp_path / "ck", init_params(cfg, seed=11), cfg)
    cfgfile = tmp_path / "ck" / "config.txt"
    kept = [l for l in cfgfile.read_text().splitlines()
            if not l.startswith(("model.norm_eps ", "model.dropout "))]
    cfgfile.write_text("\n".join(kept) + "\n")
    with pytest.raises(ValueError, match="lacks model.dropout, model.norm_eps$"):
        load_checkpoint(tmp_path / "ck")


def test_checkpoint_with_legacy_rope_base_line_loads(tmp_path):
    # checkpoints written while ModelConfig had a rope_base field carry its line
    cfg = tiny_cfg()
    params = init_params(cfg, seed=11)
    save_checkpoint(tmp_path / "ck", params, cfg, step=3)
    cfgfile = tmp_path / "ck" / "config.txt"
    cfgfile.write_text(cfgfile.read_text().replace(
        "model.norm_eps 1e-05\n", "model.norm_eps 1e-05\nmodel.rope_base 10000.0\n"))
    assert "model.rope_base 10000.0" in cfgfile.read_text()
    loaded, cfg2, _, step = load_checkpoint(tmp_path / "ck")
    assert cfg2 == cfg and step == 3
    for k in params:
        assert np.array_equal(loaded[k].data, params[k].data), k


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


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    ck = tmp_path / "ck"
    first = init_params(cfg, seed=13)
    save_checkpoint(ck, first, cfg, step=1)
    before = {f.name: f.read_bytes() for f in ck.iterdir()}

    def disk_full(_cfg):
        raise OSError("disk full")

    # fails after weights.bin and manifest.txt are written, before config.txt
    monkeypatch.setattr("chamtoy.model._config_to_lines", disk_full)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ck, init_params(cfg, seed=14), cfg, step=2)
    monkeypatch.undo()

    assert {f.name: f.read_bytes() for f in ck.iterdir()} == before
    loaded, _, _, step = load_checkpoint(ck)
    assert step == 1
    for k in first:
        assert np.array_equal(loaded[k].data, first[k].data), k

    # overwriting the checkpoint just loaded clears the stale temporary
    save_checkpoint(ck, loaded, cfg, step=2)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ck"]
    _, _, _, step = load_checkpoint(ck)
    assert step == 2


def test_save_stopped_between_renames_loads_previous_checkpoint(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    ck = tmp_path / "ck"
    first = init_params(cfg, seed=15)
    opt = {"m": {k: np.full(p.shape, 0.5) for k, p in first.items()},
           "v": {k: np.full(p.shape, 0.25) for k, p in first.items()}, "t": 3}
    save_checkpoint(ck, first, cfg, opt_state=opt, step=3)
    real_rename = Path.rename

    def crash_on_swap_in(self, target):
        if Path(target) == ck:
            raise OSError("power lost")
        return real_rename(self, target)

    # `ck` has moved to `ck.old`; the new save in `ck.tmp` never arrives
    monkeypatch.setattr(Path, "rename", crash_on_swap_in)
    with pytest.raises(OSError, match="power lost"):
        save_checkpoint(ck, init_params(cfg, seed=16), cfg, step=4)
    monkeypatch.undo()
    assert not ck.exists() and (tmp_path / "ck.old").is_dir()

    loaded, _, loaded_opt, step = load_checkpoint(ck)
    assert step == 3 and loaded_opt["t"] == 3
    for k in first:
        assert np.array_equal(loaded[k].data, first[k].data), k
        assert np.array_equal(loaded_opt["m"][k], opt["m"][k]), k

    # the next save puts `ck` back and clears the leftovers
    save_checkpoint(ck, loaded, cfg, step=4)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ck"]
    assert load_checkpoint(ck)[3] == 4


def test_clone_params_detaches_storage():
    params = init_params(tiny_cfg(), seed=12)
    copy = clone_params(params)
    copy["tok_emb"].data[0, 0] += 1.0
    assert params["tok_emb"].data[0, 0] != copy["tok_emb"].data[0, 0]
