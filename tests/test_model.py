import gc
import itertools
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from chamtoy.model import (
    FORMAT_VERSION,
    ModelConfig,
    NormStrategy,
    block_forward,
    init_params,
    load_checkpoint,
    model_forward,
    preset,
    save_checkpoint,
)
from chamtoy import decoder
from chamtoy.decoder import DecodePolicy, _frozen, generate_stream
from chamtoy.numerics import Tensor
from chamtoy.objective import total_loss
from chamtoy.tokenizer import MixedVocab


def tiny_cfg(**kw):
    base = dict(
        vocab_size=32, d_model=16, n_layers=2, n_heads=2, n_kv_heads=2,
        ffn_hidden=24, max_seq=32,
    )
    base.update(kw)
    return ModelConfig(**base)


@pytest.mark.parametrize("value", [0, -2])
@pytest.mark.parametrize("name", ["d_model", "n_heads", "n_kv_heads", "ffn_hidden"])
def test_config_rejects_non_positive_geometry_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be positive, got {value}$"):
        tiny_cfg(**{name: value})


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
    assert len(refs) == 41 - len(leaves)

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
    assert step["kv"][0].k.shape[2] == 5


def test_kv_step_builds_19_nodes_on_the_toy_preset(monkeypatch):
    # the embedding, then per layer the q/k/v product, the attention node
    # (head split, QK norm and rotation, cache write, softmax-attention and
    # merge), its output product, the SwiGLU node (three products and the
    # gate) and the two norms and adds, then the final norm and the head
    # (37 nodes with the head split, norms, attend and merge apart and the
    # feed-forward in four); the last-position head selects nothing at one
    # row, so decoding's KV step makes the same nodes
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
    for last_only in (False, True):
        made.clear()
        model_forward(params, cfg, ids[:, 5:], past_kv=prefill["kv"], last_only=last_only)
        assert len(made) == 19


def toy_kv_step():
    """The toy preset's frozen parameters, one token and a five-position
    cache with room for it, as generate_stream hands them to a KV step."""
    cfg = preset("toy", 48)
    params = _frozen(init_params(cfg, seed=1))
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(1, 6))
    _, prefill = model_forward(params, cfg, ids[:, :5])
    return params, cfg, ids[:, 5:], [layer.with_capacity(8) for layer in prefill["kv"]]


def test_kv_step_makes_a_fixed_number_of_python_calls_on_the_toy_preset():
    # Python-level calls, numpy's own wrappers included, are deterministic
    # where a time is not; each costs interpreter time at one row
    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    for last_only in (False, True):
        params, cfg, ids, cache = toy_kv_step()
        calls = []
        sys.setprofile(profile)
        try:
            model_forward(params, cfg, ids, past_kv=cache, last_only=last_only)
        finally:
            sys.setprofile(None)
        assert len(calls) == 120


def tiny_decoder():
    vocab = MixedVocab(n_text=256, n_image=8)
    cfg = tiny_cfg(vocab_size=vocab.total, max_seq=48)
    return init_params(cfg, seed=2), cfg, vocab


def record_kv_steps(monkeypatch, steer=None):
    """Route generate_stream's forward passes through a recorder of
    (past_kv, aux["kv"]); steer(row, fed) may edit the logits row that
    the loop samples from after `fed` positions."""
    calls = []
    real = decoder.model_forward

    def forward(*args, past_kv=None, **kwargs):
        logits, aux = real(*args, past_kv=past_kv, **kwargs)
        calls.append((past_kv, aux["kv"]))
        if steer is not None:
            steer(logits.data[0, -1], aux["kv"][0].length)
        return logits, aux

    monkeypatch.setattr(decoder, "model_forward", forward)
    return calls


@pytest.mark.parametrize("mode", ["unconstrained", "text-only", "image-only"])
def test_every_kv_step_writes_into_the_buffers_allocated_at_its_start(monkeypatch, mode):
    params, cfg, vocab = tiny_decoder()
    params["lm_head"].data[:, vocab.boi] += 1.0  # blocks, so that their codes are fed
    calls = record_kv_steps(monkeypatch)
    for seed, n_prompt in itertools.product(range(4), (1, 6, 30)):
        calls.clear()
        pol = DecodePolicy(block_len=4, mode=mode, max_new_tokens=12, seed=seed)
        list(generate_stream(params, cfg, [vocab.bos] + [7] * (n_prompt - 1), pol, vocab))
        (prefill, _), (first, _), *_ = calls
        assert prefill is None
        for _, kv in calls[1:]:
            for layer, (k, v) in zip(first, kv):
                assert np.shares_memory(k.data, layer.k) and np.shares_memory(v.data, layer.v)


@pytest.mark.parametrize("mode, n_prompt, capacity", [
    ("unconstrained", 3, 3 + 11 + 1 + 3),  # 11 text tokens, BOI, 3 of 4 codes
    ("text-only", 3, 3 + 11),
    ("image-only", 3, 3 + 1 + 3),
    # max_seq 48 caps the cache: the 48th token is never fed
    ("unconstrained", 40, 47), ("text-only", 40, 47),
])
def test_the_kv_cache_holds_exactly_the_longest_request(monkeypatch, mode, n_prompt, capacity):
    # the longest request of each mode: no EOS, and in unconstrained mode a
    # block opened by the last token allowed, then finished
    params, cfg, vocab = tiny_decoder()
    pol = DecodePolicy(block_len=4, mode=mode, max_new_tokens=12, seed=0)
    opens_block = n_prompt + pol.max_new_tokens - 1

    def steer(row, fed):
        row[vocab.eos] = -50.0
        row[vocab.boi] = 50.0 if fed == opens_block else -50.0

    calls = record_kv_steps(monkeypatch, steer)
    list(generate_stream(params, cfg, [vocab.bos] + [7] * (n_prompt - 1), pol, vocab))
    buffer = calls[1][0][0].k
    assert buffer.shape[2] == capacity
    assert max(kv[0].length for _, kv in calls) == capacity
    assert all(kv[0].k is buffer for _, kv in calls[1:])


def test_a_decode_request_peaks_at_its_cache_plus_one_prompt_layer():
    # the prompt's head reads only the row decoding samples, and its cache
    # is handed over one layer at a time, so while the request's cache is
    # allocated the prompt holds one layer and one logits row; at the
    # parent of this test the full logits and every layer were live, about
    # 105 KB over the bound before its slack
    vocab = MixedVocab(n_text=576, n_image=64)
    cfg = preset("toy", vocab.total)
    params = init_params(cfg, seed=0)
    prompt = [vocab.bos] + list(range(40, 52))  # a caption request's length
    pol = DecodePolicy(block_len=64, mode="image-only", max_new_tokens=96, seed=1)
    list(generate_stream(params, cfg, prompt, pol, vocab))  # fills the rotary and ones caches
    gc.collect()
    tracemalloc.start()
    try:
        list(generate_stream(params, cfg, prompt, pol, vocab))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kv = cfg.n_kv_heads * cfg.head_dim
    cache = cfg.n_layers * 2 * (len(prompt) + pol.block_len) * kv * 8
    layer = len(prompt) * (cfg.d_model + 2 * kv + kv) * 8  # q/k/v product and rotated keys
    row = vocab.total * 8
    # the slack holds the request's Python objects (events, token list) and
    # the sampler's vocabulary-wide arrays: about 9 KB of it is used
    assert peak <= cache + layer + row + 32_000, (peak, cache, layer, row)


@pytest.mark.parametrize("name", ["toy", "7b-recipe", "34b-recipe", "llama2-recipe"])
@pytest.mark.parametrize("past, seq", [(0, 1), (0, 7), (5, 1), (5, 2)])
def test_last_only_logits_are_the_last_row_of_the_full_head(name, past, seq):
    # a prompt of one token or several, and a KV step of one token or of a
    # block's last code with its forced EOI
    cfg = preset(name, 48)
    params = _frozen(init_params(cfg, seed=1))
    ids = np.random.default_rng(0).integers(0, cfg.vocab_size, size=(1, past + seq))

    def head(last_only):
        kv = model_forward(params, cfg, ids[:, :past])[1]["kv"] if past else None
        return model_forward(params, cfg, ids[:, past:], past_kv=kv, last_only=last_only)[0]

    full, last = head(False), head(True)
    assert last.data.dtype == np.float64 and last.shape == (1, 1, cfg.vocab_size)
    if seq == 1:  # nothing is selected: the same arithmetic
        assert np.array_equal(last.data, full.data)
    else:
        # BLAS sums a one-row product in another order than the same row of
        # a larger one, so the two agree to rounding, not bit for bit
        np.testing.assert_allclose(last.data[:, 0], full.data[:, -1], rtol=1e-12, atol=1e-15)


def test_last_only_head_passes_its_gradient_to_the_last_position():
    cfg = tiny_cfg()
    rng = np.random.default_rng(4)
    ids = rng.integers(0, cfg.vocab_size, size=(2, 6))
    weight = rng.normal(size=(2, 1, cfg.vocab_size))
    on_full = np.zeros((2, 6, cfg.vocab_size))
    on_full[:, -1:] = weight
    grads = []
    for last_only, w in ((True, weight), (False, on_full)):
        params = init_params(cfg, seed=3)
        (model_forward(params, cfg, ids, last_only=last_only)[0] * Tensor(w)).sum().backward()
        grads.append({name: p.grad for name, p in params.items()})
    for name, g in grads[0].items():
        np.testing.assert_allclose(g, grads[1][name], rtol=1e-10, atol=1e-14, err_msg=name)


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


@pytest.mark.parametrize("name", ["toy", "34b-recipe"])
def test_init_params_draws_wqkv_as_separate_projections(name):
    # every matrix is drawn in turn, wqkv as wq, wk and wv apart; the order
    # fixes each seed's weights
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
    for version in (0, 1, 3, 99):
        cfgfile.write_text(text.replace(f"format_version {FORMAT_VERSION}", f"format_version {version}"))
        with pytest.raises(ValueError, match=f"checkpoint format {version} not supported"):
            load_checkpoint(tmp_path / "ck")


def test_checkpoint_manifest_dtype_and_span_are_checked(tmp_path):
    cfg = tiny_cfg()
    save_checkpoint(tmp_path / "ck", init_params(cfg, seed=11), cfg)
    manifest = tmp_path / "ck" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    name, shape, dtype, offset, length = lines[0].split(" ")
    size = (tmp_path / "ck" / "weights.bin").stat().st_size
    for bad, message in ((f"{name} {shape} float32 {offset} {length}", "unsupported dtype float32"),
                         (f"{name} {shape} {dtype} {size - 8} 16", f"{name} overruns weights.bin")):
        manifest.write_text("\n".join([bad, *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match=message):
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


class HalfWrites:
    """A file that writes half of what it is handed, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError("disk full")


def failing_at(real, when):
    """A Path method that raises where `when(self, *args)` holds."""
    def method(self, *args, **kwargs):
        if when(self, *args):
            raise OSError("disk full")
        return real(self, *args, **kwargs)
    return method


SAVE_OPERATIONS = ["make-temporary", "open-weights", "write-weights", "write-manifest",
                   "write-config", "rename-to-old", "rename-into-place"]


@pytest.mark.parametrize("operation", SAVE_OPERATIONS)
def test_save_failing_at_any_file_operation_keeps_previous_checkpoint(tmp_path, monkeypatch,
                                                                       operation):
    cfg = tiny_cfg()
    ck, tmp, old = tmp_path / "ck", tmp_path / "ck.tmp", tmp_path / "ck.old"
    first, second = init_params(cfg, seed=17), init_params(cfg, seed=18)
    opt = {"m": {k: np.full(p.shape, 0.5) for k, p in first.items()},
           "v": {k: np.full(p.shape, 0.25) for k, p in first.items()}, "t": 3}
    save_checkpoint(ck, first, cfg, opt_state=opt, step=3)

    if operation == "make-temporary":
        monkeypatch.setattr(Path, "mkdir", failing_at(Path.mkdir, lambda self, *a: self == tmp))
    elif operation in ("open-weights", "write-weights"):
        def opening(file, *args, **kwargs):
            if Path(file).name == "weights.bin" and operation == "open-weights":
                raise OSError("disk full")
            fh = open(file, *args, **kwargs)
            return HalfWrites(fh) if Path(file).name == "weights.bin" else fh
        monkeypatch.setattr("chamtoy.model.open", opening, raising=False)
    elif operation.startswith("write-"):
        name = operation.removeprefix("write-") + ".txt"
        monkeypatch.setattr(Path, "write_text",
                            failing_at(Path.write_text, lambda self, *a: self.name == name))
    else:
        target = old if operation == "rename-to-old" else ck
        monkeypatch.setattr(Path, "rename",
                            failing_at(Path.rename, lambda self, dest: Path(dest) == target))
    with pytest.raises(OSError, match="^disk full$"):
        save_checkpoint(ck, second, cfg, opt_state=opt, step=4)
    monkeypatch.undo()

    loaded, _, loaded_opt, step = load_checkpoint(ck)
    assert step == 3 and loaded_opt["t"] == 3
    for k in first:
        assert np.array_equal(loaded[k].data, first[k].data), k
        for moment in ("m", "v"):
            assert np.array_equal(loaded_opt[moment][k], opt[moment][k]), k

    # the next save succeeds and clears what the failed one left
    save_checkpoint(ck, second, cfg, step=4)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ck"]
    loaded, _, _, step = load_checkpoint(ck)
    assert step == 4
    for k in second:
        assert np.array_equal(loaded[k].data, second[k].data), k


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


