import numpy as np
import pytest

from chamtoy import layers
from chamtoy.layers import (
    KVCache,
    apply_rope_at,
    attention,
    dropout,
    layer_norm,
    rms_norm,
    rope_tables,
    swiglu,
)
from chamtoy.numerics import (
    Tensor, attend_backward, attend_forward, normalize, turn, turn_back,
)

from reference import attention_scores
from test_numerics import assert_grad_close, check_op_gradient, finite_difference


def scalar_loss_grad(f, arrays, weights_seed=5):
    """Analytic gradient of sum(f(xs) * w) for fixed random w."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = f(tensors)
    rng = np.random.default_rng(weights_seed)
    w = rng.normal(size=out.shape)
    (out * Tensor(w)).sum().backward()
    return tensors, w


def test_rms_norm_unit_rms_as_eps_vanishes():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 8)) * 3.0)
    gain = Tensor(np.ones(8))
    out = rms_norm(x, gain, eps=1e-12)
    rows = np.sqrt(np.mean(out.data ** 2, axis=-1))
    assert np.all(np.abs(rows - 1.0) < 1e-9)


def test_rms_norm_gradient():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 6))
    g = rng.normal(size=6)
    tensors, w = scalar_loss_grad(lambda ts: rms_norm(ts[0], ts[1]), [x, g])

    def f0(a):
        return float((rms_norm(Tensor(a), Tensor(g)) * Tensor(w)).sum().data)

    def f1(a):
        return float((rms_norm(Tensor(x), Tensor(a)) * Tensor(w)).sum().data)

    assert_grad_close(tensors[0].grad, finite_difference(f0, x))
    assert_grad_close(tensors[1].grad, finite_difference(f1, g))


def test_layer_norm_centers_and_scales():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(5, 16)) * 50.0 + 7.0)
    out = layer_norm(x, Tensor(np.ones(16)), eps=1e-12).data
    assert np.all(np.abs(out.mean(axis=-1)) < 1e-9)
    assert np.all(np.abs(out.std(axis=-1) - 1.0) < 1e-6)


def test_layer_norm_gradient():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 8))
    g = np.ones(8)
    tensors, w = scalar_loss_grad(lambda ts: layer_norm(ts[0], Tensor(g)), [x])

    def f(a):
        return float((layer_norm(Tensor(a), Tensor(g)) * Tensor(w)).sum().data)

    assert_grad_close(tensors[0].grad, finite_difference(f, x))


def _norm_reference(x, gain, eps, center):
    """The mean / subtract / square / mean / add / power / scale / gain
    composition the fused op replaced, in plain numpy."""
    h = x - x.mean(axis=-1, keepdims=True) if center else x
    return h * (np.mean(h * h, axis=-1, keepdims=True) + eps) ** -0.5 * gain


@pytest.mark.parametrize("center", [False, True], ids=["rms", "centered"])
@pytest.mark.parametrize("shape", [(3, 6), (2, 3, 4, 6)], ids=["2d", "4d"])
def test_normalize_matches_composition_and_finite_differences(center, shape):
    rng = np.random.default_rng(len(shape) + center)
    x = rng.normal(size=shape) * 3.0 + 1.0
    g = rng.normal(size=shape[-1])
    out = normalize(Tensor(x), Tensor(g), 1e-5, center).data
    ref = _norm_reference(x, g, 1e-5, center)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    check_op_gradient(lambda ts: normalize(ts[0], ts[1], 1e-5, center), [x, g])


def test_gated_silu_hand_value():
    # silu(1) * 1 = 1 * sigmoid(1) = 0.7310585786300049, through SwiGLU's
    # gate with every product an identity
    one = Tensor([[1.0]])
    out = swiglu(Tensor([1.0]), one, one, one).data[0]
    assert out == pytest.approx(0.7310585786300049, abs=1e-12)


def test_swiglu_shapes_and_gradient():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 3, 4))
    w1 = rng.normal(size=(4, 6))
    w3 = rng.normal(size=(4, 6))
    w2 = rng.normal(size=(6, 4))
    tensors, w = scalar_loss_grad(
        lambda ts: swiglu(ts[0], ts[1], ts[2], ts[3]), [x, w1, w3, w2]
    )
    out = swiglu(*(Tensor(a, requires_grad=True) for a in (x, w1, w3, w2)))
    assert out.shape == (2, 3, 4)
    assert len(out._parents) == 4  # the three products and the gate are one node

    arrays = [x, w1, w3, w2]
    for k in range(4):
        def f(a, k=k):
            probe = [Tensor(v) for v in arrays]
            probe[k] = Tensor(a)
            return float((swiglu(*probe) * Tensor(w)).sum().data)

        assert_grad_close(tensors[k].grad, finite_difference(f, arrays[k]))


def test_rope_preserves_norms():
    c, s = rope_tables(8, 32)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 2, 16, 8))
    out = apply_rope_at(Tensor(x), c, s, 0).data
    assert np.allclose(
        np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-10
    )


def test_rope_position_zero_is_identity():
    c, s = rope_tables(6, 4)
    x = np.random.default_rng(6).normal(size=(1, 1, 1, 6))
    out = apply_rope_at(Tensor(x), c, s, 0).data
    assert np.allclose(out, x, atol=1e-12)


def test_rope_dot_products_depend_only_on_relative_position():
    rope_c, rope_s = rope_tables(8, 64)
    rng = np.random.default_rng(7)
    q = rng.normal(size=8)
    k = rng.normal(size=8)

    def dot_at(m, n):
        qm = apply_rope_at(Tensor(q.reshape(1, 1, 1, 8)), rope_c, rope_s, m).data.ravel()
        kn = apply_rope_at(Tensor(k.reshape(1, 1, 1, 8)), rope_c, rope_s, n).data.ravel()
        return float(qm @ kn)

    assert dot_at(3, 1) == pytest.approx(dot_at(13, 11), abs=1e-10)
    assert dot_at(5, 5) == pytest.approx(dot_at(40, 40), abs=1e-10)


def reference_angles(positions, head_dim):
    """RoFormer's angles: position p turns pair i by p * 10000^(-2i/head_dim)."""
    return np.stack([positions * 10000.0 ** (-2 * i / head_dim)
                     for i in range(head_dim // 2)], axis=-1)


def test_rope_rotates_adjacent_channel_pairs():
    # the interleaved layout is part of the checkpoint format: a rotate-half
    # layout passes the norm and relative-position tests but not this one
    rope_c, rope_s = rope_tables(8, 32)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 5, 8))
    for offset in (0, 1, 7, 27):
        out = apply_rope_at(Tensor(x), rope_c, rope_s, offset).data
        angles = reference_angles(np.arange(offset, offset + 5), 8)
        c = np.cos(angles)
        s = np.sin(angles)
        expected = np.empty_like(x)
        for i in range(4):
            even, odd = x[..., 2 * i], x[..., 2 * i + 1]
            expected[..., 2 * i] = even * c[:, i] - odd * s[:, i]
            expected[..., 2 * i + 1] = even * s[:, i] + odd * c[:, i]
        assert np.array_equal(out, expected), offset


def test_rope_gradient():
    c, s = rope_tables(4, 8)
    x = np.random.default_rng(8).normal(size=(1, 2, 3, 4))
    tensors, w = scalar_loss_grad(lambda ts: apply_rope_at(ts[0], c, s, 0), [x])

    def f(a):
        return float((apply_rope_at(Tensor(a), c, s, 0) * Tensor(w)).sum().data)

    assert_grad_close(tensors[0].grad, finite_difference(f, x))


@pytest.mark.parametrize("offset", [0, 1, 7, 27])
def test_rotation_node_matches_permutation_matmul_and_finite_differences(offset):
    # the composition it replaced: x*C + (x @ P)*S, P the pair-swap matrix
    rope_c, rope_s = rope_tables(6, 40)
    x = np.random.default_rng(40 + offset).normal(size=(2, 3, 4, 6))
    angles = reference_angles(np.arange(offset, offset + 4), 6)
    c = np.repeat(np.cos(angles), 2, axis=-1)
    s = (np.sin(angles)[..., None] * np.array([-1.0, 1.0])).reshape(4, 6)
    swap = np.eye(6).reshape(3, 2, 6)[:, ::-1].reshape(6, 6)
    out = apply_rope_at(Tensor(x), rope_c, rope_s, offset).data
    assert np.array_equal(out, x * c + (x @ swap) * s)
    check_op_gradient(lambda ts: apply_rope_at(ts[0], rope_c, rope_s, offset), [x])


def test_rope_tables_are_cached_read_only_and_cast_from_float64():
    c64, s64 = rope_tables(8, 16)
    c32, s32 = rope_tables(8, 16, np.float32)
    again = rope_tables(8, 16, np.float32)
    assert again[0] is c32 and again[1] is s32
    for table in (c64, s64, c32, s32):
        with pytest.raises(ValueError):
            table[1, 1] = 0.0
    assert c32.dtype == s32.dtype == np.float32
    assert np.array_equal(c32, c64.astype(np.float32))
    assert np.array_equal(s32, s64.astype(np.float32))
    with pytest.raises(ValueError, match="^rotary embeddings need an even head dimension$"):
        rope_tables(5, 16)
    with pytest.raises(ValueError, match="^rotary table of 16 positions is shorter than the "
                                         "17 positions needed$"):
        apply_rope_at(Tensor(np.ones((1, 2, 8))), c64, s64, 15)


def test_dropout_identity_cases():
    x = Tensor(np.ones((4, 4)))
    rng = np.random.default_rng(9)
    assert dropout(x, 0.0, rng, training=True) is x
    assert dropout(x, 0.5, rng, training=False) is x
    for p in (1.0, 1.5):
        with pytest.raises(ValueError, match=f"^dropout probability out of range: {p}$"):
            dropout(x, p, rng, training=True)


def test_dropout_scaling_and_rate():
    rng = np.random.default_rng(10)
    x = Tensor(np.ones(200_000))
    out = dropout(x, 0.3, rng, training=True).data
    zeros = np.mean(out == 0.0)
    kept = out[out != 0.0]
    assert abs(zeros - 0.3) < 0.01
    assert np.allclose(kept, 1.0 / 0.7, atol=1e-12)
    assert abs(out.mean() - 1.0) < 0.01


def test_split_merge_heads_roundtrip():
    # a first position sees its own key alone, so with the identity as wo
    # the node's head split and merge hand back its value columns exactly
    rng = np.random.default_rng(20)
    d, n_heads = 8, 2
    x = Tensor(rng.normal(size=(1, 3, d)))
    wqkv = Tensor(rng.normal(size=(d, 3 * d)))
    cos, sin = rope_tables(d // n_heads, 3)
    out, _ = attention(x, wqkv, Tensor(np.eye(d)), n_heads, n_heads, cos, sin)
    assert np.array_equal(out.data[0, 0], (x @ wqkv).data[0, 0, 2 * d:])


@pytest.mark.parametrize("n_kv_heads", [4, 2])
def test_attention_is_one_node_between_its_two_products(n_kv_heads):
    rng = np.random.default_rng(12)
    d, n_heads, hd = 8, 4, 2
    p = make_attn_params(rng, d, n_heads, n_kv_heads)
    x, wqkv, wo, gain = (Tensor(a, requires_grad=True)
                         for a in (rng.normal(size=(2, 3, d)), fuse_qkv(p), p["wo"], np.ones(hd)))
    cos, sin = rope_tables(hd, 3)
    out, _ = attention(x, wqkv, wo, n_heads, n_kv_heads, cos, sin, q_gain=gain, k_gain=gain)
    merged, product_weight = out._parents
    qkv, *gains = merged._parents
    assert product_weight is wo and merged.shape == (2, 3, d)
    assert len(gains) == 2 and all(g is gain for g in gains)
    assert qkv._parents == (x, wqkv)


@pytest.mark.parametrize("n_kv_heads", [4, 2])
def test_split_heads_column_ranges_add_into_one_gradient_buffer(n_kv_heads):
    # the q, k and v heads of one fused product, as the attention node
    # splits it: its backward writes each range's gradient into its own
    # columns of one buffer, exactly as the kernels compute them
    rng = np.random.default_rng(18)
    n_heads, hd, s = 4, 2, 3
    d, kv = n_heads * hd, n_kv_heads * hd
    cos, sin = rope_tables(hd, s)

    def node(qkv):
        return layers._attention_node(qkv, n_heads, n_kv_heads, cos, sin, None, None, 1e-5,
                                      None)[0]

    check_op_gradient(lambda ts: node(ts[0]), [rng.normal(size=(2, s, d + 2 * kv))])
    qkv = Tensor(rng.normal(size=(2, s, d + 2 * kv)), requires_grad=True)
    merged = node(qkv)
    w = rng.normal(size=merged.shape)
    (merged * Tensor(w)).sum().backward()
    heads = qkv.data.reshape(2, s, -1, hd).transpose(0, 2, 1, 3)
    q, k = (turn(np.ascontiguousarray(heads[:, cols]), cos, sin)
            for cols in (slice(0, n_heads), slice(n_heads, n_heads + n_kv_heads)))
    v = heads[:, n_heads + n_kv_heads:]
    _, exps, sums = attend_forward(q, k, v)
    gq, gk, gv = attend_backward(w.reshape(2, s, n_heads, hd).transpose(0, 2, 1, 3),
                                 q, k, v, exps, sums)
    ranges = [turn_back(gq, cos, sin), turn_back(gk, cos, sin), gv]
    expected = np.concatenate([g.transpose(0, 2, 1, 3).reshape(2, s, -1) for g in ranges], -1)
    assert np.array_equal(qkv.grad, expected)


def test_attention_with_a_cache_holds_the_past_fixed_in_its_gradient():
    # the cache carries no graph: its earlier positions are constants, and
    # the call's own queries, keys and values, and both gains, get the
    # gradient that finite differences give with those positions fixed
    rng = np.random.default_rng(21)
    n_heads, n_kv_heads, hd = 4, 2, 4
    d, kv = n_heads * hd, n_kv_heads * hd
    cos, sin = rope_tables(hd, 8)
    past_k, past_v = rng.normal(size=(2, 1, n_kv_heads, 8, hd))

    def node(ts):
        cache = KVCache(past_k.copy(), past_v.copy(), 5)
        merged, out_cache = layers._attention_node(ts[0], n_heads, n_kv_heads, cos, sin, ts[1],
                                                   ts[2], 1e-5, cache)
        assert out_cache is cache and cache.length == 7
        return merged

    check_op_gradient(node, [rng.normal(size=(1, 2, d + 2 * kv)), rng.normal(size=hd),
                             rng.normal(size=hd)])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_attention_qk_path_equals_layer_norm_then_apply_rope_at(dtype):
    # the QK norm and rotation inside the attention node, against the
    # layer_norm and apply_rope_at nodes in turn, forward and backward
    rng = np.random.default_rng(19)
    table_c, table_s = (t.astype(dtype) for t in rope_tables(6, 8))
    # split-heads layout [b, h, seq, hd], a strided view as the node reads it
    x = (rng.normal(size=(2, 5, 3, 6)) * 3.0 + 1.0).astype(dtype).transpose(0, 2, 1, 3)
    g = rng.normal(size=6).astype(dtype)
    w = rng.normal(size=x.shape).astype(dtype)
    ts = [Tensor(x, requires_grad=True), Tensor(g, requires_grad=True)]
    apart = apply_rope_at(layer_norm(ts[0], ts[1]), table_c, table_s, 2)
    (apart * Tensor(w)).sum().backward()
    gain = Tensor(g, requires_grad=True)
    c, s = table_c[2:7], table_s[2:7]
    fused, saved = layers._qk_forward(x, gain, 1e-5, c, s)
    g_x = layers._qk_backward(w, gain, saved, c, s)
    for got, want in ((fused, apart.data), (g_x, ts[0].grad), (gain.grad, ts[1].grad)):
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def make_attn_params(rng, d, n_heads, n_kv_heads):
    hd = d // n_heads
    return dict(
        wq=rng.normal(size=(d, d)) * 0.2,
        wk=rng.normal(size=(d, n_kv_heads * hd)) * 0.2,
        wv=rng.normal(size=(d, n_kv_heads * hd)) * 0.2,
        wo=rng.normal(size=(d, d)) * 0.2,
    )


def fuse_qkv(p):
    """The query, key and value weights side by side, as attention takes them."""
    return np.concatenate([p["wq"], p["wk"], p["wv"]], axis=1)


def run_attention(x, p, n_heads, n_kv_heads, cos, sin, **kw):
    wqkv = Tensor(fuse_qkv({k: t.data for k, t in p.items()}))
    out, _ = attention(x, wqkv, p["wo"], n_heads, n_kv_heads, cos, sin, **kw)
    return out


def test_attention_is_causal_bit_exact():
    rng = np.random.default_rng(11)
    d, s = 8, 6
    p = {k: Tensor(v) for k, v in make_attn_params(rng, d, 2, 2).items()}
    cos, sin = rope_tables(4, s)
    x = rng.normal(size=(1, s, d))
    base = run_attention(Tensor(x), p, 2, 2, cos, sin).data
    for t in range(1, s):
        bumped = x.copy()
        bumped[0, t] += 100.0
        out = run_attention(Tensor(bumped), p, 2, 2, cos, sin).data
        assert np.array_equal(out[0, :t], base[0, :t]), f"position {t} leaked backward"


def test_attention_gradient():
    rng = np.random.default_rng(12)
    d, s = 4, 3
    raw = make_attn_params(rng, d, 2, 2)
    cos, sin = rope_tables(2, s)
    x = rng.normal(size=(1, s, d))

    names = ["x", "wqkv", "wo"]
    arrays = [x, fuse_qkv(raw), raw["wo"]]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out, _ = attention(tensors[0], tensors[1], tensors[2], 2, 2, cos, sin)
    w = np.random.default_rng(13).normal(size=out.shape)
    (out * Tensor(w)).sum().backward()

    for k, name in enumerate(names):
        def f(a, k=k):
            probe = [Tensor(v) for v in arrays]
            probe[k] = Tensor(a)
            o, _ = attention(probe[0], probe[1], probe[2], 2, 2, cos, sin)
            return float((o * Tensor(w)).sum().data)

        assert_grad_close(tensors[k].grad, finite_difference(f, arrays[k]))


def test_grouped_kv_matches_explicit_repeat():
    # 4 query heads sharing 2 kv heads must equal attention where the kv
    # projections are duplicated per group by hand.
    rng = np.random.default_rng(14)
    d, s, hd = 8, 5, 2
    p = make_attn_params(rng, d, 4, 2)
    cos, sin = rope_tables(hd, s)
    x = rng.normal(size=(1, s, d))

    grouped = run_attention(
        Tensor(x), {k: Tensor(v) for k, v in p.items()}, 4, 2, cos, sin
    ).data

    # repeat_interleave over heads: head order [k0, k0, k1, k1]
    wk_full = np.concatenate([np.tile(p["wk"][:, i * hd:(i + 1) * hd], 2) for i in range(2)], axis=1)
    wv_full = np.concatenate([np.tile(p["wv"][:, i * hd:(i + 1) * hd], 2) for i in range(2)], axis=1)
    full = run_attention(
        Tensor(x),
        dict(wq=Tensor(p["wq"]), wk=Tensor(wk_full), wv=Tensor(wv_full), wo=Tensor(p["wo"])),
        4,
        4,
        cos,
        sin,
    ).data
    assert np.allclose(grouped, full, atol=1e-12)


def test_attention_head_count_validation():
    rng = np.random.default_rng(15)
    p = {k: Tensor(v) for k, v in make_attn_params(rng, 8, 4, 4).items()}
    cos, sin = rope_tables(2, 4)
    with pytest.raises(ValueError, match="^query head count must be a multiple of kv head count$"):
        run_attention(Tensor(rng.normal(size=(1, 4, 8))), p, 4, 3, cos, sin)
    # the rotary tables must reach the last position
    with pytest.raises(ValueError, match="^rotary table of 4 positions is shorter than the "
                                         "5 positions needed$"):
        run_attention(Tensor(rng.normal(size=(1, 5, 8))), p, 4, 4, cos, sin)


def test_incremental_kv_matches_full_forward():
    rng = np.random.default_rng(16)
    d, s = 8, 7
    p = {k: Tensor(v) for k, v in make_attn_params(rng, d, 2, 1).items()}
    cos, sin = rope_tables(4, s)
    x = rng.normal(size=(1, s, d))

    full = run_attention(Tensor(x), p, 2, 1, cos, sin).data

    wqkv = Tensor(fuse_qkv({k: t.data for k, t in p.items()}))
    kv = None
    steps = []
    for t in range(s):
        out, kv = attention(
            Tensor(x[:, t:t + 1]), wqkv, p["wo"], 2, 1, cos, sin, past_kv=kv,
        )
        steps.append(out.data)
    incremental = np.concatenate(steps, axis=1)
    assert np.max(np.abs(incremental - full)) <= 1e-8


def capture_attend_inputs(monkeypatch):
    """Record the (q, k) arrays that each call of attention hands to
    attend_forward: the live block's normalized and rotated queries and keys."""
    seen = []

    def recording(q, k, v):
        seen.append((q, k))
        return attend_forward(q, k, v)

    monkeypatch.setattr(layers, "attend_forward", recording)
    return seen


def test_qk_norm_bounds_logits_at_extreme_scale(monkeypatch):
    rng = np.random.default_rng(17)
    d, s, n_heads = 8, 6, 2
    hd = d // n_heads
    p = make_attn_params(rng, d, n_heads, n_heads)
    cos, sin = rope_tables(hd, s)
    x = Tensor(rng.normal(size=(1, s, d)) * 1e4)
    wqkv, wo = Tensor(fuse_qkv(p)), Tensor(p["wo"])
    gain = Tensor(np.ones(hd))
    seen = capture_attend_inputs(monkeypatch)
    attention(x, wqkv, wo, n_heads, n_heads, cos, sin, q_gain=gain, k_gain=gain)
    # without the normalization the same input blows far past the bound
    attention(x, wqkv, wo, n_heads, n_heads, cos, sin)
    assert len(seen) == 2
    logits, raw = (attention_scores(q, k) for q, k in seen)
    assert np.max(np.abs(logits)) <= np.sqrt(hd) + 1e-9
    assert np.max(np.abs(raw)) > 100.0 * np.sqrt(hd)
