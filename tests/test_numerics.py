import numpy as np
import pytest

from chamtoy.layers import causal_mask
from chamtoy.numerics import (
    ShapeMismatchError,
    Tensor,
    attend,
    embedding,
    gated_silu,
    lm_loss,
    normalize,
    rotate_pairs,
)
from chamtoy.objective import cross_entropy, total_loss, z_loss


def finite_difference(f, x, step=1e-5):
    """Central-difference gradient of scalar f with respect to array x.

    Independent oracle: never touches the autodiff machinery.
    """
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        grad[i] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def assert_grad_close(analytic, numeric, rel=1e-4):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    err = np.max(np.abs(analytic - numeric) / denom)
    assert err < rel, f"gradient mismatch: max relative error {err}"


def check_op_gradient(op, arrays, seed_extra=0, step=1e-5):
    """Compare backward() against finite differences for one op.

    `op` maps a list of Tensors to a Tensor; the test reduces the output
    to a scalar with fixed random weights so every output entry matters.
    """
    rng = np.random.default_rng(991 + seed_extra)
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(tensors)
    weights = rng.normal(size=out.shape)
    (out * Tensor(weights)).sum().backward()

    for k, base in enumerate(arrays):
        def scalar_f(x, k=k):
            probe = [Tensor(a) for a in arrays]
            probe[k] = Tensor(x)
            return float((op(probe) * Tensor(weights)).sum().data)

        assert_grad_close(tensors[k].grad, finite_difference(scalar_f, base, step))


# ----------------------------------------------------------------------
# hand-checked values
# ----------------------------------------------------------------------


def test_add_componentwise():
    out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
    assert np.array_equal(out.data, [4.0, 6.0])


def test_mul_square_gradient():
    x = Tensor([3.0], requires_grad=True)
    (x * x).sum().backward()
    assert np.array_equal(x.grad, [6.0])


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal((eye @ m).data, m.data)


def test_matmul_dot_product():
    out = Tensor([[1.0, 2.0]]) @ Tensor([[3.0], [4.0]])
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_sum_and_mean():
    assert float(Tensor([1.0, 2.0, 3.0]).sum().data) == 6.0


def test_full_sum_of_float32_is_float32_and_so_is_its_gradient():
    # numpy reduces float32 data over all axes to an np.float32 scalar
    leaf = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    total = leaf.sum()
    total.backward()
    assert total.data.dtype == np.float32 and isinstance(total.data, np.ndarray)
    assert leaf.grad.dtype == np.float32


def loss_softmax(x):
    """The softmax that training uses, lm_loss's, read off the cross-entropy
    gradient: row i of it is (softmax(x[i]) - onehot(0)) / rows."""
    t = Tensor(np.atleast_2d(x), requires_grad=True)
    cross_entropy(t, np.zeros(t.shape[0], dtype=np.int64)).backward()
    soft = t.grad * t.shape[0]
    soft[:, 0] += 1.0
    return soft


def test_softmax_uniform():
    out = loss_softmax([0.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, 0.25, atol=1e-15)


def test_softmax_translation_invariance_bit_exact():
    a = loss_softmax([1.0, 2.0, 3.0])
    b = loss_softmax([101.0, 102.0, 103.0])
    assert np.array_equal(a, b)


def test_softmax_hand_value():
    # e^0 = 1, e^{ln 3} = 3 -> [1/4, 3/4]
    out = loss_softmax([0.0, np.log(3.0)])
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    sums = loss_softmax(rng.normal(size=(5, 9)) * 10.0).sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)


def test_three_node_dag_sum_of_paths():
    # y = x*x + x: two paths, dy/dx = 2x + 1 = 5 at x = 2
    x = Tensor([2.0], requires_grad=True)
    y = x * x + x
    y.sum().backward()
    assert np.array_equal(x.grad, [5.0])


def test_reverse_pass_visits_shared_node_once():
    # z = (x + x) * (x + x): grad = 8x; double-counting would give 16x
    x = Tensor([1.5], requires_grad=True)
    s = x + x
    (s * s).sum().backward()
    assert np.array_equal(x.grad, [12.0])


# ----------------------------------------------------------------------
# error contracts
# ----------------------------------------------------------------------


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatchError):
        Tensor(np.ones((2, 3))) + Tensor(np.ones((2, 4)))


def test_matmul_inner_mismatch_raises():
    with pytest.raises(ShapeMismatchError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((4, 2)))


def test_backward_requires_scalar_output():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_second_backward_through_a_released_graph_raises():
    x = Tensor([1.5, -2.0], requires_grad=True)
    s = x * x
    loss = s.sum()
    loss.backward()
    assert np.array_equal(x.grad, [3.0, -4.0])
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    # a new op on a released interior node reaches the released closure
    with pytest.raises(RuntimeError, match="released"):
        (s * 2.0).sum().backward()
    # both raise before any gradient moves
    assert loss.grad == 1.0
    assert np.array_equal(s.grad, [1.0, 1.0])
    assert np.array_equal(x.grad, [3.0, -4.0])
    # a fresh graph on the same leaves accumulates as before
    (x * x).sum().backward()
    assert np.array_equal(x.grad, [6.0, -8.0])


def test_empty_axis_reduction_rejected():
    with pytest.raises(ShapeMismatchError):
        Tensor(np.ones((0, 3))).sum(axis=0)


def test_broadcasting_trailing_dims():
    out = Tensor(np.ones((2, 3))) + Tensor(np.ones(3))
    assert out.shape == (2, 3)
    x = Tensor(np.ones(3), requires_grad=True)
    (Tensor(np.ones((2, 3))) * x).sum().backward()
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


# ----------------------------------------------------------------------
# finite-difference checks across the op vocabulary
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_matmul_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    check_op_gradient(lambda ts: ts[0] @ ts[1], [a, b], seed_extra=seed)


@pytest.mark.parametrize("seed", range(3))
def test_elementwise_gradients(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 3)) + 3.0
    check_op_gradient(lambda ts: ts[0] + ts[1], [a, b], seed_extra=seed)
    check_op_gradient(lambda ts: ts[0] * ts[1], [a, b], seed_extra=seed)


@pytest.mark.parametrize("seed", range(3))
def test_reduction_and_softmax_gradients(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.normal(size=(3, 4))
    check_op_gradient(lambda ts: ts[0].sum(axis=1), [a], seed_extra=seed)
    check_op_gradient(lambda ts: cross_entropy(ts[0], [2, 0, 3]), [a], seed_extra=seed)


def test_leading_axes_matmul_gradients():
    # a [2, 3, 4] input against a [4, 5] weight runs as one [6, 4] @ [4, 5] GEMM
    rng = np.random.default_rng(17)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(4, 5))
    out = (Tensor(a) @ Tensor(b)).data
    assert np.max(np.abs(out - np.einsum("ijk,kl->ijl", a, b))) <= 1e-12
    check_op_gradient(lambda ts: ts[0] @ ts[1], [a, b])


def test_matmul_rejects_batched_right_operand():
    with pytest.raises(ShapeMismatchError):
        Tensor(np.ones((2, 3, 4))) @ Tensor(np.ones((2, 4, 5)))


def test_embedding_scatter_gradient():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = embedding(table, [1, 1, 3])
    out.sum().backward()
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    assert np.array_equal(table.grad, expected)


def test_embedding_rejects_out_of_range():
    table = Tensor(np.zeros((4, 3)))
    with pytest.raises(IndexError):
        embedding(table, [4])


def test_grad_shape_matches_data():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    (x * 2.0).sum().backward()
    assert x.grad.shape == x.data.shape


# ----------------------------------------------------------------------
# fused nodes against numpy references of the compositions they replace
# ----------------------------------------------------------------------


def _softmax_ref(x, mask):
    x = np.where(mask, -np.inf, x)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attend_ref(q, k, v, mask):
    """repeat_interleave of the kv heads, scaled scores, masked softmax, @ v."""
    group = q.shape[1] // k.shape[1]
    k, v = np.repeat(k, group, axis=1), np.repeat(v, group, axis=1)
    scores = (q @ np.swapaxes(k, -1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    return _softmax_ref(scores, mask) @ v


@pytest.mark.parametrize("past", [0, 3], ids=["prefill", "past-kv"])
def test_attend_grouped_causal_matches_composition_and_finite_differences(past):
    # 4 query heads over 2 kv heads; with past entries the queries sit at
    # the end of a longer key sequence, the mask cut as attention cuts it
    rng = np.random.default_rng(31 + past)
    b, h, kv, s, hd = 2, 4, 2, 3, 4
    total = past + s
    q = rng.normal(size=(b, h, s, hd))
    k = rng.normal(size=(b, kv, total, hd))
    v = rng.normal(size=(b, kv, total, hd))
    mask = np.triu(np.ones((total, total), dtype=bool), k=1)[total - s:, :]
    out = attend(Tensor(q), Tensor(k), Tensor(v), mask).data
    assert out.shape == (b, h, s, hd)
    assert np.max(np.abs(out - _attend_ref(q, k, v, mask))) <= 1e-12
    check_op_gradient(lambda ts: attend(ts[0], ts[1], ts[2], mask), [q, k, v])


def test_attend_masked_keys_get_zero_gradient():
    rng = np.random.default_rng(33)
    q, k, v = (rng.normal(size=(1, 2, 3, 2)) for _ in range(3))
    mask = np.triu(np.ones((3, 3), dtype=bool), k=1)
    tk, tv = Tensor(k, requires_grad=True), Tensor(v, requires_grad=True)
    # only the first query row is weighted: it may look at key 0 alone
    w = np.zeros((1, 2, 3, 2))
    w[:, :, 0] = 1.0
    (attend(Tensor(q), tk, tv, mask) * Tensor(w)).sum().backward()
    assert np.all(tv.grad[:, :, 1:] == 0.0) and np.all(tk.grad == 0.0)


def test_gated_silu_matches_composition_and_finite_differences():
    rng = np.random.default_rng(35)
    a = rng.normal(size=(3, 5)) * 3.0
    a[0, :4] = [45.0, -45.0, 800.0, -800.0]  # |a| > 40: exp(-|a|) underflows toward 0
    b = rng.normal(size=(3, 5))
    out = gated_silu(Tensor(a), Tensor(b)).data
    sig = np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.abs(a))),
                   np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a))))
    assert np.array_equal(out, a * sig * b)
    assert np.all(np.isfinite(out))
    check_op_gradient(lambda ts: gated_silu(ts[0], ts[1]), [a[1:], b[1:]])
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    gated_silu(ta, tb).sum().backward()
    # d silu/da -> 1 far right of zero and -> 0 far left
    assert np.allclose(ta.grad[0, [0, 2]], b[0, [0, 2]], rtol=0, atol=1e-15)
    assert np.all(np.abs(ta.grad[0, [1, 3]]) < 1e-15)
    assert np.all(np.isfinite(ta.grad)) and np.all(np.isfinite(tb.grad))


def _loss_ref(logits, targets, mask, z_coeff):
    """log_softmax, pick, logsumexp and the two masked means in numpy."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    sums = np.exp(shifted).sum(axis=-1, keepdims=True)
    logp = shifted - np.log(sums)
    log_z = (logits.max(axis=-1, keepdims=True) + np.log(sums))[:, 0]
    n = float(mask.sum())
    ce = (-logp[np.arange(len(targets)), targets] * mask).sum() * (1.0 / n)
    z = (log_z * log_z * mask).sum() * (1.0 / n) * z_coeff
    return ce, z


def test_lm_loss_matches_composition_and_finite_differences():
    rng = np.random.default_rng(37)
    logits = rng.normal(size=(6, 7)) * 3.0 + 2.0
    targets = rng.integers(0, 7, size=6)
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    total, ce, z = lm_loss(Tensor(logits), targets, mask, 0.1)
    ref_ce, ref_z = _loss_ref(logits, targets, mask, 0.1)
    assert (ce, z) == (ref_ce, ref_z)
    assert float(total.data) == ce + z
    # the objective's three entry points are thin callers of the same node
    bd = total_loss(Tensor(logits), targets, mask=mask, z_coeff=0.1)
    assert float(bd.total.data) == float(total.data)
    assert (float(bd.cross_entropy.data)
            == float(cross_entropy(Tensor(logits), targets, mask=mask).data) == ce)
    assert float(bd.z_loss.data) == float(z_loss(Tensor(logits), mask=mask, coeff=0.1).data) == z
    for coeff, tg in ((0.1, targets), (0.0, targets), (0.1, None)):
        check_op_gradient(lambda ts: lm_loss(ts[0], tg, mask, coeff)[0], [logits])
    t = Tensor(logits, requires_grad=True)
    lm_loss(t, targets, mask, 0.1)[0].backward()
    assert np.all(t.grad[mask == 0.0] == 0.0)


# ----------------------------------------------------------------------
# kernels at the edges: float32 against float64, decode shape, layout
# ----------------------------------------------------------------------


def _rope_rows(rng, seq, hd):
    angles = rng.uniform(0.0, 6.0, size=(seq, hd // 2))
    c = np.repeat(np.cos(angles), 2, axis=-1)
    s = (np.sin(angles)[:, :, None] * np.array([-1.0, 1.0])).reshape(seq, hd)
    return c, s


def _kernel_cases(scale):
    """(name, op, float64 inputs) for each rewritten node; `scale`
    multiplies the inputs, so the same cases run at +-800."""
    rng = np.random.default_rng(61)
    b, h, kv, s, hd = 2, 4, 2, 5, 4
    causal = causal_mask(s, s)
    c, sn = _rope_rows(rng, s, hd)
    targets = rng.integers(0, 7, size=6)
    rows = np.array([1.0, 0.0, 1.0, 1.0, 1.0, 0.0])

    def r(*shape):
        return rng.normal(size=shape) * scale

    return [
        ("attend", lambda ts: attend(ts[0], ts[1], ts[2], causal),
         [r(b, h, s, hd), r(b, kv, s, hd), r(b, kv, s, hd)]),
        ("attend-decode", lambda ts: attend(ts[0], ts[1], ts[2], causal_mask(1, 6)),
         [r(b, h, 1, hd), r(b, kv, 6, hd), r(b, kv, 6, hd)]),
        ("rms-norm", lambda ts: normalize(ts[0], ts[1], 1e-5, False), [r(3, 5, 8), r(8)]),
        ("qk-norm", lambda ts: normalize(ts[0], ts[1], 1e-5, True),
         [r(b, s, h, hd).transpose(0, 2, 1, 3), r(hd)]),
        ("gated-silu", lambda ts: gated_silu(ts[0], ts[1]), [r(3, 4, 6), r(3, 4, 6)]),
        # the tables in the compute dtype, as the model caches them
        ("rotate-pairs", lambda ts: rotate_pairs(ts[0], *(t.astype(ts[0].data.dtype) for t in (c, sn))),
         [r(b, h, s, hd)]),
        ("lm-loss", lambda ts: lm_loss(ts[0], targets, rows, 0.1)[0], [r(2, 3, 7)]),
        ("qk-norm-rotate",
         lambda ts: normalize(ts[0], ts[1], 1e-5, True,
                              rotate=tuple(t.astype(ts[0].data.dtype) for t in (c, sn))),
         [r(b, s, h, hd).transpose(0, 2, 1, 3), r(hd)]),
    ]


def _forward_backward(op, arrays, dtype):
    """The node's output and its inputs' gradients under fixed output weights."""
    tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = op(tensors)
    weights = np.random.default_rng(62).normal(size=out.shape).astype(dtype)
    (out * Tensor(weights)).sum().backward()
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize("case", _kernel_cases(1.0), ids=lambda case: case[0])
def test_float32_kernels_match_float64(case):
    name, op, arrays = case
    wide = _forward_backward(op, arrays, np.float64)
    narrow = _forward_backward(op, arrays, np.float32)
    for got, want in zip(narrow, wide):
        assert got.dtype == np.float32
        assert np.max(np.abs(got - want)) <= 1e-5 * max(1.0, np.max(np.abs(want))), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernels_take_inputs_of_800_without_warnings(dtype):
    # pyproject turns every RuntimeWarning (overflow, invalid) into an error
    for name, op, arrays in _kernel_cases(800.0):
        for got in _forward_backward(op, arrays, dtype):
            assert np.all(np.isfinite(got)), name


def test_attend_decode_step_matches_composition_and_finite_differences():
    # one query per head over a cache of 6 keys: no key is masked
    rng = np.random.default_rng(63)
    q = rng.normal(size=(2, 4, 1, 3))
    k, v = rng.normal(size=(2, 2, 6, 3)), rng.normal(size=(2, 2, 6, 3))
    mask = causal_mask(1, 6)
    assert not mask.any()
    out = attend(Tensor(q), Tensor(k), Tensor(v), mask).data
    assert np.max(np.abs(out - _attend_ref(q, k, v, mask))) <= 1e-12
    check_op_gradient(lambda ts: attend(ts[0], ts[1], ts[2], mask), [q, k, v])


def test_attend_outputs_do_not_depend_on_later_queries():
    # keys-major scores stack the queries of a kv group as columns: each
    # query's softmax must read its own column and its own mask row
    rng = np.random.default_rng(64)
    q = rng.normal(size=(2, 4, 7, 4))
    k, v = rng.normal(size=(2, 2, 7, 4)), rng.normal(size=(2, 2, 7, 4))
    full = attend(Tensor(q), Tensor(k), Tensor(v), causal_mask(7, 7)).data
    for p in range(1, 7):
        part = attend(Tensor(q[:, :, :p]), Tensor(k[:, :, :p]), Tensor(v[:, :, :p]),
                      causal_mask(p, p)).data
        assert np.max(np.abs(part - full[:, :, :p])) <= 1e-12, p


def test_attend_single_visible_key_gets_exactly_zero_score_gradient():
    # a query that sees one key has softmax 1 whatever its score, so no key
    # may get a gradient through it; D = rowsum(dO * O) misses this by
    # rounding on most draws, D = rowsum(dP * P) cancels exactly
    for seed in range(40):
        rng = np.random.default_rng(seed)
        hd = (2, 4, 16)[seed % 3]
        q, k, v = (rng.normal(size=(1, 2, 3, hd)) for _ in range(3))
        tk = Tensor(k, requires_grad=True)
        w = np.zeros((1, 2, 3, hd))
        w[:, :, 0] = rng.normal(size=hd)
        (attend(Tensor(q), tk, Tensor(v), causal_mask(3, 3)) * Tensor(w)).sum().backward()
        assert np.all(tk.grad == 0.0), seed
