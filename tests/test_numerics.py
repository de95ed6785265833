import numpy as np
import pytest

from chamtoy.numerics import (
    ShapeMismatchError,
    Tensor,
    concat,
    embedding,
    pick,
)


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
    assert Tensor([1.0, 2.0, 3.0]).sum().item() == 6.0


def test_softmax_uniform():
    out = Tensor([0.0, 0.0, 0.0, 0.0]).softmax(axis=0)
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_softmax_translation_invariance_bit_exact():
    a = Tensor([1.0, 2.0, 3.0]).softmax(axis=0)
    b = Tensor([101.0, 102.0, 103.0]).softmax(axis=0)
    assert np.array_equal(a.data, b.data)


def test_softmax_hand_value():
    # e^0 = 1, e^{ln 3} = 3 -> [1/4, 3/4]
    out = Tensor([0.0, np.log(3.0)]).softmax(axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 9)) * 10.0)
    sums = x.softmax(axis=1).data.sum(axis=1)
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
    check_op_gradient(lambda ts: ts[0].sigmoid(), [a * 2.0], seed_extra=seed)
    check_op_gradient(lambda ts: (-ts[0]), [a], seed_extra=seed)


@pytest.mark.parametrize("seed", range(3))
def test_reduction_and_softmax_gradients(seed):
    rng = np.random.default_rng(200 + seed)
    a = rng.normal(size=(3, 4))
    check_op_gradient(lambda ts: ts[0].sum(axis=1), [a], seed_extra=seed)
    check_op_gradient(lambda ts: ts[0].softmax(axis=1), [a], seed_extra=seed)
    check_op_gradient(lambda ts: ts[0].log_softmax(axis=1), [a], seed_extra=seed)
    check_op_gradient(lambda ts: ts[0].logsumexp(axis=1), [a], seed_extra=seed)


@pytest.mark.parametrize("seed", range(3))
def test_structural_gradients(seed):
    rng = np.random.default_rng(300 + seed)
    a = rng.normal(size=(2, 3, 4))
    check_op_gradient(lambda ts: ts[0].reshape(6, 4), [a], seed_extra=seed)
    check_op_gradient(lambda ts: ts[0].transpose(2, 0, 1), [a], seed_extra=seed)
    check_op_gradient(lambda ts: ts[0].swapaxes(0, 2), [a], seed_extra=seed)
    check_op_gradient(lambda ts: ts[0].repeat_interleave(3, axis=1), [a], seed_extra=seed)


def test_masked_softmax_is_fill_then_softmax_with_zero_masked_gradient():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(2, 3, 4, 4))
    mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
    t = Tensor(x, requires_grad=True)
    out = t.softmax(axis=-1, mask=mask)
    filled = Tensor(np.where(mask, -np.inf, x)).softmax(axis=-1)
    assert np.array_equal(out.data, filled.data)
    assert np.all(out.data[..., mask] == 0.0)
    (out * Tensor(rng.normal(size=out.shape))).sum().backward()
    assert np.all(t.grad[..., mask] == 0.0)
    check_op_gradient(lambda ts: ts[0].softmax(axis=-1, mask=mask), [x])


def test_batched_matmul_gradients():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(2, 4, 5))
    check_op_gradient(lambda ts: ts[0] @ ts[1], [a, b])


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


def test_pick_selects_and_scatters():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = pick(x, [2, 0])
    assert np.array_equal(out.data, [2.0, 3.0])
    out.sum().backward()
    expected = np.zeros((2, 3))
    expected[0, 2] = 1.0
    expected[1, 0] = 1.0
    assert np.array_equal(x.grad, expected)


def test_concat_gradient():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 3))
    check_op_gradient(lambda ts: concat(ts, axis=0), [a, b])


def test_grad_shape_matches_data():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    (x * 2.0).sum().backward()
    assert x.grad.shape == x.data.shape
