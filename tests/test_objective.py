import numpy as np
import pytest

from chamtoy.numerics import Tensor
from chamtoy.objective import total_loss

from test_numerics import assert_grad_close, finite_difference


def test_uniform_logits_give_log_vocab():
    logits = Tensor(np.zeros((3, 4)))
    out = total_loss(logits, [0, 1, 3], z_coeff=0.0).total
    assert float(out.data) == pytest.approx(np.log(4.0), abs=1e-12)


def test_cross_entropy_hand_value():
    # probs [1/4, 3/4]; target 1 -> -ln 0.75
    logits = Tensor(np.array([[0.0, np.log(3.0)]]))
    assert total_loss(logits, [1]).cross_entropy == pytest.approx(
        0.2876820724517809, abs=1e-12
    )


def test_cross_entropy_shift_invariant():
    rng = np.random.default_rng(0)
    base = rng.integers(-8, 8, size=(5, 7)).astype(np.float64)
    a = total_loss(Tensor(base), [0, 1, 2, 3, 4]).cross_entropy
    b = total_loss(Tensor(base + 32.0), [0, 1, 2, 3, 4]).cross_entropy
    assert a == b  # integer logits plus integer shift round-trips exactly


def test_z_loss_shift_sensitive():
    base = np.zeros((2, 4))
    assert total_loss(Tensor(base), [0, 1]).z_loss != total_loss(Tensor(base + 3.0), [0, 1]).z_loss


def test_z_loss_zero_logits_hand_value():
    # log Z = ln 4 -> coeff * ln(4)^2 = 1.9218120556728056e-05
    val = total_loss(Tensor(np.zeros((1, 4))), [0], z_coeff=1e-5).z_loss
    assert val == pytest.approx(1.9218120556728056e-05, abs=1e-10)


def test_z_loss_minimized_when_normalizer_is_one():
    # log Z = 0 exactly when sum(exp(logits)) = 1
    logits = np.full((1, 4), np.log(0.25))
    assert total_loss(Tensor(logits), [0]).z_loss == pytest.approx(0.0, abs=1e-12)


def test_total_loss_is_sum_of_parts():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(6, 5)))
    targets = rng.integers(0, 5, size=6)
    bd = total_loss(logits, targets)
    assert float(bd.total.data) == pytest.approx(bd.cross_entropy + bd.z_loss, abs=1e-14)


def test_mask_excludes_rows_from_value():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(4, 5))
    targets = [0, 1, 2, 3]
    masked = total_loss(Tensor(logits), targets, mask=[1, 1, 0, 0]).cross_entropy
    only = total_loss(Tensor(logits[:2]), targets[:2]).cross_entropy
    assert masked == pytest.approx(only, abs=1e-14)


def test_masked_rows_get_exactly_zero_gradient():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    bd = total_loss(logits, [0, 1, 2, 3], mask=[1, 0, 1, 0])
    bd.total.backward()
    assert np.all(logits.grad[1] == 0.0)
    assert np.all(logits.grad[3] == 0.0)
    assert np.any(logits.grad[0] != 0.0)


def test_all_zero_mask_rejected():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^loss mask selects no tokens$"):
        total_loss(logits, [0, 1], mask=[0, 0])
    # and the other input checks, each before any arithmetic
    with pytest.raises(ValueError, match=r"^logits must be rank 2 or 3, got shape \(3,\)$"):
        total_loss(Tensor(np.zeros(3)), [0])
    with pytest.raises(ValueError, match="^targets do not match logits rows$"):
        total_loss(logits, [0, 1, 2])
    # one row per target: 6 rows of 7 are not 3 rows of 14
    with pytest.raises(ValueError, match="^targets do not match logits rows$"):
        total_loss(Tensor(np.zeros((6, 7))), [0, 1, 2])
    for bad in (-1, 3):
        with pytest.raises(IndexError, match="^target id out of vocabulary range$"):
            total_loss(logits, [0, bad])
    with pytest.raises(ValueError, match="^mask does not match logits rows$"):
        total_loss(logits, [0, 1], mask=[1, 1, 1])


def test_rank3_inputs_flattened():
    logits = Tensor(np.zeros((2, 3, 4)))
    out = total_loss(logits, np.zeros((2, 3), dtype=int), z_coeff=0.0).total
    assert float(out.data) == pytest.approx(np.log(4.0), abs=1e-12)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 6))
    targets = rng.integers(0, 6, size=5)
    mask = np.array([1, 1, 0, 1, 1], dtype=float)

    t = Tensor(logits, requires_grad=True)
    total_loss(t, targets, mask=mask).total.backward()

    def f(a):
        return float(total_loss(Tensor(a), targets, mask=mask).total.data)

    assert_grad_close(t.grad, finite_difference(f, logits))


def test_gradient_descent_on_ce_reaches_target():
    # a few steps of plain gradient descent should raise the target prob
    logits = Tensor(np.zeros((1, 4)), requires_grad=True)
    for _ in range(50):
        logits.grad = None
        loss = total_loss(logits, [2], z_coeff=0.0).total
        loss.backward()
        logits.data -= 1.0 * logits.grad
    probs = np.exp(logits.data) / np.exp(logits.data).sum()
    assert probs[0, 2] > 0.9
