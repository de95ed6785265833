"""Dense tensors with reverse-mode automatic differentiation.

Everything downstream (layers, losses, the training loop) computes on
:class:`Tensor`. The design is define-by-run: each operation records its
parents and a backward closure, and :meth:`Tensor.backward` walks the
resulting DAG once in reverse topological order, accumulating gradients
into every node that requires them.

Every tensor holds float64, for deterministic desk-scale testing; it is
also the dtype of the checkpoint format.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An operand lies outside the mathematical domain of the operation."""


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting trailing-dimension broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _broadcastable(a: tuple, b: tuple) -> bool:
    for x, y in zip(reversed(a), reversed(b)):
        if x != y and x != 1 and y != 1:
            return False
    return True


class Tensor:
    """A dense n-dimensional array participating in reverse-mode autodiff.

    `data` is a contiguous numpy buffer; `grad` is lazily allocated during
    the reverse pass and always matches `data` in shape. Tensors are
    treated as immutable after construction except for gradient
    accumulation (and in-place parameter updates by the optimizer, which
    owns its leaves).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward_fn=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward_fn = _backward_fn

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # autodiff plumbing
    # ------------------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad=None) -> None:
        """Run one reverse pass from this tensor through its DAG.

        Every node is visited exactly once, in reverse topological order,
        so gradients along multiple paths accumulate by summation.
        """
        if grad is None:
            if self.data.ndim != 0 and self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ShapeMismatchError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}")

        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data, parents, backward_fn) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires,
                      _parents=tuple(p for p in parents if p.requires_grad) if requires else (),
                      _backward_fn=backward_fn if requires else None)

    # ------------------------------------------------------------------
    # elementwise arithmetic (trailing-dimension broadcasting)
    # ------------------------------------------------------------------

    def _check_broadcast(self, other: "Tensor", op: str) -> None:
        if not _broadcastable(self.shape, other.shape):
            raise ShapeMismatchError(
                f"{op}: shapes {self.shape} and {other.shape} are not broadcastable")

    def __add__(self, other):
        other = self._lift(other)
        self._check_broadcast(other, "add")
        a, b = self, other

        def backward_fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return self._make(a.data + b.data, (a, b), backward_fn)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        self._check_broadcast(other, "sub")
        a, b = self, other

        def backward_fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.shape))

        return self._make(a.data - b.data, (a, b), backward_fn)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        self._check_broadcast(other, "mul")
        a, b = self, other

        def backward_fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return self._make(a.data * b.data, (a, b), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        self._check_broadcast(other, "div")
        if np.any(other.data == 0):
            raise DomainError("div: divisor contains zero")
        a, b = self, other

        def backward_fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return self._make(a.data / b.data, (a, b), backward_fn)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        a = self

        def backward_fn(g):
            a._accumulate(-g)

        return self._make(-a.data, (a,), backward_fn)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("pow expects a scalar exponent")
        if exponent != int(exponent) and np.any(self.data < 0):
            raise DomainError("pow: negative base with non-integer exponent")
        a = self
        out_data = a.data ** exponent

        def backward_fn(g):
            a._accumulate(g * exponent * a.data ** (exponent - 1))

        return self._make(out_data, (a,), backward_fn)

    def exp(self):
        a = self
        out_data = np.exp(a.data)

        def backward_fn(g):
            a._accumulate(g * out_data)

        return self._make(out_data, (a,), backward_fn)

    def log(self):
        if np.any(self.data <= 0):
            raise DomainError("log: operand contains non-positive values")
        a = self

        def backward_fn(g):
            a._accumulate(g / a.data)

        return self._make(np.log(a.data), (a,), backward_fn)

    def sigmoid(self):
        a = self
        # two-branch form avoids overflow for large |x|
        out_data = np.where(a.data >= 0,
                            1.0 / (1.0 + np.exp(-np.abs(a.data))),
                            np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))

        def backward_fn(g):
            a._accumulate(g * out_data * (1.0 - out_data))

        return self._make(out_data, (a,), backward_fn)

    def sqrt(self):
        if np.any(self.data < 0):
            raise DomainError("sqrt: operand contains negative values")
        a = self
        out_data = np.sqrt(a.data)

        def backward_fn(g):
            a._accumulate(g * 0.5 / out_data)

        return self._make(out_data, (a,), backward_fn)

    # ------------------------------------------------------------------
    # matrix product
    # ------------------------------------------------------------------

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self, other
        if a.ndim < 2 or b.ndim < 2:
            raise ShapeMismatchError("matmul expects tensors with ndim >= 2")
        if a.shape[-1] != b.shape[-2]:
            raise ShapeMismatchError(
                f"matmul: inner dimensions disagree ({a.shape} @ {b.shape})")
        out_data = a.data @ b.data

        def backward_fn(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

        return self._make(out_data, (a, b), backward_fn)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def _normalize_axis(self, axis):
        if axis is None:
            return None
        if not -self.ndim <= axis < self.ndim:
            raise ShapeMismatchError(f"axis {axis} invalid for shape {self.shape}")
        axis = axis % self.ndim
        if self.shape[axis] == 0:
            raise ShapeMismatchError(f"cannot reduce over empty axis {axis}")
        return axis

    def sum(self, axis=None, keepdims=False):
        axis = self._normalize_axis(axis)
        if axis is None and self.size == 0:
            raise ShapeMismatchError("cannot reduce an empty tensor")
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

        return self._make(out_data, (a,), backward_fn)

    def mean(self, axis=None, keepdims=False):
        axis = self._normalize_axis(axis)
        if axis is None and self.size == 0:
            raise ShapeMismatchError("cannot reduce an empty tensor")
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims=False):
        axis = self._normalize_axis(axis)
        if axis is None and self.size == 0:
            raise ShapeMismatchError("cannot reduce an empty tensor")
        a = self
        out_data = a.data.max(axis=axis, keepdims=keepdims)

        def backward_fn(g):
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = (a.data == expanded)
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            a._accumulate(g * mask / counts)

        return self._make(out_data, (a,), backward_fn)

    def rms(self, axis=None, keepdims=False):
        """Root-mean-square reduction (feeds the output-norm monitor)."""
        return ((self * self).mean(axis=axis, keepdims=keepdims)).sqrt()

    # ------------------------------------------------------------------
    # softmax family
    # ------------------------------------------------------------------

    def softmax(self, axis=-1):
        """Numerically stable softmax along `axis`.

        The running maximum is subtracted before exponentiation, so
        shifting the input by a constant along `axis` (when the shifted
        values are exactly representable) leaves the output bit-identical.
        """
        axis = self._normalize_axis(axis)
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        out_data = exps / exps.sum(axis=axis, keepdims=True)

        def backward_fn(g):
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - inner))

        return self._make(out_data, (a,), backward_fn)

    def log_softmax(self, axis=-1):
        axis = self._normalize_axis(axis)
        a = self
        m = a.data.max(axis=axis, keepdims=True)
        shifted = a.data - m
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - lse
        soft = np.exp(out_data)

        def backward_fn(g):
            a._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

        return self._make(out_data, (a,), backward_fn)

    def logsumexp(self, axis=-1, keepdims=False):
        """log(sum(exp(x))) with max-shift: log Z = m + log sum exp(x - m)."""
        axis = self._normalize_axis(axis)
        a = self
        m = a.data.max(axis=axis, keepdims=True)
        out_keep = m + np.log(np.exp(a.data - m).sum(axis=axis, keepdims=True))
        soft = np.exp(a.data - out_keep)
        out_data = out_keep if keepdims else np.squeeze(out_keep, axis=axis)

        def backward_fn(g):
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(soft * g)

        return self._make(out_data, (a,), backward_fn)

    # ------------------------------------------------------------------
    # structural ops
    # ------------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self

        def backward_fn(g):
            a._accumulate(g.reshape(a.shape))

        return self._make(a.data.reshape(shape), (a,), backward_fn)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        a = self
        inverse = np.argsort(axes)

        def backward_fn(g):
            a._accumulate(g.transpose(inverse))

        return self._make(a.data.transpose(axes), (a,), backward_fn)

    def swapaxes(self, ax1, ax2):
        a = self

        def backward_fn(g):
            a._accumulate(np.swapaxes(g, ax1, ax2))

        return self._make(np.swapaxes(a.data, ax1, ax2), (a,), backward_fn)

    def __getitem__(self, key):
        a = self
        out_data = a.data[key]

        def backward_fn(g):
            full = np.zeros_like(a.data)
            np.add.at(full, key, g)
            a._accumulate(full)

        return self._make(out_data, (a,), backward_fn)

    def masked_fill(self, mask, value):
        """Replace entries where `mask` (bool array) is True with `value`.

        The replaced entries carry no gradient, so downstream computation
        is exactly independent of the masked inputs.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.shape:
            raise ShapeMismatchError(
                f"masked_fill: mask shape {mask.shape} != tensor shape {self.shape}")
        a = self
        out_data = np.where(mask, np.asarray(value, dtype=a.data.dtype), a.data)

        def backward_fn(g):
            a._accumulate(np.where(mask, 0.0, g))

        return self._make(out_data, (a,), backward_fn)

    def repeat_interleave(self, repeats: int, axis: int):
        """Tile each slice along `axis` `repeats` times (GQA head sharing)."""
        axis = axis % self.ndim
        a = self
        out_data = np.repeat(a.data, repeats, axis=axis)

        def backward_fn(g):
            new_shape = a.shape[:axis] + (a.shape[axis], repeats) + a.shape[axis + 1:]
            a._accumulate(g.reshape(new_shape).sum(axis=axis + 1))

        return self._make(out_data, (a,), backward_fn)


# ----------------------------------------------------------------------
# free functions used by layers and losses
# ----------------------------------------------------------------------


def embedding(weight: Tensor, ids) -> Tensor:
    """Row lookup `weight[ids]`; backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= weight.shape[0]):
        raise IndexError(f"token id out of range [0, {weight.shape[0]})")
    w = weight
    out_data = w.data[ids]

    def backward_fn(g):
        full = np.zeros_like(w.data)
        np.add.at(full, ids, g)
        w._accumulate(full)

    return w._make(out_data, (w,), backward_fn)


def pick(x: Tensor, idx) -> Tensor:
    """Select one entry per row of a 2-d tensor: out[i] = x[i, idx[i]]."""
    idx = np.asarray(idx, dtype=np.int64)
    if x.ndim != 2 or idx.shape != (x.shape[0],):
        raise ShapeMismatchError(f"pick: need [n, v] tensor and n indices, got {x.shape} / {idx.shape}")
    if np.any(idx < 0) or np.any(idx >= x.shape[1]):
        raise IndexError("pick: index out of range")
    a = x
    rows = np.arange(x.shape[0])
    out_data = a.data[rows, idx]

    def backward_fn(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, idx), g)
        a._accumulate(full)

    return a._make(out_data, (a,), backward_fn)


def concat(tensors, axis=0) -> Tensor:
    tensors = [Tensor._lift(t) for t in tensors]
    axis = axis % tensors[0].ndim
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward_fn(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accumulate(piece)

    return tensors[0]._make(out_data, tensors, backward_fn)
