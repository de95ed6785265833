"""Dense tensors with reverse-mode automatic differentiation.

Everything downstream (layers, losses, the training loop) computes on
:class:`Tensor`. The design is define-by-run: each operation records its
parents and a backward closure, and :meth:`Tensor.backward` walks the
resulting DAG once in reverse topological order, accumulating gradients
into every node that requires them.  A backward closure hands an array it
has just made to an empty ``.grad`` as it is (`Tensor._take`) and copies
one that it shares or that views another (`Tensor._accumulate`), so every
``.grad`` owns its memory.

The reverse pass releases the graph as it consumes it: as the pass leaves
an interior node, having run its backward, the node drops its closure
(with every array the closure saved) and its links to its parents.  An
interior node that nothing else holds is freed then, with its data and its
gradient; a tensor the caller holds (the loss, the logits) keeps its data
and its ``.grad``.  A released graph cannot be walked twice: a second
``backward()`` through any of its interior nodes raises ``RuntimeError``
before any gradient moves, while a fresh graph built on the same leaves
works as before.

A tensor holds float64, the dtype of parameters, checkpoints, decode and
every gradient check, unless it is built from a float32 array: the training
step computes in float32, and every op keeps the dtype of its inputs.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


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


_FLOATS = (np.dtype(np.float64), np.dtype(np.float32))


def _released(grad: np.ndarray) -> None:
    """The backward closure of a node that a reverse pass has consumed."""
    raise RuntimeError(
        "backward() reached a node whose graph an earlier backward() released; "
        "build the graph again from its leaves")


class Tensor:
    """A dense n-dimensional array participating in reverse-mode autodiff.

    `data` is a float64 or float32 numpy array, not always contiguous
    (a kernel that wants C order copies a strided input first).  `grad` is
    lazily allocated during the reverse pass and always matches `data` in
    shape. Tensors are treated as immutable after construction except for
    gradient accumulation (and in-place parameter updates by the
    optimizer, which owns its leaves).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward_fn=None):
        # a float64 or float32 ndarray, what every op makes, is kept as is;
        # a float32 scalar (a full reduction) stays float32 as well
        if type(data) is not np.ndarray or data.dtype not in _FLOATS:
            keep = isinstance(data, (np.ndarray, np.float32)) and data.dtype == np.float32
            data = np.asarray(data) if keep else np.asarray(data, dtype=np.float64)
        self.data = data
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

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # autodiff plumbing
    # ------------------------------------------------------------------

    def _take(self, grad: np.ndarray) -> None:
        """Add an array the caller has just made and that nothing else
        holds into ``.grad``; the first one becomes ``.grad`` itself."""
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def _accumulate(self, grad: np.ndarray) -> None:
        # a first gradient is copied, because callers may pass the same array
        # to several parents or hand over a read-only broadcast view
        self._take(np.array(grad) if self.grad is None else grad)

    def _accumulate_slice(self, index, grad: np.ndarray) -> None:
        """Add grad into self.grad[index]; the first write zero-fills the
        buffer, so that the nodes reading parts of one tensor share it."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad[index] += grad

    def backward(self) -> None:
        """Run one reverse pass from this scalar tensor through its DAG.

        Every node is visited exactly once, in reverse topological order,
        so gradients along multiple paths accumulate by summation.  Each
        interior node is released once its backward has run (see the
        module docstring): a tensor still held keeps its ``.grad``, and a
        second call through a released node raises ``RuntimeError``.
        Walk the graph, if a caller needs to, before calling this.
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() requires a scalar output")

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
            if node._backward_fn is _released:
                node._backward_fn(node.grad)  # raises before any gradient moves
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                # drop the closure, the arrays it saved and the links, so
                # that an interior node nothing else holds is freed here
                node._backward_fn = _released
                node._parents = ()

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data, parents, backward_fn) -> "Tensor":
        for p in parents:
            if p.requires_grad:
                break
        else:  # no parent needs a gradient (decoding): a bare node
            return Tensor(data)
        live = tuple([p for p in parents if p.requires_grad])
        return Tensor(data, requires_grad=True, _parents=live, _backward_fn=backward_fn)

    # ------------------------------------------------------------------
    # elementwise arithmetic (trailing-dimension broadcasting)
    # ------------------------------------------------------------------

    def _check_broadcast(self, other: "Tensor", op: str) -> None:
        a, b = self.data.shape, other.data.shape
        if a != b and not _broadcastable(a, b):
            raise ShapeMismatchError(f"{op}: shapes {a} and {b} are not broadcastable")

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

    # ------------------------------------------------------------------
    # matrix product
    # ------------------------------------------------------------------

    def __matmul__(self, other):
        """x @ w for x of shape [..., k] and a 2-d weight w of shape [k, n].

        The leading axes of x fold into the rows of one 2-d GEMM, forward
        and backward, so the weight gradient is a single x2^T @ g2.
        """
        other = self._lift(other)
        a, b = self, other
        ad, bd = a.data, b.data
        if ad.ndim == 0 or bd.ndim != 2 or ad.shape[-1] != bd.shape[0]:
            raise ShapeMismatchError(f"matmul expects [..., k] @ [k, n], got {ad.shape} @ {bd.shape}")
        k, n = bd.shape
        a2 = ad.reshape(-1, k)
        out_data = (a2 @ bd).reshape(ad.shape[:-1] + (n,))

        def backward_fn(g):
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                a._take((g2 @ bd.T).reshape(ad.shape))
            if b.requires_grad:
                b._take(a2.T @ g2)

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
            a._accumulate(np.broadcast_to(g, a.shape))

        return self._make(out_data, (a,), backward_fn)


# ----------------------------------------------------------------------
# fused nodes and free functions used by layers and losses
# ----------------------------------------------------------------------


def normalize(x: Tensor, gain: Tensor, eps: float, center: bool) -> Tensor:
    """gain * h / sqrt(mean(h^2) + eps) over the last axis, as one node.

    h is x minus its mean over the last axis when `center` is set (layer
    norm) and x itself otherwise (RMS norm).  `gain` holds one value per
    channel of the last axis and meets any leading shape.  The arithmetic
    is `normalize_forward` and `normalize_backward`, which the attention
    node calls for its QK norm as well.
    """
    out, unit, inv = normalize_forward(x.data, gain.data, eps, center)

    def backward_fn(g):
        if gain.requires_grad:
            gain._take(gain_gradient(g, unit))
        if x.requires_grad:
            x._take(normalize_backward(g, gain.data, unit, inv, center))

    return x._make(out, (x, gain), backward_fn)


def normalize_forward(x: np.ndarray, gain: np.ndarray, eps: float, center: bool):
    """The arrays of `normalize`: (out, unit, inv), where unit is the
    normalized h before the gain and inv each row's 1 / sqrt(mean(h^2) + eps),
    the two that `normalize_backward` reads.

    Every row sum, forward and backward, is a GEMV against a cached ones
    vector: over the QK norm's 16-wide rows numpy's ``sum(-1)`` is several
    times slower than the matrix-vector product.  A strided x (the
    split-heads view of the QK norm) is copied to C order first, so that no
    pass of the kernel or of its consumers mixes two memory layouts.
    """
    n = x.shape[-1]
    scale = 1.0 / n
    ones = _ones(n, x.dtype)
    xd = np.ascontiguousarray(x)
    h = xd - ((xd @ ones) * scale)[..., None] if center else xd
    inv = (((h * h) @ ones) * scale + eps) ** -0.5
    unit = h * inv[..., None]
    # dropped before the output allocates, which then reuses their memory
    del xd, h
    return unit * gain, unit, inv


def normalize_backward(g: np.ndarray, gain: np.ndarray, unit: np.ndarray, inv: np.ndarray,
                       center: bool) -> np.ndarray:
    """The input's gradient under `normalize_forward`, from the upstream g."""
    n = unit.shape[-1]
    scale = 1.0 / n
    ones = _ones(n, g.dtype)
    g_h = g * gain
    inner = (((g_h * unit) @ ones) * scale)[..., None]
    g_h -= unit * inner
    g_h *= inv[..., None]
    if center:
        g_h -= ((g_h @ ones) * scale)[..., None]
    return g_h


def gain_gradient(g: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """The gain's gradient under `normalize_forward`: a ones row over the
    flattened rows of g * unit, one GEMV."""
    rows = (g * unit).reshape(-1, unit.shape[-1])
    return _ones(rows.shape[0], rows.dtype) @ rows


@functools.lru_cache(maxsize=32)
def _ones(n: int, dtype) -> np.ndarray:
    """A read-only ones vector, the right operand of a GEMV row sum."""
    ones = np.ones(n, dtype=dtype)
    ones.flags.writeable = False
    return ones


def attend_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """softmax(q k^T / sqrt(hd)) v over grouped key/value heads.

    q is [b, h, s, hd], k and v are [b, kv, t, hd]; query head i reads key
    head i // (h / kv).  The attention is causal: the s queries are the
    last s of the t key positions, and each sees no key after its own.
    Returns (out, exps, sums): out is [b, h, s, hd], and exps and sums are
    what `attend_backward` reads.

    The scores are held keys-major, k (q / sqrt(hd))^T of shape
    [b, kv, t, g * s] with g = h / kv, so the softmax's max and sum reduce
    across rows of g * s queries, which numpy does several times faster
    than along each query's row of t keys.  Hidden scores are set to -inf
    in place, and no mask work is done when a single query sees every key
    (a decode step).  The exponentials stay unnormalized: the output and the
    upstream gradient, rows of hd values, are divided by each query's sum
    instead.
    """
    b, h, s, hd = q.shape
    kv, t = k.shape[1:3]
    scale = 1.0 / math.sqrt(hd)
    q3 = q.reshape(b, kv, -1, hd)
    exps = k @ (q3 * scale).swapaxes(-1, -2)
    if s > 1:
        hidden = np.arange(t)[:, None] > np.arange(t - s, t)
        np.copyto(exps, -np.inf, where=np.tile(hidden, (1, h // kv)))
    exps -= exps.max(axis=-2, keepdims=True)
    np.exp(exps, out=exps)
    sums = exps.sum(axis=-2)
    out = exps.swapaxes(-1, -2) @ v
    out /= sums[..., None]
    return out.reshape(q.shape), exps, sums


def attend_backward(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                    exps: np.ndarray, sums: np.ndarray):
    """(gq, gk, gv) under `attend_forward`, from the upstream g [b, h, s, hd].

    FlashAttention's dS = P * (dP - D) (arXiv 2205.14135), untiled.
    D = rowsum(dP * P) is one einsum over the keys axis, with no temporary
    of the scores' size.  FlashAttention's rowsum(dO * O) is equal in exact
    arithmetic, but only rowsum(dP * P) cancels dP - D exactly when a query
    sees a single key, whose score gradient is then exactly zero.
    """
    b, h, s, hd = q.shape
    kv = k.shape[1]
    scale = 1.0 / math.sqrt(hd)
    q3 = q.reshape(b, kv, -1, hd)
    # dO / sum, so that products with the unnormalized exps carry P
    g3 = g.reshape(q3.shape) / sums[..., None]
    gv = exps @ g3
    ds = v @ g3.swapaxes(-1, -2)
    ds -= (np.einsum("...tr,...tr->...r", ds, exps) / sums)[..., None, :]
    ds *= exps
    gq = ds.swapaxes(-1, -2) @ k
    gq *= scale
    gk = ds @ q3
    gk *= scale
    return gq.reshape(q.shape), gk, gv


def turn(a: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """a*c + a[..., swap]*s as a new C-order array, where swap exchanges
    channels 2i and 2i+1: the rotary rotation by `layers.rope_tables`' rows
    c and s.  It is summed in the other order, which IEEE addition leaves
    bit-identical.  take keeps C order, where a[..., swap] puts the channel
    axis outermost in memory, and each pass that mixes the two layouts runs
    several times slower.  The method, not np.take, whose Python wrapper
    costs as much as the gather at one decode row."""
    out = a.take(_swap(a.shape[-1]), axis=-1)
    out *= s
    out += a * c
    return out


def turn_back(g: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g*c + (g*s)[..., swap], the transpose of `turn` (swap is its own
    inverse), likewise."""
    out = (g * s).take(_swap(g.shape[-1]), axis=-1)
    out += g * c
    return out


@functools.lru_cache(maxsize=32)
def _swap(n: int) -> np.ndarray:
    """A read-only index exchanging channels 2i and 2i+1 of an n-wide axis."""
    swap = np.arange(n) ^ 1
    swap.flags.writeable = False
    return swap


def embedding(weight: Tensor, ids) -> Tensor:
    """Row lookup `weight[ids]`; backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise IndexError(f"token id out of range [0, {weight.shape[0]})")
    w = weight
    out_data = w.data[ids]

    def backward_fn(g):
        full = np.zeros_like(w.data)
        np.add.at(full, ids, g)
        w._take(full)

    return w._make(out_data, (w,), backward_fn)
