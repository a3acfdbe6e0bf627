"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine: ``Tensor`` wraps a float64 ndarray, every
operation records a backward closure, and ``Tensor.backward()`` walks the
tape in reverse topological order accumulating gradients. Float64 is used
throughout so analytic gradients can be checked against central finite
differences at tight tolerances.

Only the operations the forecasting pipeline needs are implemented:
addition, subtraction and multiplication with broadcasting, matmul, sum,
mean and reshape, slicing/gather, sigmoid, absolute value, a
gradient-safe sqrt, and the graph scatter and batched per-edge
matrix-vector products used by the sheaf operators. An op computed
outside the tape, such as the whole LSTM sequence or the whole RK4
horizon, enters it as one node through `node`, with a hand-written
backward.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeMismatchError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An ndarray with an optional gradient tape behind it. A recorded node
    keeps its parents and a closure mapping its output gradient to one
    gradient per parent, never the node itself: the tape is acyclic."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

    # Make `ndarray <op> Tensor` defer to the reflected Tensor operator
    # instead of numpy attempting elementwise coercion.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor into the `.grad` of its leaves;
        a second call on the same graph adds the same amount again."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatchError("backward() without grad needs a scalar output")
            grad = np.ones_like(self.data)
        if not self.requires_grad:
            return
        # Iterative post-order DFS, so that tape depth is not bounded by
        # Python's recursion limit.
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        grads = {id(self): _unbroadcast(np.asarray(grad, dtype=np.float64),
                                        self.data.shape)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:                       # every consumer returned None
                continue
            if node._backward is None:          # a leaf
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for p, pg in zip(node._parents, node._backward(g)):
                if pg is not None and p.requires_grad:
                    pg = _unbroadcast(pg, p.data.shape)
                    grads[id(p)] = grads[id(p)] + pg if id(p) in grads else pg

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = lift(other)
        out = _make(self.data + other.data, (self, other))
        if out.requires_grad:
            out._backward = lambda g: (g, g)
        return out

    def __mul__(self, other):
        other = lift(other)
        out = _make(self.data * other.data, (self, other))
        if out.requires_grad:
            out._backward = lambda g: (
                other.data * g if self.requires_grad else None,
                self.data * g if other.requires_grad else None)
        return out

    __rmul__ = __mul__

    def __sub__(self, other):
        other = lift(other)
        out = _make(self.data - other.data, (self, other))
        if out.requires_grad:
            out._backward = lambda g: (g, -g if other.requires_grad else None)
        return out

    def __matmul__(self, other):
        """Matrix product; leading axes of either operand broadcast as a batch."""
        other = lift(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ShapeMismatchError("matmul needs operands of at least 2 dimensions")
        out = _make(self.data @ other.data, (self, other))
        if out.requires_grad:
            out._backward = lambda g: (
                g @ np.swapaxes(other.data, -1, -2) if self.requires_grad else None,
                np.swapaxes(self.data, -1, -2) @ g if other.requires_grad else None)
        return out

    def __getitem__(self, key):
        out = _make(self.data[key], (self,))
        if out.requires_grad:
            advanced = _has_index_array(key)
            def backward(g_out):
                g = np.zeros_like(self.data)
                if advanced:
                    np.add.at(g, key, g_out)
                else:
                    g[key] += g_out
                return (g,)
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # reductions and shaping
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def backward(g):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                return (np.broadcast_to(g, self.data.shape),)
            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        out = _make(self.data.reshape(*shape), (self,))
        if out.requires_grad:
            out._backward = lambda g: (g.reshape(self.data.shape),)
        return out


def lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def records(*tensors) -> bool:
    """Whether an op on `tensors` would be recorded on the tape."""
    return _grad_enabled and any(isinstance(t, Tensor) and t.requires_grad
                                 for t in tensors)


def node(data, parents, backward) -> Tensor:
    """One tape node for an op computed outside the tape: `backward` maps the
    output gradient to one gradient (or None) per parent. It must not refer
    to the node it builds, so that the tape stays acyclic."""
    out = _make(data, tuple(parents))
    if out.requires_grad:
        out._backward = backward
    return out


def _make(data: np.ndarray, parents: tuple) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


def _has_index_array(key) -> bool:
    items = key if isinstance(key, tuple) else (key,)
    return any(isinstance(k, (list, np.ndarray)) for k in items)


# ----------------------------------------------------------------------
# elementwise functions
# ----------------------------------------------------------------------
def sigmoid(t: Tensor) -> Tensor:
    t = lift(t)
    # Stable logistic: exp of a non-positive argument on both branches.
    x = t.data
    e = np.exp(-np.abs(x))
    val = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = _make(val, (t,))
    if out.requires_grad:
        out._backward = lambda g: (val * (1.0 - val) * g,)
    return out


def absolute(t: Tensor) -> Tensor:
    t = lift(t)
    out = _make(np.abs(t.data), (t,))
    if out.requires_grad:
        out._backward = lambda g: (np.sign(t.data) * g,)
    return out


def sqrt(t: Tensor) -> Tensor:
    """Square root with a gradient clamped near zero (subgradient 0 at 0)."""
    t = lift(t)
    val = np.sqrt(t.data)
    out = _make(val, (t,))
    if out.requires_grad:
        def backward(g):
            denom = np.maximum(val, 1e-30)
            return (np.where(t.data > 0, 0.5 / denom, 0.0) * g,)
        out._backward = backward
    return out


# ----------------------------------------------------------------------
# graph gather/scatter and batched per-edge products (rows are axis -2;
# leading axes are a batch that shares the (E, m, d) maps)
# ----------------------------------------------------------------------
def index_add_rows(source: Tensor, index: np.ndarray, n_rows: int) -> Tensor:
    """Scatter-add rows of a (..., E, k) `source` into a (..., n_rows, k) zero tensor."""
    source = lift(source)
    index = np.asarray(index, dtype=np.intp)
    key = (Ellipsis, index, slice(None))
    data = np.zeros(source.data.shape[:-2] + (n_rows,) + source.data.shape[-1:])
    np.add.at(data, key, source.data)
    out = _make(data, (source,))
    if out.requires_grad:
        out._backward = lambda g: (g[key],)
    return out


def _edge_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-edge outer products of (..., E, p) and (..., E, q) rows, summed
    over the leading axes: one (E, p, q) contraction."""
    e = a.shape[-2]
    return (a.reshape(-1, e, a.shape[-1]).transpose(1, 2, 0)
            @ b.reshape(-1, e, b.shape[-1]).transpose(1, 0, 2))


def edge_matvec(mats: Tensor, vecs: Tensor) -> Tensor:
    """Per-edge product: (E, m, d) x (..., E, d) -> (..., E, m)."""
    mats, vecs = lift(mats), lift(vecs)
    if mats.data.ndim != 3 or vecs.data.ndim < 2 or mats.data.shape[::2] != (
            vecs.data.shape[-2], vecs.data.shape[-1]):
        raise ShapeMismatchError(
            f"edge_matvec: got {mats.data.shape} and {vecs.data.shape}")
    out = _make((mats.data @ vecs.data[..., None])[..., 0], (mats, vecs))
    if out.requires_grad:
        out._backward = lambda g: (
            _edge_outer(g, vecs.data) if mats.requires_grad else None,
            (g[..., None, :] @ mats.data)[..., 0, :] if vecs.requires_grad else None)
    return out


def edge_matvec_t(mats: Tensor, vecs: Tensor) -> Tensor:
    """Per-edge transposed product: (E, m, d) x (..., E, m) -> (..., E, d)."""
    mats, vecs = lift(mats), lift(vecs)
    if mats.data.ndim != 3 or vecs.data.ndim < 2 or (
            mats.data.shape[0], mats.data.shape[1]) != vecs.data.shape[-2:]:
        raise ShapeMismatchError(
            f"edge_matvec_t: got {mats.data.shape} and {vecs.data.shape}")
    out = _make((vecs.data[..., None, :] @ mats.data)[..., 0, :], (mats, vecs))
    if out.requires_grad:
        out._backward = lambda g: (
            _edge_outer(vecs.data, g) if mats.requires_grad else None,
            (mats.data @ g[..., None])[..., 0] if vecs.requires_grad else None)
    return out
