"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine: ``Tensor`` wraps a float64 ndarray, every
operation records a backward closure, and ``Tensor.backward()`` walks the
tape in reverse topological order accumulating gradients. Backward consumes
the tape: each closure, and the arrays it keeps, is dropped as soon as it
has run, so a graph can be backpropagated once; a second ``backward()``
through it raises. Float64 is used throughout so analytic gradients can be
checked against central finite differences at tight tolerances.

The pipeline uses addition, subtraction and multiplication with
broadcasting, sum, mean, sigmoid, absolute value and a gradient-safe sqrt.
An op computed outside the tape, such as the whole LSTM sequence, the
whole sheaf message pass or the whole RK4 horizon, enters it as one node
through `node`, with a hand-written backward. Matmul (`@`), `reshape` and
slicing have no pipeline caller: they serve the composed-op oracles the
tests check those fused nodes against.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ShapeMismatchError

_grad_enabled = True

_SPENT = "backward() through a graph that was already backpropagated"


def _spent(_g):
    """The backward of a node whose own backward has already run."""
    raise RuntimeError(_SPENT)


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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor into the `.grad` of its leaves.

        Each recorded node's backward closure is released once it has run,
        with the arrays it keeps, so a graph is backpropagated once: a
        second call through any node of it raises before any `.grad`
        changes. A leaf accumulates over separately built graphs.

        A leaf's first gradient is stored without a copy, so `.grad` may be
        a read-only view or share memory with another leaf's `.grad`: read
        it, or replace it, but never write into it."""
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
            if node._backward is _spent:
                raise RuntimeError(_SPENT)
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
                node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._backward(g)
            node._backward = _spent             # frees what the closure kept
            for p, pg in zip(node._parents, parent_grads):
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
        """Basic indexing only: an index array may repeat an element, which
        the backward's slice assignment would count once."""
        items = key if isinstance(key, tuple) else (key,)
        if any(isinstance(k, (list, np.ndarray)) for k in items):
            raise IndexError("Tensor indexing takes ints and slices, not index arrays")
        out = _make(self.data[key], (self,))
        if out.requires_grad:
            def backward(g_out):
                g = np.zeros_like(self.data)
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


def node(data, parents, backward):
    """One tape node for an op computed outside the tape: `backward` maps the
    output gradient to one gradient (or None) per parent. It must not refer
    to the node it builds, so that the tape stays acyclic.

    An op with several outputs passes a tuple of arrays and gets a tuple of
    Tensors back; `backward` then takes a tuple of output gradients, None
    for an output no loss reached. Each output after the first is recorded
    as a child of the first that only hands its gradient over, so the
    engine reaches it before the first.
    """
    if not isinstance(data, tuple):
        out = _make(data, tuple(parents))
        if out.requires_grad:
            out._backward = backward
        return out
    first = _make(data[0], tuple(parents))
    rest = tuple(_make(d, (first,)) for d in data[1:])
    if first.requires_grad:
        handed = [None] * len(rest)
        # a zero gradient for the first output makes the engine run it
        zero = np.broadcast_to(0.0, first.data.shape)

        def hand_over(i):
            def backward_i(g):
                handed[i] = g
                return (zero,)
            return backward_i

        def joint(g):
            grads = (g, *handed)
            handed[:] = [None] * len(handed)
            return backward(grads)

        first._backward = joint
        for i, out in enumerate(rest):
            out._backward = hand_over(i)
    return (first, *rest)


def _make(data: np.ndarray, parents: tuple) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
    return out


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
