"""Reverse-mode automatic differentiation on float64 numpy arrays.

Graphs are define-by-run: every op returns a fresh Tensor, and backward()
replays the recorded closures in reverse topological order, visiting each
node exactly once. Two helpers hold the whole tape rule, so no op reads
requires_grad: _node records a result, with its closure and the parents
that require grad, only when some parent requires grad; _accum drops any
gradient routed to a tensor that does not require grad.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMaskError, ShapeError

Array = np.ndarray


class Tensor:
    """A float64 array plus its place, if any, on the current tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar output, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: Array) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _node(data: Array, parents: Sequence[Tensor], backward: Callable[[Array], None]) -> Tensor:
    taped = tuple(p for p in parents if p.requires_grad)
    out = Tensor(data, requires_grad=bool(taped))
    if taped:
        out._parents = taped
        out._backward = backward
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    # collapse gradient of a broadcast operand back to its original shape
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------- arithmetic


def matmul(a, b) -> Tensor:
    """Strict 2-D matrix product."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out_data = a.data @ b.data

    def backward(g: Array) -> None:
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(out_data, (a, b), backward)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def backward(g: Array) -> None:
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def backward(g: Array) -> None:
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(out_data, (a, b), backward)


# ------------------------------------------------------------ nonlinearities


def tanh(a) -> Tensor:
    a = _wrap(a)
    out_data = np.tanh(a.data)

    def backward(g: Array) -> None:
        _accum(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = _wrap(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g: Array) -> None:
        _accum(a, g * (a.data > 0.0))

    return _node(out_data, (a,), backward)


# ------------------------------------------------------- shape manipulation


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _wrap(a)
    out_data = a.data.reshape(shape)

    def backward(g: Array) -> None:
        _accum(a, g.reshape(a.shape))

    return _node(out_data, (a,), backward)


def transpose(a) -> Tensor:
    a = _wrap(a)
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got shape {a.shape}")
    out_data = a.data.T

    def backward(g: Array) -> None:
        _accum(a, g.T)

    return _node(out_data, (a,), backward)


def sum_axis(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: Array) -> None:
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.shape).copy())

    return _node(out_data, (a,), backward)


def mean(a) -> Tensor:
    a = _wrap(a)
    n = a.data.size
    out_data = np.asarray(a.data.mean())

    def backward(g: Array) -> None:
        _accum(a, np.full(a.shape, float(g) / n))

    return _node(out_data, (a,), backward)


def concat_last(parts: Sequence) -> Tensor:
    """Concatenate along the last axis."""
    ts = [_wrap(p) for p in parts]
    if not ts:
        raise ShapeError("concat_last needs at least one operand")
    out_data = np.concatenate([t.data for t in ts], axis=-1)
    widths = [t.shape[-1] for t in ts]
    offsets = np.cumsum([0] + widths)

    def backward(g: Array) -> None:
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            _accum(t, g[..., lo:hi])

    return _node(out_data, ts, backward)


# ------------------------------------------------------------- normalization


def masked_softmax(scores, mask) -> Tensor:
    """Softmax over the last axis restricted to positions where mask == 1.

    Masked positions get exactly 0. Max-subtraction keeps exp() finite, so
    the result is invariant under adding a constant to the unmasked scores.
    Both sums over the axis, the denominator and the backward's (g * out)
    dot, run left to right (the last column of a cumsum), not in numpy's
    pairwise grouping, so leading masked zeros add nothing: a row's output
    and gradient do not depend on how much padding precedes it.
    """
    s = _wrap(scores)
    m = np.broadcast_to(np.asarray(mask, dtype=np.float64), s.shape)
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ShapeError("mask entries must be 0 or 1")
    if np.any(m.sum(axis=-1) == 0.0):
        raise DegenerateMaskError("mask selects no positions on some row")
    # max over unmasked entries only; masked slots contribute -inf surrogate
    neg = np.finfo(np.float64).min
    shifted = np.where(m == 1.0, s.data, neg)
    mx = shifted.max(axis=-1, keepdims=True)
    e = np.where(m == 1.0, np.exp(s.data - mx), 0.0)
    out_data = e / np.cumsum(e, axis=-1)[..., -1:]

    def backward(g: Array) -> None:
        dot = np.cumsum(g * out_data, axis=-1)[..., -1:]
        _accum(s, out_data * (g - dot))

    return _node(out_data, (s,), backward)


# ---------------------------------------------------------------------- loss


def nll(probs, labels) -> Tensor:
    """mean(-log(max(p[row, label], tiny))) over the rows of (B, C) probabilities.

    tiny is the smallest normal float64, so the loss stays finite when a
    labelled probability underflows to 0. The gradient at each labelled
    entry is -1 / (B * p) where p > tiny, and 0 everywhere else.
    """
    p = _wrap(probs)
    labels = np.asarray(labels)
    if p.ndim != 2 or labels.shape != (p.shape[0],):
        raise ShapeError(f"nll: probs {p.shape} do not fit labels {labels.shape}")
    rows = np.arange(labels.shape[0])
    picked = p.data[rows, labels]
    tiny = np.finfo(np.float64).tiny
    out_data = np.asarray((-np.log(np.maximum(picked, tiny))).mean())

    def backward(g: Array) -> None:
        live = picked > tiny
        grad = np.zeros(p.shape)
        grad[rows[live], labels[live]] = ((float(g) / labels.shape[0]) * -1.0) / picked[live]
        _accum(p, grad)

    return _node(out_data, (p,), backward)


# every differentiable op the engine exposes, for exhaustive gradient tests
REGISTERED_OPS: dict[str, Callable] = {
    "matmul": matmul,
    "add": add,
    "mul": mul,
    "tanh": tanh,
    "relu": relu,
    "reshape": reshape,
    "transpose": transpose,
    "sum_axis": sum_axis,
    "mean": mean,
    "concat_last": concat_last,
    "masked_softmax": masked_softmax,
    "nll": nll,
}


# ------------------------------------------------------------ gradient check


def gradient_check(fn: Callable[..., Tensor], inputs: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar-valued fn to central differences.

    Returns max over every coordinate of every input of
    |analytic - numeric| / max(1, |analytic|). Large errors are reported,
    never raised, so callers can assert their own tolerance.
    """
    if not 0.0 < eps <= 1e-3:
        raise ShapeError(f"eps must lie in (0, 1e-3], got {eps}")
    tensors = list(inputs)
    for t in tensors:
        t.requires_grad = True
        t.grad = None
    out = fn(*tensors)
    if out.data.size != 1:
        raise ShapeError(f"fn must be scalar-valued, got shape {out.shape}")
    out.backward()
    analytic = [np.zeros(t.shape) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for t, ag in zip(tensors, analytic):
        flat = t.data.ravel()
        aflat = ag.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn(*tensors).data.item()
            flat[i] = orig - eps
            f_minus = fn(*tensors).data.item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]))
            if err > worst:
                worst = err
    return worst
