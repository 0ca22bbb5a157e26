"""Reverse-mode automatic differentiation on float64 numpy arrays.

Graphs are define-by-run: every op returns a fresh Tensor, and backward()
replays the recorded closures in reverse topological order, visiting each
node exactly once. Two helpers hold the whole tape rule, so no op reads
requires_grad: _node records a result, with its closure and the parents
that require grad, only when some parent requires grad; _accum drops any
gradient routed to a tensor that does not require grad. Each model layer
(an encoder, an attention call, the classifier head, the loss in
training) is one _node with a hand-written backward, so the engine itself
keeps only the one op the package calls: index. masked_softmax is a plain
array function; the layers that use it call _softmax_grad in their own
backwards.
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


# ------------------------------------------------------------------ indexing


def index(a, key) -> Tensor:
    """a[key] for a basic-indexing key of ints, slices and None, as a copy."""
    a = _wrap(a)
    # an array key may repeat an entry, which the scattering backward would count once
    if not all(k is None or isinstance(k, (int, np.integer, slice)) for k in np.index_exp[key]):
        raise ShapeError(f"index takes ints, slices and None only, got {key!r}")
    out_data = a.data[key].copy()

    def backward(g: Array) -> None:
        full = np.zeros(a.shape)
        full[key] = g
        _accum(a, full)

    return _node(out_data, (a,), backward)


# ------------------------------------------------------------- normalization


def masked_softmax(scores, mask) -> Array:
    """Softmax over the last axis of an array, restricted to positions where mask == 1.

    Masked positions get exactly 0. Max-subtraction keeps exp() finite, so
    the result is invariant under adding a constant to the unmasked scores.
    The denominator sums left to right (the last column of a cumsum), not
    in numpy's pairwise grouping, so leading masked zeros add nothing: a
    row's output does not depend on how much padding precedes it. No node
    is recorded; a layer that differentiates through it calls _softmax_grad.
    """
    s = np.asarray(scores, dtype=np.float64)
    m = np.broadcast_to(np.asarray(mask, dtype=np.float64), s.shape)
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ShapeError("mask entries must be 0 or 1")
    if np.any(m.sum(axis=-1) == 0.0):
        raise DegenerateMaskError("mask selects no positions on some row")
    # max over unmasked entries only; masked slots contribute -inf surrogate
    neg = np.finfo(np.float64).min
    shifted = np.where(m == 1.0, s, neg)
    mx = shifted.max(axis=-1, keepdims=True)
    e = np.where(m == 1.0, np.exp(s - mx), 0.0)
    return e / np.cumsum(e, axis=-1)[..., -1:]


def _softmax_grad(out: Array, g: Array) -> Array:
    """Score gradient of softmax output out; its (g * out) dot runs left to right too."""
    return out * (g - np.cumsum(g * out, axis=-1)[..., -1:])


# every differentiable op the engine exposes, for exhaustive gradient tests
REGISTERED_OPS: dict[str, Callable] = {"index": index}


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
