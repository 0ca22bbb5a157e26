"""Bidirectional recurrent encoder (BRE) and attention pooling.

The per-direction LSTM runs as a single fused graph node with a
hand-written backward pass (BPTT); composing it from elementary ops costs
roughly 20 graph nodes per timestep, which dominates runtime at this
scale. Attention is built from elementary ops. Masked steps never enter
the recurrence: the hidden and cell states carry over unchanged, and
output rows at masked positions are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmptyInputError, ShapeError

Array = np.ndarray


@dataclass
class LSTMDirection:
    Wx: Tensor  # (D, 4h), gate order i, f, g, o
    Wh: Tensor  # (h, 4h)
    b: Tensor  # (4h,)


@dataclass
class BREParams:
    fwd: LSTMDirection
    bwd: LSTMDirection
    input_dim: int
    hidden: int

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for name, d in (("fwd", self.fwd), ("bwd", self.bwd)):
            out[f"{prefix}.{name}.Wx"] = d.Wx
            out[f"{prefix}.{name}.Wh"] = d.Wh
            out[f"{prefix}.{name}.b"] = d.b
        return out


@dataclass
class AttentionParams:
    W: Tensor  # (d_c, 2h)
    b: Tensor  # (d_c,)
    c: Tensor | None = None  # (d_c,), learned context in self-attentive mode

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.W": self.W, f"{prefix}.b": self.b}
        if self.c is not None:
            out[f"{prefix}.c"] = self.c
        return out


def init_bre(rng: np.random.Generator, input_dim: int, hidden: int) -> BREParams:
    """Weights uniform(-1/sqrt(h), 1/sqrt(h)); forget-gate bias +1, rest 0."""
    scale = 1.0 / np.sqrt(hidden)

    def direction() -> LSTMDirection:
        Wx = rng.uniform(-scale, scale, (input_dim, 4 * hidden))
        Wh = rng.uniform(-scale, scale, (hidden, 4 * hidden))
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0
        return LSTMDirection(Tensor(Wx, True), Tensor(Wh, True), Tensor(b, True))

    return BREParams(direction(), direction(), input_dim, hidden)


def init_attention(rng: np.random.Generator, d_c: int, state_dim: int,
                   learned_context: bool) -> AttentionParams:
    """Projection uniform(+-1/sqrt(state_dim)); bias and context start at 0."""
    scale = 1.0 / np.sqrt(state_dim)
    W = Tensor(rng.uniform(-scale, scale, (d_c, state_dim)), True)
    b = Tensor(np.zeros(d_c), True)
    c = Tensor(np.zeros(d_c), True) if learned_context else None
    return AttentionParams(W, b, c)


# ------------------------------------------------------- fused LSTM direction


def _lstm_direction(x: Array, mask: Array, d: LSTMDirection, reverse: bool) -> Tensor:
    """One direction over a (B, T, D) batch; returns a packed (B, T+1, h) tensor.

    Rows 0..T-1 hold the masked output states (zero where mask is 0); row T
    holds the final carried state. Masked steps freeze h and c bitwise.
    """
    B, T, _ = x.shape
    Wx, Wh, b = d.Wx.data, d.Wh.data, d.b.data
    h_size = Wh.shape[0]
    order = range(T - 1, -1, -1) if reverse else range(T)

    # keep the BPTT stash only when some weight will take a gradient
    needs_grad = d.Wx.requires_grad or d.Wh.requires_grad or d.b.requires_grad
    h = np.zeros((B, h_size))
    c = np.zeros((B, h_size))
    packed = np.zeros((B, T + 1, h_size))
    stash: list[tuple] = []
    for t in order:
        mb = mask[:, t : t + 1] != 0.0
        pre = x[:, t] @ Wx + h @ Wh + b
        i = 1.0 / (1.0 + np.exp(-pre[:, :h_size]))
        f = 1.0 / (1.0 + np.exp(-pre[:, h_size : 2 * h_size]))
        g = np.tanh(pre[:, 2 * h_size : 3 * h_size])
        o = 1.0 / (1.0 + np.exp(-pre[:, 3 * h_size :]))
        c_cand = f * c + i * g
        tc = np.tanh(c_cand)
        h_cand = o * tc
        if needs_grad:
            stash.append((t, i, f, g, o, tc, c, h))
        packed[:, t] = np.where(mb, h_cand, 0.0)
        h = np.where(mb, h_cand, h)
        c = np.where(mb, c_cand, c)
    packed[:, T] = h

    def backward(grad: Array) -> None:
        dh = grad[:, T].copy()
        dc = np.zeros_like(dh)
        dWx = np.zeros_like(Wx)
        dWh = np.zeros_like(Wh)
        db = np.zeros_like(b)
        for t, i, f, g, o, tc, c_prev, h_prev in reversed(stash):
            m = mask[:, t : t + 1]
            dh_cand = m * (dh + grad[:, t])
            dc_cand = m * dc
            dh_carry = (1.0 - m) * dh
            dc_carry = (1.0 - m) * dc
            do = dh_cand * tc
            dc_cand = dc_cand + dh_cand * o * (1.0 - tc * tc)
            dpre = np.empty((B, 4 * h_size))
            dpre[:, :h_size] = dc_cand * g * i * (1.0 - i)
            dpre[:, h_size : 2 * h_size] = dc_cand * c_prev * f * (1.0 - f)
            dpre[:, 2 * h_size : 3 * h_size] = dc_cand * i * (1.0 - g * g)
            dpre[:, 3 * h_size :] = do * o * (1.0 - o)
            dWx += x[:, t].T @ dpre
            dWh += h_prev.T @ dpre
            db += dpre.sum(axis=0)
            dh = dpre @ Wh.T + dh_carry
            dc = dc_cand * f + dc_carry
        ad._accum(d.Wx, dWx)
        ad._accum(d.Wh, dWh)
        ad._accum(d.b, db)

    return ad._node(packed, (d.Wx, d.Wh, d.b), backward)


def slice_time(a, start: int, stop: int) -> Tensor:
    """Slice a (B, T, H) tensor along its middle axis."""
    a = ad._wrap(a)
    if a.ndim != 3:
        raise ShapeError(f"slice_time expects a 3-D tensor, got shape {a.shape}")
    out_data = a.data[:, start:stop].copy()

    def backward(g: Array) -> None:
        full = np.zeros(a.shape)
        full[:, start:stop] = g
        ad._accum(a, full)

    return ad._node(out_data, (a,), backward)


def bre_forward(x, p: BREParams, mask) -> tuple[Tensor, Tensor]:
    """Run both directions over the valid steps of a (B, T, D) batch.

    Returns (H, final): H is (B, T, 2h) with zero rows at masked positions;
    final is (B, 2h) = [last forward state ; earliest-valid backward state].
    """
    data = np.asarray(x, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    if data.ndim != 3 or m.shape != data.shape[:2]:
        raise ShapeError(f"expected (B, T, D) data with (B, T) mask, got {data.shape}, {m.shape}")
    if data.shape[-1] != p.input_dim:
        raise ShapeError(f"input dim {data.shape[-1]} != encoder dim {p.input_dim}")
    if np.any(m.sum(axis=1) == 0.0):
        raise EmptyInputError("an input row has zero valid steps")
    B, T = m.shape
    packed_f = _lstm_direction(data, m, p.fwd, reverse=False)
    packed_b = _lstm_direction(data, m, p.bwd, reverse=True)
    H = ad.concat_last([slice_time(packed_f, 0, T), slice_time(packed_b, 0, T)])
    final = ad.concat_last([
        ad.reshape(slice_time(packed_f, T, T + 1), (B, p.hidden)),
        ad.reshape(slice_time(packed_b, T, T + 1), (B, p.hidden)),
    ])
    return H, final


# ------------------------------------------------------------------ attention


def attend(H, mask, ap: AttentionParams, context) -> tuple[Tensor, Tensor]:
    """Additive attention over a (B, T, S) batch: score_t = context . tanh(W H_t + b).

    weights = masked_softmax(scores, mask) with a (B, T) mask, pooled =
    sum_t weights_t H_t; context is (B, d_c) or one shared (d_c,) vector.
    """
    Ht = ad._wrap(H)
    m = np.asarray(mask, dtype=np.float64)
    if Ht.ndim != 3 or m.shape != Ht.shape[:2]:
        raise ShapeError(f"expected (B, T, S) states with (B, T) mask, got {Ht.shape}, {m.shape}")
    B, T, S = Ht.shape
    d_c = ap.W.shape[0]
    ctx = ad._wrap(context)
    if ctx.shape[-1] != d_c:
        raise ShapeError(f"context dim {ctx.shape[-1]} != attention dim {d_c}")
    proj = ad.reshape(ad.matmul(ad.reshape(Ht, (B * T, S)), ad.transpose(ap.W)), (B, T, d_c))
    proj = ad.tanh(ad.add(proj, ap.b))
    ctx3 = ad.reshape(ctx, (B, 1, d_c) if ctx.ndim == 2 else (1, 1, d_c))
    scores = ad.sum_axis(ad.mul(proj, ctx3), axis=2)  # (B, T)
    weights = ad.masked_softmax(scores, m)
    pooled = ad.sum_axis(ad.mul(ad.reshape(weights, (B, T, 1)), Ht), axis=1)  # (B, S)
    return weights, pooled


def self_attentive_pool(H, mask, ap: AttentionParams) -> tuple[Tensor, Tensor]:
    """attend() against the learned context vector ap.c."""
    if ap.c is None:
        raise ShapeError("attention params carry no learned context")
    return attend(H, mask, ap, ap.c)
