"""Bidirectional recurrent encoder (BRE) and attention pooling.

Each BRE runs both LSTM directions as one fused graph node with a
hand-written backward pass (BPTT); composing an LSTM from elementary ops
costs roughly 20 graph nodes per timestep, which dominates runtime at
this scale. The outputs H and final are two ad.index reads of that node.
Additive attention is one fused node too, in place of a chain of 13
elementary ops per call. Masked steps never enter the recurrence: the
hidden and cell states carry over unchanged, and output rows at masked
positions are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def _lstm_direction(x: Array, mask: Array, d: LSTMDirection, reverse: bool,
                    out: Array) -> Callable[[Array], None]:
    """One direction over a (B, T, D) batch, written into out, a (B, T+1, h) view.

    Rows 0..T-1 get the masked output states (zero where mask is 0); row T
    gets the final carried state. Returns the BPTT closure, which takes the
    (B, T+1, h) gradient of out. Masked steps freeze h and c bitwise, so a
    column with no valid row is a no-op with zero output and gradient.
    Full-column rule: on a column with no masked row, the forward takes the
    new states unmasked and BPTT skips the mask products and the carries.
    """
    B, T, _ = x.shape
    Wx, Wh, b = d.Wx.data, d.Wh.data, d.b.data
    h_size = Wh.shape[0]
    full = mask.all(axis=0).tolist()

    # keep the BPTT stash only when some weight will take a gradient
    needs_grad = d.Wx.requires_grad or d.Wh.requires_grad or d.b.requires_grad
    h = np.zeros((B, h_size))
    c = np.zeros((B, h_size))
    stash: list[tuple] = []
    for t in range(T - 1, -1, -1) if reverse else range(T):
        pre = x[:, t] @ Wx + h @ Wh + b
        sig = 1.0 / (1.0 + np.exp(-pre))  # one call for all 4h columns; g's share goes unused
        i, f, o = sig[:, :h_size], sig[:, h_size : 2 * h_size], sig[:, 3 * h_size :]
        g = np.tanh(pre[:, 2 * h_size : 3 * h_size])
        c_cand = f * c + i * g
        tc = np.tanh(c_cand)
        h_cand = o * tc
        if needs_grad:
            stash.append((t, i, f, g, o, tc, c, h))
        if full[t]:  # every row valid: the masks below would pick h_cand and c_cand
            out[:, t] = h = h_cand
            c = c_cand
        else:
            mb = mask[:, t : t + 1] != 0.0
            out[:, t] = np.where(mb, h_cand, 0.0)
            h = np.where(mb, h_cand, h)
            c = np.where(mb, c_cand, c)
    out[:, T] = h

    def backward(grad: Array) -> None:
        dh = grad[:, T].copy()
        dc = np.zeros_like(dh)
        dWx = np.zeros_like(Wx)
        dWh = np.zeros_like(Wh)
        db = np.zeros_like(b)
        for t, i, f, g, o, tc, c_prev, h_prev in reversed(stash):
            dh_cand, dc_cand = dh + grad[:, t], dc
            if not full[t]:  # a partial column masks the candidates and carries the rest
                m = mask[:, t : t + 1]
                dh_cand, dc_cand = m * dh_cand, m * dc_cand
                dh_carry, dc_carry = (1.0 - m) * dh, (1.0 - m) * dc
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
            dh, dc = dpre @ Wh.T, dc_cand * f
            if not full[t]:
                dh, dc = dh + dh_carry, dc + dc_carry
        ad._accum(d.Wx, dWx)
        ad._accum(d.Wh, dWh)
        ad._accum(d.b, db)

    return backward


def bre_forward(x, p: BREParams, mask) -> tuple[Tensor, Tensor]:
    """Run both directions over the valid steps of a (B, T, D) batch.

    Returns (H, final): H is (B, T, 2h) with zero rows at masked positions;
    final is (B, 2h) = [last forward state ; earliest-valid backward state].
    Both read one fused node: a packed (B, T+1, 2h) buffer, one half per
    direction, whose row T holds the final states.
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
    h = p.hidden
    packed = np.zeros((B, T + 1, 2 * h))
    with np.errstate(over="ignore"):  # a gate's exp overflows to a sigmoid of exactly 0
        bptt_f = _lstm_direction(data, m, p.fwd, False, packed[..., :h])
        bptt_b = _lstm_direction(data, m, p.bwd, True, packed[..., h:])

    def backward(g: Array) -> None:
        bptt_f(g[..., :h])
        bptt_b(g[..., h:])

    node = ad._node(packed, (p.fwd.Wx, p.fwd.Wh, p.fwd.b, p.bwd.Wx, p.bwd.Wh, p.bwd.b),
                    backward)
    return ad.index(node, np.s_[:, :T]), ad.index(node, np.s_[:, T])


# ------------------------------------------------------------------ attention


def attend(H, mask, ap: AttentionParams, context) -> tuple[Array, Tensor]:
    """Additive attention over a (B, T, S) batch: score_t = context . tanh(W H_t + b).

    weights = masked_softmax(scores, mask) with a (B, T) mask, pooled =
    sum_t weights_t H_t; context is (B, d_c) or one shared (d_c,) vector.
    pooled is one graph node with a hand-written backward; weights is a
    plain (B, T) array, since no gradient flows through the map itself.
    """
    Ht, ctx = ad._wrap(H), ad._wrap(context)
    m = np.asarray(mask, dtype=np.float64)
    if Ht.ndim != 3 or m.shape != Ht.shape[:2]:
        raise ShapeError(f"expected (B, T, S) states with (B, T) mask, got {Ht.shape}, {m.shape}")
    B, T, S = Ht.shape
    W = ap.W.data
    d_c = W.shape[0]
    if ctx.shape[-1] != d_c:
        raise ShapeError(f"context dim {ctx.shape[-1]} != attention dim {d_c}")
    Hr = Ht.data.reshape(B * T, S)
    proj = np.tanh((Hr @ W.T).reshape(B, T, d_c) + ap.b.data)
    ctx3 = ctx.data.reshape((B, 1, d_c) if ctx.ndim == 2 else (1, 1, d_c))
    weights = ad.masked_softmax((proj * ctx3).sum(axis=2), m)
    w3 = weights.reshape(B, T, 1)
    pooled = (w3 * Ht.data).sum(axis=1)

    def backward(g: Array) -> None:
        g3 = g.reshape(B, 1, S)
        d_scores = ad._softmax_grad(weights, (g3 * Ht.data).sum(axis=2)).reshape(B, T, 1)
        d_pre = (d_scores * ctx3) * (1.0 - proj * proj)
        d_ctx = d_scores * proj
        dP = d_pre.reshape(B * T, d_c)
        # two accumulations, not one sum: H shared by two attends then sums
        # its four parts in the order of the unfused chain, bit for bit
        ad._accum(Ht, g3 * w3)
        ad._accum(Ht, (dP @ W).reshape(B, T, S))
        ad._accum(ap.W, (Hr.T @ dP).T)
        ad._accum(ap.b, d_pre.sum(axis=0).sum(axis=0))
        ad._accum(ctx, d_ctx.sum(axis=1) if ctx.ndim == 2 else d_ctx.sum(axis=0).sum(axis=0))

    return weights, ad._node(pooled, (Ht, ap.W, ap.b, ctx), backward)


def self_attentive_pool(H, mask, ap: AttentionParams) -> tuple[Array, Tensor]:
    """attend() against the learned context vector ap.c."""
    if ap.c is None:
        raise ShapeError("attention params carry no learned context")
    return attend(H, mask, ap, ap.c)
