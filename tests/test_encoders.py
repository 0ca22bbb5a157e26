import numpy as np
import pytest
from gradcases import weighted_sum

from ambispeech import autodiff as ad
from ambispeech import encoders as en
from ambispeech.autodiff import Tensor
from ambispeech.errors import DegenerateMaskError, EmptyInputError, ShapeError
from ambispeech.features import end_align


def rand_bre(rng, dim, hidden):
    return en.init_bre(rng, dim, hidden)


def fs_with_pad(rng, t_max, dim, valid):
    rows = rng.normal(size=(valid, dim))
    return end_align(rows, t_max)


def params(p):
    return list(p.named_parameters("p").values())


def bre_one(fs, p):
    """bre_forward on a batch of one FeatureSequence, unbatched again."""
    H, final = en.bre_forward(fs.data[None], p, fs.mask[None])
    return H.data[0], final.data[0]


def attend_one(H, mask, ap, context):
    """attend on a batch of one (T, S) state matrix, unbatched again."""
    w, pooled = en.attend(np.asarray(H)[None], np.asarray(mask)[None], ap, context)
    return w[0], pooled.data[0]


# ---------------------------------------------------------------- bre_forward


def test_zero_params_give_zero_states():
    p = rand_bre(np.random.default_rng(0), 4, 3)
    for t in params(p):
        t.data[:] = 0.0
    x = np.random.default_rng(1).normal(size=(1, 5, 4))
    H, final = en.bre_forward(x, p, mask=np.ones((1, 5)))
    np.testing.assert_array_equal(H.data, 0.0)
    np.testing.assert_array_equal(final.data, 0.0)


def test_single_valid_step_ties_directions():
    rng = np.random.default_rng(2)
    p = rand_bre(rng, 4, 3)
    # same weights both directions: one valid step must give h_fwd == h_bwd
    p.bwd.Wx.data[:] = p.fwd.Wx.data
    p.bwd.Wh.data[:] = p.fwd.Wh.data
    p.bwd.b.data[:] = p.fwd.b.data
    fs = fs_with_pad(rng, 6, 4, 1)
    _, h = bre_one(fs, p)
    np.testing.assert_allclose(h[:3], h[3:], atol=1e-15)


def test_final_concatenates_last_fwd_and_first_valid_bwd():
    rng = np.random.default_rng(3)
    p = rand_bre(rng, 4, 3)
    fs = fs_with_pad(rng, 7, 4, 4)
    H, final = bre_one(fs, p)
    start = 7 - 4
    np.testing.assert_array_equal(final[:3], H[6, :3])
    np.testing.assert_array_equal(final[3:], H[start, 3:])


def test_masked_rows_are_zero_and_inert():
    rng = np.random.default_rng(4)
    p = rand_bre(rng, 4, 3)
    fs = fs_with_pad(rng, 8, 4, 5)
    H1, f1 = bre_one(fs, p)
    np.testing.assert_array_equal(H1[:3], 0.0)
    # rewrite the padded rows arbitrarily; outputs must match bit for bit
    data = fs.data.copy()
    data[:3] = rng.normal(size=(3, 4)) * 100.0
    H2, f2 = en.bre_forward(data[None], p, mask=fs.mask[None])
    assert np.array_equal(H1, H2.data[0])
    assert np.array_equal(f1, f2.data[0])


def test_batched_matches_single():
    # each row of a batch matches the same sequence run as a batch of one
    rng = np.random.default_rng(5)
    p = rand_bre(rng, 4, 3)
    seqs = [fs_with_pad(rng, 6, 4, v) for v in (2, 6, 4)]
    data = np.stack([s.data for s in seqs])
    mask = np.stack([s.mask for s in seqs])
    Hb, fb = en.bre_forward(data, p, mask=mask)
    for k, s in enumerate(seqs):
        Hs, fss = bre_one(s, p)
        np.testing.assert_allclose(Hb.data[k], Hs, atol=1e-14)
        np.testing.assert_allclose(fb.data[k], fss, atol=1e-14)


def test_prefix_padding_matches_shorter_buffer():
    # the same valid rows in a longer buffer: identical valid-region outputs
    rng = np.random.default_rng(6)
    p = rand_bre(rng, 4, 3)
    rows = rng.normal(size=(4, 4))
    H_small, f_small = bre_one(end_align(rows, 4), p)
    H_big, f_big = bre_one(end_align(rows, 9), p)
    np.testing.assert_allclose(H_big[5:], H_small, atol=1e-15)
    np.testing.assert_allclose(f_big, f_small, atol=1e-15)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_all_padding_columns_change_no_bit(reverse):
    rng = np.random.default_rng(16)
    d = rand_bre(rng, 3, 2).fwd
    cols = [5, 20, 39]
    mask = np.zeros((2, 40))
    mask[0, [5, 39]] = 1.0
    mask[1, [20, 39]] = 1.0
    x = rng.normal(size=(2, 40, 3))
    weights = [d.Wx, d.Wh, d.b]
    w = rng.normal(size=(2, 41, 2))
    keep = cols + [40]  # the valid columns and the final-state row

    def run(inp, m, weight):
        for p in weights:
            p.grad = None
        packed = np.zeros((2, inp.shape[1] + 1, 2))
        en._lstm_direction(inp, m, d, reverse, packed)(weight)
        return packed, [p.grad.copy() for p in weights]

    trimmed, trimmed_grads = run(x[:, cols], mask[:, cols], w[:, keep])
    full, grads = run(x, mask, w)
    # the all-padding columns run as no-ops: a buffer of only the valid columns agrees
    assert np.array_equal(full[:, keep], trimmed)
    assert not np.delete(full, keep, axis=1).any()
    for a, b in zip(grads, trimmed_grads):
        assert np.array_equal(a, b)


def test_dim_mismatch_and_empty_mask_rejected():
    rng = np.random.default_rng(7)
    p = rand_bre(rng, 4, 3)
    with pytest.raises(ShapeError):
        en.bre_forward(rng.normal(size=(1, 5, 6)), p, mask=np.ones((1, 5)))
    with pytest.raises(EmptyInputError):
        en.bre_forward(rng.normal(size=(1, 5, 4)), p, mask=np.zeros((1, 5)))


def test_unbatched_inputs_rejected():
    rng = np.random.default_rng(7)
    p = rand_bre(rng, 4, 3)
    with pytest.raises(ShapeError):
        en.bre_forward(rng.normal(size=(5, 4)), p, mask=np.ones(5))
    with pytest.raises(ShapeError):
        en.bre_forward(rng.normal(size=(1, 5, 4)), p, mask=np.ones(5))
    ap = en.init_attention(rng, d_c=3, state_dim=4, learned_context=True)
    with pytest.raises(ShapeError):
        en.attend(rng.normal(size=(5, 4)), np.ones(5), ap, ap.c)


def test_bre_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    p = rand_bre(rng, 3, 2)
    fs = fs_with_pad(rng, 5, 3, 3)
    w_H, w_final = rng.normal(size=(1, 5, 4)), rng.normal(size=(1, 4))

    def loss(*_):
        H, final = en.bre_forward(fs.data[None], p, fs.mask[None])
        return weighted_sum((H, w_H), (final, w_final))

    assert ad.gradient_check(loss, params(p)) < 1e-4


def test_padded_rows_leave_parameter_grads_unchanged():
    rng = np.random.default_rng(9)
    p = rand_bre(rng, 3, 2)
    mask = np.array([[0.0, 0.0, 1.0, 1.0, 1.0, 1.0]])
    x = rng.normal(size=(1, 6, 3))
    x[0, :2] = 0.0

    def grads(inp):
        for t in params(p):
            t.grad = None
        _, final = en.bre_forward(inp, p, mask=mask)
        weighted_sum((final, 1.0)).backward()
        return [t.grad.copy() for t in params(p)]

    g1 = grads(x)
    x2 = x.copy()
    x2[0, :2] = rng.normal(size=(2, 3)) * 100.0
    g2 = grads(x2)
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


# -------------------------------------------------------------------- attend


def test_zero_context_gives_uniform_weights():
    rng = np.random.default_rng(10)
    ap = en.init_attention(rng, d_c=4, state_dim=6, learned_context=False)
    H = rng.normal(size=(5, 6))
    mask = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    w, pooled = attend_one(H, mask, ap, np.zeros(4))
    np.testing.assert_allclose(w, [0.0, 1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)
    np.testing.assert_allclose(pooled, H[1:4].mean(axis=0), atol=1e-12)


def test_single_valid_step_is_one_hot():
    rng = np.random.default_rng(11)
    ap = en.init_attention(rng, d_c=4, state_dim=6, learned_context=True)
    ap.c.data[:] = rng.normal(size=4)
    H = rng.normal(size=(5, 6))
    mask = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    w, pooled = attend_one(H, mask, ap, ap.c)
    np.testing.assert_array_equal(w, [0.0, 0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(pooled, H[3], atol=1e-12)


def test_hand_built_scores_give_known_weights():
    # identity projection, zero bias, context (4, 0): valid states tanh to
    # 0.25 and 0.75 in their first coordinate, so scores are exactly (1, 3)
    ap = en.AttentionParams(W=Tensor(np.eye(2)), b=Tensor(np.zeros(2)))
    H = np.array([[0.0, 0.0], [np.arctanh(0.25), 0.0], [np.arctanh(0.75), 0.0]])
    w, pooled = attend_one(H, np.array([0.0, 1.0, 1.0]), ap, np.array([4.0, 0.0]))
    np.testing.assert_allclose(w[1:], [0.11920292, 0.88079708], atol=1e-8)
    np.testing.assert_allclose(pooled,
                               0.11920292 * H[1] + 0.88079708 * H[2], atol=1e-8)


def test_weights_sum_to_one_and_zero_on_masked():
    rng = np.random.default_rng(12)
    ap = en.init_attention(rng, d_c=5, state_dim=6, learned_context=True)
    ap.c.data[:] = rng.normal(size=5)
    for trial in range(5):
        H = rng.normal(size=(7, 6))
        mask = np.zeros(7)
        mask[rng.integers(1, 7):] = 1.0
        w, _ = attend_one(H, mask, ap, ap.c)
        assert abs(w.sum() - 1.0) < 1e-9
        np.testing.assert_array_equal(w[mask == 0.0], 0.0)
        assert np.all(w >= 0.0)


def test_pooled_lies_in_convex_hull_of_valid_states():
    rng = np.random.default_rng(13)
    ap = en.init_attention(rng, d_c=5, state_dim=4, learned_context=True)
    ap.c.data[:] = rng.normal(size=5)
    H = rng.normal(size=(6, 4))
    mask = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    _, pooled = attend_one(H, mask, ap, ap.c)
    valid = H[2:]
    assert np.all(pooled >= valid.min(axis=0) - 1e-12)
    assert np.all(pooled <= valid.max(axis=0) + 1e-12)


def test_degenerate_mask_propagates():
    rng = np.random.default_rng(14)
    ap = en.init_attention(rng, d_c=3, state_dim=4, learned_context=True)
    with pytest.raises(DegenerateMaskError):
        en.attend(rng.normal(size=(1, 5, 4)), np.zeros((1, 5)), ap, ap.c)


def test_context_dim_checked():
    rng = np.random.default_rng(15)
    ap = en.init_attention(rng, d_c=3, state_dim=4, learned_context=False)
    with pytest.raises(ShapeError):
        en.attend(rng.normal(size=(1, 5, 4)), np.ones((1, 5)), ap, np.zeros(7))


def test_self_attentive_needs_learned_context():
    rng = np.random.default_rng(16)
    ap = en.init_attention(rng, d_c=3, state_dim=4, learned_context=False)
    with pytest.raises(ShapeError):
        en.self_attentive_pool(rng.normal(size=(1, 5, 4)), np.ones((1, 5)), ap)


def test_uniform_weights_at_init():
    # w_c starts at zero, so a fresh self-attentive layer averages valid steps
    rng = np.random.default_rng(17)
    ap = en.init_attention(rng, d_c=3, state_dim=4, learned_context=True)
    H = rng.normal(size=(5, 4))
    mask = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    w, pooled = en.self_attentive_pool(H[None], mask[None], ap)
    np.testing.assert_allclose(w[0, 1:], 0.25, atol=1e-12)
    np.testing.assert_allclose(pooled.data[0], H[1:].mean(axis=0), atol=1e-12)


def test_gradient_flows_into_learned_context():
    rng = np.random.default_rng(18)
    ap = en.init_attention(rng, d_c=3, state_dim=4, learned_context=True)
    ap.c.data[:] = rng.normal(size=3)
    H = rng.normal(size=(5, 4))
    mask = np.array([0.0, 1.0, 1.0, 1.0, 1.0])

    def loss(c):
        _, pooled = en.attend(H[None], mask[None], en.AttentionParams(ap.W, ap.b, c), c)
        return weighted_sum((pooled, 1.0))

    assert ad.gradient_check(loss, [ap.c]) < 1e-4


@pytest.mark.parametrize("shared", [True, False])
def test_attend_is_one_node(shared, monkeypatch):
    rng = np.random.default_rng(22)
    ap = en.init_attention(rng, d_c=3, state_dim=4, learned_context=shared)
    H = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    ctx = ap.c if shared else Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    taped = []
    real_node = ad._node

    def spy(data, parents, backward):
        out = real_node(data, parents, backward)
        if out.requires_grad:
            taped.append(out)
        return out

    monkeypatch.setattr(ad, "_node", spy)
    w, pooled = en.attend(H, np.ones((2, 5)), ap, ctx)
    assert len(taped) == 1 and taped[0] is pooled
    assert pooled._parents == (H, ap.W, ap.b, ctx)
    assert type(w) is np.ndarray and w.shape == (2, 5)


def test_bre_is_one_node(monkeypatch):
    rng = np.random.default_rng(25)
    p = rand_bre(rng, 3, 2)
    mask = (np.arange(5) >= np.array([[0], [3]])).astype(float)
    taped = []
    real_node = ad._node

    def spy(data, parents, backward):
        out = real_node(data, parents, backward)
        if out.requires_grad:
            taped.append(out)
        return out

    monkeypatch.setattr(ad, "_node", spy)
    H, final = en.bre_forward(rng.normal(size=(2, 5, 3)), p, mask)
    assert len(taped) == 3 and taped[1:] == [H, final]
    fused = taped[0]
    assert fused._parents == (p.fwd.Wx, p.fwd.Wh, p.fwd.b, p.bwd.Wx, p.bwd.Wh, p.bwd.b)
    assert H._parents == (fused,) and final._parents == (fused,)


@pytest.mark.parametrize("shared", [True, False])
def test_attend_gradient_matches_finite_differences(shared):
    # a shared (d_c,) context, or one per row as cross-attention passes it,
    # over rows with 0, 2 and 5 leading masked steps
    rng = np.random.default_rng(23 if shared else 24)
    H = Tensor(rng.normal(size=(3, 6, 4)))
    W = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=3))
    ctx = Tensor(rng.normal(size=(3,) if shared else (3, 3)))
    mask = (np.arange(6) >= np.array([[0], [2], [5]])).astype(float)
    probe = rng.normal(size=(3, 4))

    def loss(H, W, b, c):
        _, pooled = en.attend(H, mask, en.AttentionParams(W, b), c)
        return weighted_sum((pooled, probe / probe.size))

    assert ad.gradient_check(loss, [H, W, b, ctx]) < 1e-6
    assert not H.grad[mask == 0.0].any()


def test_attention_padding_invariance():
    rng = np.random.default_rng(19)
    ap = en.init_attention(rng, d_c=3, state_dim=4, learned_context=True)
    ap.c.data[:] = rng.normal(size=3)
    H = rng.normal(size=(6, 4))
    mask = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    H[:2] = 0.0
    w1, p1 = attend_one(H, mask, ap, ap.c)
    H2 = H.copy()
    H2[:2] = rng.normal(size=(2, 4)) * 40.0
    w2, p2 = attend_one(H2, mask, ap, ap.c)
    assert np.array_equal(w1, w2)
    assert np.array_equal(p1, p2)


def test_end_to_end_bre_attend_gradient():
    rng = np.random.default_rng(20)
    p = rand_bre(rng, 3, 2)
    ap = en.init_attention(rng, d_c=4, state_dim=4, learned_context=True)
    ap.c.data[:] = rng.normal(size=4)
    fs = fs_with_pad(rng, 4, 3, 3)

    def loss(*_):
        H, _ = en.bre_forward(fs.data[None], p, fs.mask[None])
        _, pooled = en.attend(H, fs.mask[None], ap, ap.c)
        return weighted_sum((pooled, 1.0))

    assert ad.gradient_check(loss, params(p) + params(ap)) < 1e-4


def test_batched_attend_matches_single():
    # each row of a batch matches the same states run as a batch of one
    rng = np.random.default_rng(21)
    ap = en.init_attention(rng, d_c=3, state_dim=4, learned_context=True)
    ap.c.data[:] = rng.normal(size=3)
    Hs = rng.normal(size=(2, 5, 4))
    masks = np.array([[0.0, 1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0, 1.0]])
    Hs[0, :1] = 0.0
    Hs[1, :2] = 0.0
    ctx = np.stack([ap.c.data, ap.c.data])
    wb, pb = en.attend(Hs, masks, ap, ctx)
    for k in range(2):
        ws, ps = attend_one(Hs[k], masks[k], ap, ap.c.data)
        np.testing.assert_allclose(wb[k], ws, atol=1e-14)
        np.testing.assert_allclose(pb.data[k], ps, atol=1e-14)
