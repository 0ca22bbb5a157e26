import re
from pathlib import Path

import numpy as np
import pytest
from gradcases import head_model, op_check_cases, retired_op_cases, weighted_sum

from ambispeech import autodiff as ad
from ambispeech.autodiff import Tensor
from ambispeech.encoders import attend, init_attention
from ambispeech.errors import DegenerateMaskError, ShapeError
from ambispeech.training import cross_entropy


def test_matmul_value_and_grads():
    # the head's two products on hand-set weights: x @ W1 = 11, then h1 @ W2
    m = head_model("audio_bre", hidden=1, head_hidden=1)
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    m.W1.data = np.array([[3.0], [4.0]])
    m.W2.data = np.eye(1, 7)
    probs, logits = m._head([x])
    np.testing.assert_array_equal(logits, 11.0 * np.eye(1, 7))
    cross_entropy(probs, np.array([0])).backward()
    d0 = probs.data[0, 0] - 1.0  # d loss / d logits[0, 0]
    np.testing.assert_allclose(x.grad, [[3.0 * d0, 4.0 * d0]], rtol=1e-12)
    np.testing.assert_allclose(m.W1.grad, [[1.0 * d0], [2.0 * d0]], rtol=1e-12)
    np.testing.assert_allclose(m.W2.grad, 11.0 * (probs.data - np.eye(1, 7)), rtol=1e-12)


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.index(t, 0).backward()


def test_add_mul_broadcast_grads():
    # a bias added to every row (the head's b1 and b2) and a context multiplied
    # into every row (attend's shared context) each get the sum of the grads
    # their rows get one at a time
    rng = np.random.default_rng(5)
    m = head_model("audio_bre")
    ap = init_attention(rng, 4, 4, False)
    ctx = Tensor(rng.normal(size=4), requires_grad=True)
    x, H = rng.normal(size=(3, 4)), rng.normal(size=(3, 5, 4))
    wp, wh = rng.normal(size=(3, 7)), rng.normal(size=(3, 4))
    shared = (m.b1, m.b2, ctx)

    def grads(rows):
        for t in shared:
            t.grad = None
        probs, _ = m._head([Tensor(x[rows])])
        _, pooled = attend(H[rows], np.ones(H[rows].shape[:2]), ap, ctx)
        weighted_sum((probs, wp[rows]), (pooled, wh[rows])).backward()
        return [t.grad.copy() for t in shared]

    batched = grads(np.s_[:])
    one_by_one = [grads(np.s_[i : i + 1]) for i in range(3)]
    for got, *rows in zip(batched, *one_by_one):
        assert got.shape == rows[0].shape
        np.testing.assert_allclose(got, sum(rows), rtol=1e-12, atol=1e-15)


def test_grad_accumulates_across_reuse():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    # x reaches the loss three times: whole, and through each of two index reads
    y = weighted_sum((x, [1.0, 1.0]), (ad.index(x, 0), 2.0), (ad.index(x, np.s_[1:]), 3.0))
    y.backward()
    assert np.array_equal(x.grad, [3.0, 4.0])


def _untaped(t):
    return t._parents == () and t._backward is None and not t.requires_grad


def test_constant_inputs_record_no_parents():
    for name, (fn, inputs) in op_check_cases(np.random.default_rng(1)).items():
        for t in inputs:
            t.requires_grad = False
        assert _untaped(fn(*inputs)), name


@pytest.mark.parametrize("name", ["matmul", "add", "mul", "concat_last"])
def test_constant_operand_gets_no_grad(name):
    # each op runs inside a fused node now: the head's products, bias adds and
    # concat, and attend's context product; a constant operand is no parent
    rng = np.random.default_rng(4)
    if name == "mul":
        H = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        ap = init_attention(rng, 4, 4, False)
        consts = [Tensor(rng.normal(size=4))]
        _, out = attend(H, np.ones((2, 3)), ap, consts[0])
        taped = [H, ap.W, ap.b]
    else:
        m = head_model("ca" if name == "concat_last" else "audio_bre")
        parts = [Tensor(rng.normal(size=(2, 4)), requires_grad=True)
                 for _ in range(2 if name == "concat_last" else 1)]
        consts = {"matmul": [m.W1, m.W2], "add": [m.b1, m.b2], "concat_last": parts[1:]}[name]
        for t in consts:
            t.requires_grad = False
        out, _ = m._head(parts)
        taped = [t for t in (*parts, m.W1, m.b1, m.W2, m.b2) if t.requires_grad]
    assert out._parents == tuple(taped)
    weighted_sum((out, rng.normal(size=out.shape))).backward()
    assert all(t.grad is not None for t in taped)
    assert all(t.grad is None for t in consts)


def test_index_copies_and_rejects_array_keys():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    out = ad.index(x, np.s_[:, 2])
    assert np.array_equal(out.data, x.data[:, 2])
    out.data[0, 0] = -1.0
    assert x.data[0, 2, 0] == 8.0
    for key in (np.array([0, 0]), [0, 1], np.s_[:, [2, 2]], np.s_[..., 0]):
        with pytest.raises(ShapeError):
            ad.index(x, key)


def test_index_none_key_adds_an_axis_and_scatters_back():
    # an int key drops an axis and a None key adds one; each backward puts
    # the gradient back in its input's shape
    probs = Tensor(np.array([[0.2, 0.8], [0.6, 0.4]]), requires_grad=True)
    row = ad.index(probs, 1)
    batch = ad.index(row, None)
    assert row.shape == (2,) and batch.shape == (1, 2)
    assert np.array_equal(batch.data, [[0.6, 0.4]])
    weighted_sum((batch, [[3.0, -2.0]])).backward()
    assert np.array_equal(row.grad, [3.0, -2.0])
    assert np.array_equal(probs.grad, [[0.0, 0.0], [3.0, -2.0]])


def test_deep_chain_does_not_recurse():
    x = Tensor(np.array(0.5), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.index(y, ())
    y.backward()
    assert float(x.grad) == 1.0


def test_masked_softmax_is_a_plain_array_function():
    p = ad.masked_softmax(np.array([[1.0, 2.0], [3.0, 0.0]]), np.ones(2))
    assert type(p) is np.ndarray and p.dtype == np.float64 and p.shape == (2, 2)
    assert "masked_softmax" not in ad.REGISTERED_OPS


def test_softmax_matches_reference_values():
    p = ad.masked_softmax(np.array([1.0, 2.0, 3.0]), np.ones(3))
    np.testing.assert_allclose(p, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)
    assert p.sum() == pytest.approx(1.0)


def test_masked_softmax_zeroes_masked_slots():
    p = ad.masked_softmax(np.array([1.0, 2.0, 5.0]), np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(p[:2], [0.26894142, 0.73105858], atol=1e-8)
    assert p[2] == 0.0  # exact, not merely tiny


def test_masked_softmax_shift_invariant():
    rng = np.random.default_rng(0)
    s = rng.normal(size=7)
    m = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    p1 = ad.masked_softmax(s, m)
    p2 = ad.masked_softmax(s + 1234.5, m)
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_masked_softmax_ignores_leading_masked_columns():
    # both sums run left to right, the denominator and _softmax_grad's dot,
    # so leading masked slots, whatever their scores, change no bit of the
    # output or of the score gradient
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(3, 40)) * 4.0
    mask = (np.arange(40) >= np.array([[0], [17], [31]])).astype(float)
    upstream = rng.normal(size=(3, 40))

    def run(s, m, g):
        p = ad.masked_softmax(s, m)
        return p, ad._softmax_grad(p, g)

    out0, grad0 = run(scores, mask, upstream)
    for k in range(1, 17):
        lead = rng.normal(size=(3, k)) * 50.0
        out, grad = run(np.hstack([lead, scores]), np.hstack([np.zeros((3, k)), mask]),
                        np.hstack([rng.normal(size=(3, k)), upstream]))
        assert np.array_equal(out[:, k:], out0) and not out[:, :k].any(), k
        assert np.array_equal(grad[:, k:], grad0) and not grad[:, :k].any(), k


def test_masked_softmax_extreme_scores_stay_finite():
    p = ad.masked_softmax(np.array([1e4, -1e4, 0.0]), np.ones(3))
    assert np.all(np.isfinite(p))
    assert p.sum() == pytest.approx(1.0)


def test_masked_softmax_rejects_degenerate_mask():
    with pytest.raises(DegenerateMaskError):
        ad.masked_softmax(np.ones(3), np.zeros(3))
    with pytest.raises(DegenerateMaskError):
        # batched: one row all-masked is enough
        ad.masked_softmax(np.ones((2, 3)), np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))


def test_masked_softmax_rejects_nonbinary_mask():
    with pytest.raises(ShapeError):
        ad.masked_softmax(np.ones(3), np.array([1.0, 0.5, 1.0]))


def test_gradient_check_validates_eps():
    with pytest.raises(ShapeError):
        ad.gradient_check(lambda t: weighted_sum((t, 1.0)), [Tensor(np.ones(3))], eps=0.1)


def test_gradient_check_needs_a_scalar_fn():
    with pytest.raises(ShapeError, match=r"^fn must be scalar-valued, got shape \(3,\)$"):
        ad.gradient_check(lambda t: ad.index(t, np.s_[:]), [Tensor(np.ones(3))])


def test_gradient_check_reports_not_raises():
    # a wrong gradient must surface as a large return value, never an exception
    def broken(t):
        out = weighted_sum((t, 1.0))
        orig = out._backward

        def bad(g):
            orig(g * 3.0)

        out._backward = bad
        return out

    err = ad.gradient_check(broken, [Tensor(np.ones(3))])
    assert err > 1e-2


def test_every_registered_op_is_covered():
    # and the loss, under the name of the op it replaced
    cases = op_check_cases(np.random.default_rng(0))
    assert set(cases) == {*ad.REGISTERED_OPS, "nll"}


def test_every_registered_op_has_a_caller():
    # an op that a fused node orphans must leave the registry with it
    root = Path(__file__).resolve().parents[1]
    files = [*(root / "src" / "ambispeech").glob("*.py"), *(root / "demos").glob("*.py")]
    text = "".join(f.read_text(encoding="utf-8") for f in files if f.name != "autodiff.py")
    for name in ad.REGISTERED_OPS:
        assert re.search(rf"\bad\.{name}\(", text), name


OP_CASES = sorted(op_check_cases(np.random.default_rng(0)))


@pytest.mark.parametrize("name", sorted([*OP_CASES, *retired_op_cases(np.random.default_rng(0))]))
def test_op_gradients_match_finite_differences(name):
    # the registered ops and the loss, and the arithmetic that took over each retired op
    for trial in range(3):
        rng = np.random.default_rng(100 + trial)
        cases = op_check_cases(rng) if name in OP_CASES else retired_op_cases(rng)
        fn, inputs = cases[name]
        assert ad.gradient_check(fn, inputs) < 1e-4
