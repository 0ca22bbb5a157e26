import numpy as np
import pytest
from gradcases import op_check_cases

from ambispeech import autodiff as ad
from ambispeech.autodiff import Tensor
from ambispeech.encoders import slice_time
from ambispeech.errors import DegenerateMaskError, ShapeError


def test_matmul_value_and_grads():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
    c = a @ b
    assert c.data.shape == (1, 1)
    assert c.item() == 11.0
    c.backward()
    np.testing.assert_array_equal(a.grad, [[3.0, 4.0]])
    np.testing.assert_array_equal(b.grad, [[1.0], [2.0]])


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 1))))


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (t + t).backward()


def test_add_mul_broadcast_grads():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    row = Tensor(np.arange(4.0), requires_grad=True)
    out = ad.mean(a * row + row)
    out.backward()
    # each row entry touches 3 products and 3 sums of 12 output terms
    np.testing.assert_allclose(row.grad, (np.ones(4) * 3 + 3) / 12)
    np.testing.assert_allclose(a.grad, np.tile(np.arange(4.0) / 12, (3, 1)))


def test_grad_accumulates_across_reuse():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 5
    y.backward()
    assert float(x.grad) == pytest.approx(5.0)


def _untaped(t):
    return t._parents == () and t._backward is None and not t.requires_grad


def test_constant_inputs_record_no_parents():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    out = a @ b
    assert out._parents == ()
    assert out._backward is None
    assert not out.requires_grad
    for name, (fn, inputs) in op_check_cases(np.random.default_rng(1)).items():
        for t in inputs:
            t.requires_grad = False
        assert _untaped(fn(*inputs)), name
    assert _untaped(slice_time(Tensor(np.ones((2, 3, 4))), 1, 2))


@pytest.mark.parametrize("name", ["matmul", "add", "mul", "concat_last"])
def test_constant_operand_gets_no_grad(name):
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    const = Tensor(np.full((3, 3) if name == "matmul" else (2, 3), 0.5))
    op = ad.REGISTERED_OPS[name]
    out = op([x, const]) if name == "concat_last" else op(x, const)
    assert out._parents == (x,)
    ad.mean(out).backward()
    assert x.grad is not None
    assert const.grad is None


def test_deep_chain_does_not_recurse():
    x = Tensor(np.array(0.5), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0
    y.backward()
    assert float(x.grad) == 1.0


def test_softmax_matches_reference_values():
    p = ad.masked_softmax(Tensor(np.array([1.0, 2.0, 3.0])), np.ones(3))
    np.testing.assert_allclose(p.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)
    assert p.data.sum() == pytest.approx(1.0)


def test_masked_softmax_zeroes_masked_slots():
    p = ad.masked_softmax(Tensor(np.array([1.0, 2.0, 5.0])), np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(p.data[:2], [0.26894142, 0.73105858], atol=1e-8)
    assert p.data[2] == 0.0  # exact, not merely tiny


def test_masked_softmax_shift_invariant():
    rng = np.random.default_rng(0)
    s = rng.normal(size=7)
    m = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    p1 = ad.masked_softmax(Tensor(s), m).data
    p2 = ad.masked_softmax(Tensor(s + 1234.5), m).data
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_masked_softmax_extreme_scores_stay_finite():
    p = ad.masked_softmax(Tensor(np.array([1e4, -1e4, 0.0])), np.ones(3))
    assert np.all(np.isfinite(p.data))
    assert p.data.sum() == pytest.approx(1.0)


def test_masked_softmax_rejects_degenerate_mask():
    with pytest.raises(DegenerateMaskError):
        ad.masked_softmax(Tensor(np.ones(3)), np.zeros(3))
    with pytest.raises(DegenerateMaskError):
        # batched: one row all-masked is enough
        ad.masked_softmax(Tensor(np.ones((2, 3))),
                          np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))


def test_masked_softmax_rejects_nonbinary_mask():
    with pytest.raises(ShapeError):
        ad.masked_softmax(Tensor(np.ones(3)), np.array([1.0, 0.5, 1.0]))


def test_transpose_rejects_3d():
    with pytest.raises(ShapeError):
        ad.transpose(Tensor(np.ones((2, 2, 2))))


def test_gradient_check_validates_eps():
    with pytest.raises(ShapeError):
        ad.gradient_check(lambda t: ad.mean(t), [Tensor(np.ones(3))], eps=0.1)


def test_gradient_check_reports_not_raises():
    # a wrong gradient must surface as a large return value, never an exception
    def broken(t):
        out = ad.mean(t)
        orig = out._backward

        def bad(g):
            orig(g * 3.0)

        out._backward = bad
        return out

    err = ad.gradient_check(broken, [Tensor(np.ones(3))])
    assert err > 1e-2


def test_every_registered_op_is_covered():
    cases = op_check_cases(np.random.default_rng(0))
    assert set(cases) == set(ad.REGISTERED_OPS)


@pytest.mark.parametrize("name", sorted(ad.REGISTERED_OPS))
def test_op_gradients_match_finite_differences(name):
    for trial in range(3):
        fn, inputs = op_check_cases(np.random.default_rng(100 + trial))[name]
        assert ad.gradient_check(fn, inputs) < 1e-4
