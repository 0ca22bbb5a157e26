"""Scalar-valued wrappers for every registered op, shared by the unit and
acceptance suites. Each case is (fn, inputs) ready for gradient_check."""

import numpy as np

from ambispeech import autodiff as ad
from ambispeech.autodiff import Tensor


def op_check_cases(rng):
    t = lambda *s: Tensor(rng.normal(size=s), requires_grad=True)
    return {
        "matmul": (lambda a, b: ad.mean(ad.matmul(a, b)), [t(3, 4), t(4, 2)]),
        "add": (lambda a, b: ad.mean(ad.add(a, b)), [t(3, 4), t(1, 4)]),
        "mul": (lambda a, b: ad.mean(ad.mul(a, b)), [t(3, 4), t(3, 1)]),
        "tanh": (lambda a: ad.mean(ad.tanh(a)), [t(3, 4)]),
        "relu": (lambda a: ad.mean(ad.relu(a)), [t(3, 4)]),
        "reshape": (lambda a: ad.mean(ad.mul(ad.reshape(a, (4, 3)), ad.reshape(a, (4, 3)))), [t(3, 4)]),
        "index": (lambda a: ad.mean(ad.tanh(ad.index(a, np.s_[1, :, 1:3]))), [t(2, 3, 4)]),
        "mean": (lambda a: ad.mean(ad.tanh(a)), [t(3, 4)]),
        "concat_last": (lambda a, b: ad.mean(ad.tanh(ad.concat_last([a, b]))), [t(3, 4), t(3, 2)]),
        "masked_softmax": (
            lambda a, w: ad.mean(ad.mul(ad.masked_softmax(a, np.array([1.0, 1.0, 0.0, 1.0])), w)),
            [t(2, 4), t(2, 4)],
        ),
        "nll": (
            lambda p: ad.nll(p, np.array([2, 0, 3])),
            [Tensor(rng.uniform(0.1, 1.0, size=(3, 4)), requires_grad=True)],
        ),
    }
