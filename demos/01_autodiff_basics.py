"""
Reverse-mode differentiation on numpy arrays
============================================

Every model in this package is built from a small set of traced array
operations. This walk-through builds a tiny computation by hand, runs
the backward pass, and then lets the finite-difference checker confirm
the analytic gradients.
"""

import numpy as np

from ambispeech import Tensor, autodiff as ad

# A Tensor wraps a float64 array. Only tensors created with
# requires_grad=True (and anything computed from them) receive gradients.
W = Tensor(np.array([[0.4, -0.1], [0.1, 0.3]]), requires_grad=True)
x = Tensor(np.array([[1.0], [2.0]]))

# Operations come from the autodiff module and record the graph as they run.
h = ad.tanh(W @ x)
loss = ad.mean(ad.mul(h, h))
print("loss =", loss.item())

# backward() walks the recorded graph once and accumulates into .grad.
loss.backward()
print("dloss/dW =\n", W.grad)

# The same machinery powers masked attention: scores at masked slots get
# exactly zero probability, not merely a small one.
scores = Tensor(np.array([1.0, 2.0, 5.0]))
mask = np.array([1.0, 1.0, 0.0])
print("masked softmax:", ad.masked_softmax(scores, mask).data)

# gradient_check perturbs every input coordinate with central differences
# and reports the worst relative disagreement with the analytic gradient.
def f(a, b):
    return ad.mean(ad.tanh(ad.matmul(a, b)))

rng = np.random.default_rng(0)
err = ad.gradient_check(
    f,
    [Tensor(rng.normal(size=(3, 4)), requires_grad=True),
     Tensor(rng.normal(size=(4, 2)), requires_grad=True)],
)
print(f"gradient check worst relative error: {err:.2e}")

# Every op in the registry can be checked the same way.
print("registered ops:", ", ".join(sorted(ad.REGISTERED_OPS)))
