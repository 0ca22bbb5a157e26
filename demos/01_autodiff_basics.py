"""
Traced nodes with hand-written backward passes
==============================================

Each model layer in this package is one traced node with a hand-written
backward: an encoder's two LSTM directions, every attention call, the
classifier head and the loss. This walk-through runs the engine's own
ops (masked softmax and the negative log-likelihood) through a backward
pass, then lets the finite-difference checker confirm the analytic
gradients of one attention call and of a whole model.
"""

import numpy as np

from ambispeech import (AttentionParams, IntentClassifier, ModelVariant, Tensor, attend,
                        cross_entropy, gradient_check, init_attention, masked_softmax)
from ambispeech import autodiff as ad

# A Tensor wraps a float64 array. Only tensors created with
# requires_grad=True (and anything computed from them) receive gradients.
scores = Tensor(np.array([[1.0, 2.0, 5.0], [0.5, -1.0, 3.0]]), requires_grad=True)
mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

# Masked slots get exactly zero probability, not merely a small one.
probs = masked_softmax(scores, mask)
print("masked softmax:\n", probs.data)

# nll is the mean negative log-probability of each row's label; backward()
# walks the recorded nodes once and accumulates into .grad.
loss = ad.nll(probs, np.array([1, 2]))
print("loss =", loss.item())
loss.backward()
print("dloss/dscores (zero at the masked slot) =\n", scores.grad)

# gradient_check perturbs every input coordinate with central differences
# and reports the worst relative disagreement with the analytic gradient.
# Here it checks one attention call: a learned context scores five states
# per row, and the pooled vectors feed a softmax and the loss.
rng = np.random.default_rng(0)
ap = init_attention(rng, d_c=3, state_dim=4, learned_context=True)
ap.c.data = rng.normal(size=3)
H = Tensor(rng.normal(size=(2, 5, 4)))
state_mask = np.array([[0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]])


def attention_loss(H, W, b, c):
    _, pooled = attend(H, state_mask, AttentionParams(W, b, c), c)
    return ad.nll(masked_softmax(pooled, np.ones(4)), np.array([0, 3]))


err = gradient_check(attention_loss, [H, ap.W, ap.b, ap.c])
print(f"attend gradient check, worst relative error: {err:.2e}")

# The same check over every parameter of a small model: the encoder, the
# attention pool and the fused head, all the way to the cross-entropy.
model = IntentClassifier(ModelVariant("audio_bre_att"), audio_dim=4, hidden=3, head_hidden=5)
audio = rng.normal(size=(2, 6, 4))
audio_mask = np.array([[0.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0] * 6])
audio[0, 0] = 0.0


def model_loss(*params):
    probs, _ = model.forward(audio, audio_mask)
    return cross_entropy(probs, np.array([2, 5]))


err = gradient_check(model_loss, model.parameters())
print(f"model gradient check over {model.num_params()} parameters, "
      f"worst relative error: {err:.2e}")

# The engine keeps only the ops the layers call; each one is checked the same way.
print("registered ops:", ", ".join(sorted(ad.REGISTERED_OPS)))
