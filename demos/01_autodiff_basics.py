"""
Traced nodes with hand-written backward passes
==============================================

Each model layer in this package is one traced node with a hand-written
backward: an encoder's two LSTM directions, every attention call, the
classifier head and the cross-entropy loss. The masked softmax inside
attention and the head is a plain array function. This walk-through runs
it, sends the engine's one op (index) and the loss through a backward
pass, then lets the finite-difference checker confirm the analytic
gradients of one attention call and of a whole model.
"""

import numpy as np

from ambispeech import (AttentionParams, IntentClassifier, ModelVariant, Tensor, attend,
                        cross_entropy, gradient_check, init_attention, masked_softmax)
from ambispeech import autodiff as ad

# masked_softmax takes and returns plain arrays. Masked slots get exactly
# zero probability, not merely a small one.
scores = np.array([[1.0, 2.0, 5.0], [0.5, -1.0, 3.0]])
mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
print("masked softmax:\n", masked_softmax(scores, mask))

# A Tensor wraps a float64 array. Only tensors created with
# requires_grad=True (and anything computed from them) receive gradients.
# index copies a basic-indexing read: here row 1 of two seven-way
# probability rows, the step a single utterance takes from the head to the
# loss. cross_entropy is the mean negative log-probability of each row's
# label, and it reads a lone row as a batch of one; backward() walks the
# recorded nodes once and scatters the gradient back through index.
rng = np.random.default_rng(0)
probs = Tensor(masked_softmax(rng.normal(size=(2, 7)), np.ones(7)), requires_grad=True)
loss = cross_entropy(ad.index(probs, 1), 2)
print("loss =", loss.item())
loss.backward()
print("dloss/dprobs (nonzero only at row 1, label 2) =\n", probs.grad)

# gradient_check perturbs every input coordinate with central differences
# and reports the worst relative disagreement with the analytic gradient.
# Here it checks one attention call: a learned context scores five states
# of seven entries per row, and cross_entropy reads the pooled vectors.
# The loss needs positive entries only: the states lie in (0.1, 1), so each
# pooled vector, a convex mix of them, does too.
ap = init_attention(rng, d_c=3, state_dim=7, learned_context=True)
ap.c.data = rng.normal(size=3)
H = Tensor(rng.uniform(0.1, 1.0, size=(2, 5, 7)))
state_mask = np.array([[0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]])


def attention_loss(H, W, b, c):
    _, pooled = attend(H, state_mask, AttentionParams(W, b, c), c)
    return cross_entropy(pooled, np.array([0, 3]))


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

# The engine registers only the ops the layers call, today index alone;
# each one is checked the same way.
print("registered ops:", ", ".join(sorted(ad.REGISTERED_OPS)))
