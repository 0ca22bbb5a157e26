"""Scalar-valued wrappers for every registered op, and for the arithmetic
that took over each retired op, shared by the unit and acceptance suites.
Each case is (fn, inputs) ready for gradient_check."""

import numpy as np

from ambispeech import autodiff as ad
from ambispeech.autodiff import Tensor
from ambispeech.models import AUDIO_ONLY_TAGS, IntentClassifier, ModelVariant
from ambispeech.training import cross_entropy


def weighted_sum(*terms) -> Tensor:
    """sum((x * w).sum() for x, w in terms) as one scalar node, the suites' test loss.

    Each w is a constant array (or float) that broadcasts to its x.
    """
    terms = [(x, np.broadcast_to(np.asarray(w, dtype=np.float64), x.shape)) for x, w in terms]
    total = sum((x.data * w).sum() for x, w in terms)

    def backward(g):
        for x, w in terms:
            ad._accum(x, g * w)

    return ad._node(np.asarray(total), [x for x, _ in terms], backward)


def softmax_node(scores: Tensor, mask) -> Tensor:
    """masked_softmax as one node, with the _softmax_grad backward that attend and the head call."""
    out = ad.masked_softmax(scores.data, mask)
    return ad._node(out, (scores,), lambda g: ad._accum(scores, ad._softmax_grad(out, g)))


def op_check_cases(rng):
    t = lambda *s: Tensor(rng.normal(size=s), requires_grad=True)
    w = lambda *s: rng.normal(size=s)

    def index_reads(a, w1=w(3, 2), w2=w(1, 4)):
        # an int key with slices, and a None key that adds an axis
        return weighted_sum((ad.index(a, np.s_[1, :, 1:3]), w1),
                            (ad.index(a, np.s_[None, 0, 2]), w2))

    return {
        "index": (index_reads, [t(2, 3, 4)]),
        "nll": (
            lambda p: ad.nll(p, np.array([2, 0, 3])),
            [Tensor(rng.uniform(0.1, 1.0, size=(3, 4)), requires_grad=True)],
        ),
    }


def head_model(tag, seed=0, hidden=2, head_hidden=5) -> IntentClassifier:
    """A small model of one variant, for checks of its head alone; each part is (B, 2 * hidden)."""
    text = tag not in AUDIO_ONLY_TAGS
    variant = ModelVariant.parse(tag, "sparse" if text else "none")
    return IntentClassifier(variant, audio_dim=3, text_dim=3 if text else None, hidden=hidden,
                            head_hidden=head_hidden, seed=seed)


def retired_op_cases(rng):
    """One case per op the engine no longer registers, keyed by its old name,
    on the arithmetic that does its job now.

    Four are the elementary steps that IntentClassifier._head fuses into one
    node. Each checks the inputs whose gradient lines that step writes: the
    per-part slices of the concat, the two weight products, the two
    row-broadcast bias adds, and the relu mask (b1 is random, so z1 takes
    both signs). masked_softmax checks _softmax_grad on a masked row, and
    reshape the two index reads a single utterance takes to the loss: one
    row of the batch, then a new leading axis in cross_entropy.
    """
    labels = np.array([0, 4, 6])
    mask = np.array([1.0, 1.0, 0.0, 1.0])

    def case(tag, inputs_of):
        m = head_model(tag, seed=int(rng.integers(1000)))
        m.b1.data = rng.normal(size=m.b1.shape)
        parts = [Tensor(rng.normal(size=(3, 4))) for _ in range(1 if tag in AUDIO_ONLY_TAGS else 2)]
        # gradient_check perturbs the checked tensors in place, so fn reads them from m and parts
        return (lambda *_: ad.nll(m._head(parts)[0], labels)), inputs_of(m, parts)

    return {
        "concat_last": case("ca", lambda m, parts: parts),
        "matmul": case("audio_bre", lambda m, parts: [m.W1, m.W2]),
        "add": case("audio_bre", lambda m, parts: [m.b1, m.b2]),
        "relu": case("audio_bre", lambda m, parts: [*parts, m.b1]),
        "masked_softmax": (
            lambda a, w=rng.normal(size=(2, 4)): weighted_sum((softmax_node(a, mask), w)),
            [Tensor(rng.normal(size=(2, 4)), requires_grad=True)],
        ),
        "reshape": (lambda p: cross_entropy(ad.index(p, 1), 4),
                    [Tensor(rng.uniform(0.1, 1.0, size=(3, 7)), requires_grad=True)]),
    }
