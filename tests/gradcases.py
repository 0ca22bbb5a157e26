"""Scalar-valued wrappers for every registered op, and for each step of the
fused classifier head, shared by the unit and acceptance suites. Each case
is (fn, inputs) ready for gradient_check."""

import numpy as np

from ambispeech import autodiff as ad
from ambispeech.autodiff import Tensor
from ambispeech.models import AUDIO_ONLY_TAGS, IntentClassifier, ModelVariant


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


def op_check_cases(rng):
    t = lambda *s: Tensor(rng.normal(size=s), requires_grad=True)
    w = lambda *s: rng.normal(size=s)
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    return {
        "reshape": (lambda a, w=w(4, 3): weighted_sum((ad.reshape(a, (4, 3)), w)), [t(3, 4)]),
        "index": (lambda a, w=w(3, 2): weighted_sum((ad.index(a, np.s_[1, :, 1:3]), w)),
                  [t(2, 3, 4)]),
        "masked_softmax": (lambda a, w=w(2, 4): weighted_sum((ad.masked_softmax(a, mask), w)),
                           [t(2, 4)]),
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


def head_stage_cases(rng):
    """One case per elementary step that IntentClassifier._head fuses into one
    node, keyed by the op it once was. Each checks the inputs whose gradient
    lines that step writes: the per-part slices of the concat, the two weight
    products, the two row-broadcast bias adds, and the relu mask (b1 is
    random, so z1 takes both signs)."""
    labels = np.array([0, 4, 6])

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
    }
