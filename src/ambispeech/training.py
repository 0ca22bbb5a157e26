"""Loss, optimization, the checkpoint-selection rule, and metrics."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_fields
from .corpus import Example, INTENT_LABELS
from .errors import ConfigError, LabelError, NonFiniteError
from .models import N_CLASSES, IntentClassifier

Array = np.ndarray

TOP_K = 5  # the pool size of select_checkpoint, and so the epochs train keeps a state for
EVAL_BUCKET = 32  # the most records predict_batch runs at once
EVAL_LENGTH_RATIO = 2  # predict_batch groups records within this factor of each other's length


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 100
    batch_size: int = 64
    learning_rate: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    split_ratio: float = 0.9
    group_by_script: bool = False  # keep all variants of a transcript on one side

    _RANGES = {
        "max_epochs": (lambda v: v >= 1, ">= 1"),
        "batch_size": (lambda v: v >= 1, ">= 1"),
        "learning_rate": (lambda v: v > 0, "positive"),
        "beta1": (lambda v: 0 <= v < 1, "in [0, 1)"),
        "beta2": (lambda v: 0 <= v < 1, "in [0, 1)"),
        "eps": (lambda v: v > 0, "positive"),
        "seed": (lambda v: v >= 0, ">= 0"),
        "split_ratio": (lambda v: 0 < v < 1, "in (0, 1)"),
    }

    def __post_init__(self):
        check_fields(self, self._RANGES)


@dataclass
class EpochRecord:
    epoch: int  # 1-based
    accuracy: float
    macro_f1: float
    checkpoint: dict | None  # parameter state while the epoch is in the running top TOP_K
    mean_loss: float


@dataclass
class EvalReport:
    accuracy: float
    macro_f1: float
    precision: Array  # (7,)
    recall: Array  # (7,)
    f1: Array  # (7,)
    confusion: Array  # (7, 7) ints, rows = truth
    n_records: int


class Adam:
    """Adaptive-moment optimizer with bias correction."""

    def __init__(self, params: list[Tensor], lr: float = TrainConfig.learning_rate,
                 beta1: float = TrainConfig.beta1, beta2: float = TrainConfig.beta2,
                 eps: float = TrainConfig.eps):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def cross_entropy(probs: Tensor, label) -> Tensor:
    """mean(-log(max(p[row, label], tiny))) over (B, 7) probs; a (7,) row is a batch of one.

    tiny, the smallest normal float64, keeps the loss finite when a labelled
    probability underflows to 0. The gradient at each labelled entry is
    -1 / (B * p) where p > tiny and 0 elsewhere, in the shape of probs.
    """
    probs = ad._wrap(probs)
    labels = np.atleast_1d(np.asarray(label))
    if labels.dtype.kind not in "iu" or np.any(labels < 0) or np.any(labels >= N_CLASSES):
        raise LabelError(f"labels must be integers in 0..{N_CLASSES - 1}, got {label!r}")
    p = probs.data if probs.ndim == 2 else probs.data[None]
    if p.shape != (*labels.shape, N_CLASSES):
        raise ConfigError(f"probs shape {probs.shape} does not fit labels of shape {labels.shape}")
    rows = np.arange(labels.shape[0])
    picked = p[rows, labels]
    tiny = np.finfo(np.float64).tiny
    out_data = np.asarray((-np.log(np.maximum(picked, tiny))).mean())

    def backward(g: Array) -> None:
        live = picked > tiny
        grad = np.zeros(p.shape)
        grad[rows[live], labels[live]] = ((float(g) / labels.shape[0]) * -1.0) / picked[live]
        ad._accum(probs, grad.reshape(probs.shape))

    return ad._node(out_data, (probs,), backward)


# ------------------------------------------------------------------ metrics


def confusion_matrix(truth, pred, n_classes: int = N_CLASSES) -> Array:
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    m = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(m, (truth, pred), 1)
    return m


def precision_recall_f1(confusion: Array) -> tuple[Array, Array, Array]:
    """Per-class scores; any 0/0 (absent class) scores 0."""
    tp = np.diag(confusion).astype(np.float64)
    col = confusion.sum(axis=0).astype(np.float64)
    row = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, col, out=np.zeros_like(tp), where=col > 0)
    recall = np.divide(tp, row, out=np.zeros_like(tp), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)
    return precision, recall, f1


def report_from_predictions(truth, pred) -> EvalReport:
    m = confusion_matrix(truth, pred)
    n = int(m.sum())
    precision, recall, f1 = precision_recall_f1(m)
    return EvalReport(
        accuracy=float(np.trace(m)) / n,
        macro_f1=float(f1.mean()),
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=m,
        n_records=n,
    )


def per_class_csv(report: EvalReport) -> list[str]:
    """The per-class precision/recall/F1 block, header first."""
    lines = ["class,precision,recall,f1"]
    for i, name in enumerate(INTENT_LABELS):
        lines.append(f"{name},{report.precision[i]:.6f},{report.recall[i]:.6f},{report.f1[i]:.6f}")
    return lines


def confusion_csv(report: EvalReport, corner: str) -> list[str]:
    """The confusion block (rows = truth), with `corner` heading the label column."""
    lines = [corner + "," + ",".join(INTENT_LABELS)]
    for i, name in enumerate(INTENT_LABELS):
        lines.append(name + "," + ",".join(str(int(x)) for x in report.confusion[i]))
    return lines


def format_report(report: EvalReport) -> str:
    """Key:value metrics, the per-class CSV block, and the confusion CSV block."""
    lines = [
        f"accuracy: {report.accuracy:.6f}",
        f"macro_f1: {report.macro_f1:.6f}",
        f"n_records: {report.n_records}",
        "",
        *per_class_csv(report),
        "",
        *confusion_csv(report, "confusion"),
    ]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- batching


def _forward(model: IntentClassifier, examples: list[Example]) -> tuple[Tensor, dict]:
    """model.forward on the examples as one batch: how every batch is run."""
    text = None if examples[0].text is None else [e.text for e in examples]
    return model.forward([e.audio for e in examples], text=text)


@contextmanager
def _no_tape(model: IntentClassifier):
    """The model's parameters stop requiring grad for the block, so no op records a tape."""
    params = [p for p in model.parameters() if p.requires_grad]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


def _eval_buckets(lengths: list[int]) -> list[Array]:
    """Index buckets over `lengths`, in ascending length order; see predict_batch."""
    order = np.argsort(lengths, kind="stable")
    ordered = np.asarray(lengths)[order]

    def class_start(top: int) -> int:  # the first record at least 1/EVAL_LENGTH_RATIO of top
        return int(np.searchsorted(ordered, -(-ordered[top] // EVAL_LENGTH_RATIO)))

    starts = [len(order)]
    while starts[-1] > 0:
        lo = class_start(starts[-1] - 1)
        if starts[-1] - lo == 1 and lo > 0:  # a class of one joins the next shorter class
            lo = class_start(lo - 1)
        starts.append(lo)
    if len(starts) > 2 and starts[-2] == 1:  # a shortest class of one joins the next longer
        del starts[-2]
    buckets = []
    for lo, hi in zip(starts[:0:-1], starts[-2::-1]):
        buckets += np.array_split(order[lo:hi], -(-(hi - lo) // EVAL_BUCKET))
    return buckets


def predict_batch(model: IntentClassifier, examples: list[Example]) -> tuple[Array, Array]:
    """(probs (N, 7), argmax predictions (N,)) without building gradients.

    The records are stably sorted by audio valid length and split into
    length classes: walking down from the longest, a class takes records
    while each is at least 1/EVAL_LENGTH_RATIO as long as the class's
    longest. A class of one joins the next shorter class (the next longer
    one if it is the shortest), so no bucket holds one record unless N == 1
    (a batch of one takes BLAS's matrix-vector path, whose last bits
    differ). Each class runs in ceil(n / EVAL_BUCKET) buckets of near-equal
    size, in ascending length order, so short records do not run through
    a long one's padding. forward pads a bucket once, to its longest
    record's valid rows, as for any batch, so records of any t_max share a
    bucket. The padding left out changes no bit: masked steps freeze the
    LSTM state, and masked_softmax sums left to right, so leading padding
    adds nothing. A record's last bits still follow its bucket's
    composition: a row of an attention GEMM can differ in the last ulp
    with the matrix's row count. Probabilities come back in input order.
    """
    probs = np.empty((len(examples), N_CLASSES))
    with _no_tape(model):
        for idx in _eval_buckets([e.audio.valid_len for e in examples]):
            probs[idx] = _forward(model, [examples[i] for i in idx])[0].data
    return probs, probs.argmax(axis=1)


def evaluate(model: IntentClassifier, examples: list[Example]) -> EvalReport:
    """Full-set evaluation; see report_from_predictions for the metric rules."""
    if not examples:
        raise ConfigError("cannot evaluate an empty set")
    _, preds = predict_batch(model, examples)
    truth = np.array([e.label for e in examples], dtype=np.int64)
    return report_from_predictions(truth, preds)


# ------------------------------------------------------------------- splits


def split_records(examples: list, ratio: float, seed: int,
                  group_by_script: bool = False) -> tuple[list, list]:
    """Seeded shuffle split at `ratio`, independently within each speaker.

    With group_by_script, whole transcripts move to one side or the other.
    """
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    by_speaker: dict[str, list] = {}
    for e in examples:
        by_speaker.setdefault(e.speaker, []).append(e)
    train: list = []
    test: list = []
    for speaker in sorted(by_speaker):
        group = by_speaker[speaker]
        rng = np.random.default_rng([seed, 1299709, hash_str(speaker)])
        if group_by_script:
            scripts = sorted({e.transcript for e in group})
            order = rng.permutation(len(scripts))
            quota = int(len(group) * ratio)
            chosen: set[str] = set()
            count = 0
            for i in order:
                if count >= quota:
                    break
                chosen.add(scripts[i])
                count += sum(1 for e in group if e.transcript == scripts[i])
            train += [e for e in group if e.transcript in chosen]
            test += [e for e in group if e.transcript not in chosen]
        else:
            order = rng.permutation(len(group))
            cut = int(len(group) * ratio)
            train += [group[i] for i in order[:cut]]
            test += [group[i] for i in order[cut:]]
    if not train or not test:
        raise ConfigError(f"split produced an empty side ({len(train)} train, {len(test)} test)")
    return train, test


def hash_str(s: str) -> int:
    """Deterministic 32-bit string hash (builtin hash is salted per process)."""
    h = 2166136261
    for ch in s.encode("utf-8"):
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


# ------------------------------------------------------------------ training


def train(model: IntentClassifier, train_set: list[Example], eval_set: list[Example],
          cfg: TrainConfig, batch_hook=None) -> list[EpochRecord]:
    """Optimize on all of train_set for cfg.max_epochs, scoring eval_set
    after every epoch (the overfit protocol passes one list twice).

    A record holds a copy of the parameters only while its epoch is in the
    top TOP_K by (accuracy, epoch). select_checkpoint always picks from
    that set, and an epoch that leaves it never returns, so the pick holds
    its state. Each step's batch is built from its examples by forward,
    as predict_batch's buckets are, so no copy of the whole set is kept.
    batch_hook(epoch, batch_index, record_ids, loss) observes every
    optimization step. A non-finite loss or gradient norm raises
    NonFiniteError before the step. Deterministic for a fixed cfg.seed.
    """
    if not train_set or not eval_set:
        raise ConfigError("empty train or eval set")
    params = model.parameters()
    opt = Adam(params, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
    records: list[EpochRecord] = []
    for epoch in range(1, cfg.max_epochs + 1):
        rng = np.random.default_rng([cfg.seed, 15485863, epoch])
        order = rng.permutation(len(train_set))
        losses = []
        for b, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = [train_set[i] for i in order[lo : lo + cfg.batch_size]]
            probs, _ = _forward(model, batch)
            loss = cross_entropy(probs, np.array([e.label for e in batch], dtype=np.int64))
            opt.zero_grad()
            loss.backward()
            value = loss.item()
            grad_sq = sum(float(np.vdot(p.grad, p.grad)) for p in params if p.grad is not None)
            if not (np.isfinite(value) and np.isfinite(grad_sq)):
                raise NonFiniteError(f"epoch {epoch}, batch {b}: loss {value} and gradient "
                                     f"norm {np.sqrt(grad_sq)} must be finite")
            opt.step()
            losses.append(value)
            if batch_hook is not None:
                batch_hook(epoch, b, [e.id for e in batch], value)
        report = evaluate(model, eval_set)
        state = {k: v.copy() for k, v in model.state().items()}
        records.append(EpochRecord(epoch, report.accuracy, report.macro_f1, state,
                                   float(np.mean(losses))))
        _keep_top_k(records)
    return records


def _keep_top_k(records: list[EpochRecord]) -> None:
    """Drop the state of the record that has just left the top TOP_K by (accuracy, epoch)."""
    held = [r for r in records if r.checkpoint is not None]
    if len(held) > TOP_K:
        min(held, key=lambda r: (r.accuracy, r.epoch)).checkpoint = None


def select_checkpoint(records: list[EpochRecord]) -> EpochRecord:
    """Intersect the TOP_K-best-accuracy and TOP_K-best-F1 epochs; pick the highest
    accuracy there (ties toward later epochs); fall back to plain argmax
    accuracy when the intersection is empty. Rank-based, so invariant
    under monotone rescaling of either metric."""
    if not records:
        raise ConfigError("no epoch records to select from")
    k = min(TOP_K, len(records))

    def top(key) -> set[int]:
        ranked = sorted(records, key=lambda r: (key(r), r.epoch), reverse=True)
        return {r.epoch for r in ranked[:k]}

    pool_epochs = top(lambda r: r.accuracy) & top(lambda r: r.macro_f1)
    pool = [r for r in records if r.epoch in pool_epochs] or list(records)
    return max(pool, key=lambda r: (r.accuracy, r.epoch))


def log_lines(records: list[EpochRecord]) -> list[str]:
    """CSV training log, one "epoch,acc,f1,loss" line per epoch."""
    out = ["epoch,acc,f1,loss"]
    for r in records:
        out.append(f"{r.epoch},{r.accuracy:.6f},{r.macro_f1:.6f},{r.mean_loss:.6f}")
    return out
