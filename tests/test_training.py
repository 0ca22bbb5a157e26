import math
from dataclasses import replace

import numpy as np
import pytest
from gradcases import softmax_node

from ambispeech import autodiff as ad
from ambispeech import models as md
from ambispeech import training as tr
from ambispeech.autodiff import Tensor
from ambispeech.corpus import Example, INTENT_LABELS, featurize_corpus
from ambispeech.errors import ConfigError, LabelError, ModalityError, NonFiniteError
from ambispeech.features import FeatureConfig, end_align
from ambispeech.models import IntentClassifier, ModelVariant
from ambispeech.synth import SyntheticSpec, generate_synthetic


def make_examples(n, rng, audio_dim=5, speakers=("alba", "brim")):
    out = []
    for i in range(n):
        audio = end_align(rng.normal(size=(int(rng.integers(3, 7)), audio_dim)), 6)
        out.append(Example(
            id=f"ex{i:03d}",
            audio=audio,
            text=None,
            label=int(rng.integers(0, 7)),
            speaker=speakers[i % len(speakers)],
            transcript=f"script{i // 2}",
        ))
    return out


def tiny_model(seed=0, audio_dim=5):
    v = ModelVariant("audio_bre", "none")
    return IntentClassifier(v, audio_dim=audio_dim, hidden=4, head_hidden=8, seed=seed)


# ------------------------------------------------------------- cross entropy


def test_cross_entropy_of_certainty_is_zero():
    p = np.full(7, 1e-12)
    p[3] = 1.0
    assert tr.cross_entropy(Tensor(p), 3).item() == 0.0


def test_cross_entropy_of_uniform_is_log7():
    loss = tr.cross_entropy(Tensor(np.full(7, 1.0 / 7.0)), 2)
    assert abs(loss.item() - math.log(7.0)) < 1e-12


def test_cross_entropy_batched_is_mean():
    probs = np.stack([np.full(7, 1.0 / 7.0), np.eye(7)[4]])
    loss = tr.cross_entropy(Tensor(probs), np.array([0, 4]))
    assert abs(loss.item() - math.log(7.0) / 2.0) < 1e-12


def test_cross_entropy_floor_keeps_loss_finite():
    # the floor is the smallest normal float64, so -log of it is about 708.396
    p = Tensor(np.zeros(7), requires_grad=True)
    p.data[0] = 1.0
    loss = tr.cross_entropy(p, 1)
    assert abs(loss.item() - (-math.log(np.finfo(np.float64).tiny))) < 1e-9
    assert abs(loss.item() - 708.396) < 1e-3
    loss.backward()  # p[label] == 0 gets no gradient, and no warning
    np.testing.assert_array_equal(p.grad, np.zeros(7))


def test_cross_entropy_keeps_gradient_when_confidently_wrong():
    # a logit gap of 40 on the wrong class once hit the old 1e-12 floor:
    # loss 27.63 and an all-zero gradient
    z = Tensor(np.zeros((1, 7)), requires_grad=True)
    z.data[0, 0] = 40.0
    probs = softmax_node(z, np.ones((1, 7)))
    loss = tr.cross_entropy(probs, np.array([1]))
    assert abs(loss.item() - 40.0) < 1e-12
    loss.backward()
    np.testing.assert_allclose(z.grad, probs.data - np.eye(7)[[1]], rtol=0, atol=1e-15)


def test_cross_entropy_is_one_node_on_the_probabilities():
    probs = Tensor(np.full((2, 7), 1.0 / 7.0), requires_grad=True)
    loss = tr.cross_entropy(probs, np.array([0, 4]))
    assert len(loss._parents) == 1
    assert loss._parents[0] is probs


def test_cross_entropy_rejects_bad_labels():
    p = Tensor(np.full(7, 1.0 / 7.0))
    for bad in (7, -1, np.array([0.5])):
        with pytest.raises(LabelError):
            tr.cross_entropy(p, bad)


def test_a_row_is_a_batch_of_one_in_one_node(monkeypatch):
    # a single utterance's (7,) probabilities give the loss and gradient of
    # the same row as a (1, 7) batch, bit for bit, from one taped node
    p = np.random.default_rng(8).dirichlet(np.ones(7))
    p[2] = 0.0  # a floored entry, which gets no gradient
    taped = []
    real_node = ad._node

    def spy(data, parents, backward):
        out = real_node(data, parents, backward)
        taped.append(out.requires_grad)
        return out

    monkeypatch.setattr(ad, "_node", spy)
    for label in (2, 5):
        row = Tensor(p.copy(), requires_grad=True)
        batch = Tensor(p[None].copy(), requires_grad=True)
        taped.clear()
        loss = tr.cross_entropy(row, label)
        assert sum(taped) == 1 and loss._parents == (row,)
        want = tr.cross_entropy(batch, np.array([label]))
        loss.backward()
        want.backward()
        assert loss.data.tobytes() == want.data.tobytes()
        assert row.grad.shape == (7,)
        assert row.grad.tobytes() == batch.grad[0].tobytes()


def test_cross_entropy_rejects_probs_that_do_not_fit_the_labels():
    for shape, labels in (((2, 7), np.array([0, 1, 2])), ((14,), 0), ((1, 1, 7), 0),
                          ((2, 7), np.array([[0], [1]]))):
        with pytest.raises(ConfigError, match="does not fit labels of shape"):
            tr.cross_entropy(Tensor(np.full(shape, 1.0 / 7.0)), labels)


def test_softmax_cross_entropy_gradient_closed_form():
    rng = np.random.default_rng(1)
    z = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    labels = np.array([2, 0, 6])
    probs = softmax_node(z, np.ones((3, 7)))
    tr.cross_entropy(probs, labels).backward()
    onehot = np.eye(7)[labels]
    np.testing.assert_allclose(z.grad, (probs.data - onehot) / 3.0, atol=1e-12)


# --------------------------------------------------------------------- Adam


def test_adam_first_step_closed_form():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    g = np.array([0.3, -4.0, 1e-6])
    p.grad = g.copy()
    opt = tr.Adam([p], lr=0.01)
    opt.step()
    expected = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + opt.eps)
    np.testing.assert_allclose(p.data, expected, atol=1e-15)


def test_adam_skips_missing_grads():
    p = Tensor(np.ones(3), requires_grad=True)
    opt = tr.Adam([p], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(p.data, np.ones(3))
    opt.zero_grad()
    assert p.grad is None


def test_adam_single_step_reduces_loss_across_inits():
    rng = np.random.default_rng(2)
    examples = make_examples(8, rng)
    labels = np.array([e.label for e in examples])
    for seed in range(20):
        m = tiny_model(seed=seed)
        opt = tr.Adam(m.parameters(), lr=1e-4)
        probs, _ = tr._forward(m, examples)
        loss0 = tr.cross_entropy(probs, labels)
        opt.zero_grad()
        loss0.backward()
        opt.step()
        probs, _ = tr._forward(m, examples)
        loss1 = tr.cross_entropy(probs, labels)
        assert loss1.item() < loss0.item(), seed


# --------------------------------------------------------------- selection


def rec(epoch, acc, f1):
    return tr.EpochRecord(epoch, acc, f1, None, 0.0)


def test_select_checkpoint_hand_example():
    accs = [0.80, 0.90, 0.85, 0.92, 0.91, 0.89, 0.88]
    f1s = [0.70, 0.60, 0.72, 0.71, 0.73, 0.69, 0.68]
    records = [rec(i + 1, a, f) for i, (a, f) in enumerate(zip(accs, f1s))]
    assert tr.select_checkpoint(records).epoch == 4


def test_select_checkpoint_few_epochs_is_argmax():
    records = [rec(1, 0.5, 0.9), rec(2, 0.7, 0.1), rec(3, 0.6, 0.5)]
    assert tr.select_checkpoint(records).epoch == 2


def test_select_checkpoint_disjoint_pools_fall_back_to_accuracy():
    # ranks perfectly inverted, so the two top-5 sets cannot overlap
    records = [rec(i + 1, 1.0 - i * 0.05, i * 0.05) for i in range(10)]
    assert tr.select_checkpoint(records).epoch == 1


def test_select_checkpoint_breaks_ties_toward_later_epoch():
    records = [rec(1, 0.9, 0.8), rec(2, 0.9, 0.8), rec(3, 0.1, 0.1)]
    assert tr.select_checkpoint(records).epoch == 2


def test_select_checkpoint_empty_rejected():
    with pytest.raises(ConfigError):
        tr.select_checkpoint([])


def monotone_transforms():
    return [
        lambda x: 2.0 * x + 3.0,
        lambda x: math.exp(x),
        lambda x: x**3,
        lambda x: 1.0 / (1.0 + math.exp(-x)),
    ]


def test_selection_is_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(6, 30))
        # distinct values in both metrics keep every ranking unambiguous
        accs = rng.permutation(n) / n + rng.uniform(0, 1e-4)
        f1s = rng.permutation(n) / n + rng.uniform(0, 1e-4)
        records = [rec(i + 1, float(a), float(f)) for i, (a, f) in enumerate(zip(accs, f1s))]
        baseline = tr.select_checkpoint(records).epoch
        for g in monotone_transforms():
            for h in monotone_transforms():
                warped = [rec(r.epoch, g(r.accuracy), h(r.macro_f1)) for r in records]
                assert tr.select_checkpoint(warped).epoch == baseline, trial


# ------------------------------------------------------------------ metrics


def test_metrics_hand_example():
    s, yn = 0, 1
    report = tr.report_from_predictions([s, s, yn, yn], [s, yn, yn, yn])
    assert report.accuracy == 0.75
    assert abs(report.macro_f1 - (2.0 / 3.0 + 0.8) / 7.0) < 1e-12
    assert report.precision[s] == 1.0
    assert report.recall[s] == 0.5
    assert abs(report.precision[yn] - 2.0 / 3.0) < 1e-12
    assert report.recall[yn] == 1.0
    assert report.confusion[s, s] == 1
    assert report.confusion[s, yn] == 1
    assert report.confusion[yn, yn] == 2
    assert report.n_records == 4


def test_single_class_perfect_macro_f1_is_one_seventh():
    report = tr.report_from_predictions([0] * 5, [0] * 5)
    assert report.accuracy == 1.0
    assert abs(report.macro_f1 - 1.0 / 7.0) < 1e-12


def test_confusion_marginals_match_counts():
    rng = np.random.default_rng(4)
    truth = rng.integers(0, 7, size=200)
    pred = rng.integers(0, 7, size=200)
    m = tr.confusion_matrix(truth, pred)
    np.testing.assert_array_equal(m.sum(axis=1), np.bincount(truth, minlength=7))
    np.testing.assert_array_equal(m.sum(axis=0), np.bincount(pred, minlength=7))
    assert m.sum() == 200


def test_absent_class_scores_zero_not_nan():
    p, r, f1 = tr.precision_recall_f1(np.zeros((7, 7), dtype=np.int64))
    for arr in (p, r, f1):
        assert np.all(arr == 0.0)
        assert np.all(np.isfinite(arr))


def test_format_report_structure():
    report = tr.report_from_predictions([0, 1, 2], [0, 1, 1])
    text = tr.format_report(report)
    lines = text.splitlines()
    assert lines[0] == "accuracy: 0.666667"
    assert lines[4] == "class,precision,recall,f1"
    class_rows = lines[5:12]
    assert [row.split(",")[0] for row in class_rows] == list(INTENT_LABELS)
    assert lines[13] == "confusion," + ",".join(INTENT_LABELS)
    assert len(lines) == 21


# ------------------------------------------------------------------- splits


def test_split_is_deterministic_and_partitions():
    rng = np.random.default_rng(5)
    examples = make_examples(40, rng)
    a_train, a_test = tr.split_records(examples, 0.8, seed=11)
    b_train, b_test = tr.split_records(examples, 0.8, seed=11)
    assert [e.id for e in a_train] == [e.id for e in b_train]
    assert [e.id for e in a_test] == [e.id for e in b_test]
    ids = {e.id for e in a_train} | {e.id for e in a_test}
    assert ids == {e.id for e in examples}
    assert not ({e.id for e in a_train} & {e.id for e in a_test})


def test_split_ratio_holds_per_speaker():
    rng = np.random.default_rng(6)
    examples = make_examples(40, rng)
    train, _ = tr.split_records(examples, 0.75, seed=1)
    for speaker in ("alba", "brim"):
        n_train = sum(1 for e in train if e.speaker == speaker)
        assert n_train == int(20 * 0.75)


def test_split_seed_changes_assignment():
    rng = np.random.default_rng(7)
    examples = make_examples(40, rng)
    a_train, _ = tr.split_records(examples, 0.8, seed=1)
    b_train, _ = tr.split_records(examples, 0.8, seed=2)
    assert {e.id for e in a_train} != {e.id for e in b_train}


def test_grouped_split_keeps_transcripts_together():
    rng = np.random.default_rng(8)
    examples = make_examples(40, rng, speakers=("solo",))
    train, test = tr.split_records(examples, 0.7, seed=3, group_by_script=True)
    assert not ({e.transcript for e in train} & {e.transcript for e in test})
    assert train and test


def test_split_validation():
    rng = np.random.default_rng(9)
    examples = make_examples(4, rng)
    with pytest.raises(ConfigError):
        tr.split_records(examples, 1.0, seed=0)
    with pytest.raises(ConfigError):
        tr.split_records(examples[:2], 0.4, seed=0)  # cut of 0 empties train


def test_hash_str_is_stable():
    assert tr.hash_str("") == 2166136261
    assert tr.hash_str("a") == 0xE40C292C
    assert tr.hash_str("alba") == tr.hash_str("alba")


# ----------------------------------------------------------------- training


def test_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(max_epochs=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(split_ratio=1.5)
    with pytest.raises(ConfigError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(learning_rate=0.0)
    for bad in ({"beta1": 1.0}, {"beta1": -0.1}, {"beta2": 1.5}, {"eps": 0}, {"eps": -1e-8},
                {"learning_rate": float("nan")}, {"learning_rate": float("inf")},
                {"beta2": float("nan")}, {"learning_rate": 10**400}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            tr.TrainConfig(**bad)
    assert tr.TrainConfig(beta1=0, learning_rate=1).learning_rate == 1  # an int is a number


def test_same_seed_runs_are_identical():
    rng = np.random.default_rng(10)
    examples = make_examples(12, rng)
    cfg = tr.TrainConfig(max_epochs=3, batch_size=4, seed=5, split_ratio=0.75)
    train_set, test_set = tr.split_records(examples, cfg.split_ratio, cfg.seed)
    logs = []
    for _ in range(2):
        records = tr.train(tiny_model(seed=1), train_set, test_set, cfg)
        logs.append(tr.log_lines(records))
    assert logs[0] == logs[1]
    assert len(logs[0]) == 4


def test_first_batch_loss_is_initial_cross_entropy():
    rng = np.random.default_rng(11)
    examples = make_examples(8, rng)
    cfg = tr.TrainConfig(max_epochs=1, batch_size=8, seed=6, split_ratio=0.5)
    train_set, test_set = tr.split_records(examples, cfg.split_ratio, cfg.seed)
    seen = []
    tr.train(tiny_model(seed=2), train_set, test_set, cfg,
             batch_hook=lambda epoch, b, ids, loss: seen.append((epoch, b, ids, loss)))
    epoch, b, ids, loss = seen[0]
    assert (epoch, b) == (1, 0)
    by_id = {e.id: e for e in examples}
    batch = [by_id[i] for i in ids]
    twin = tiny_model(seed=2)
    probs, _ = tr._forward(twin, batch)
    want = tr.cross_entropy(probs, np.array([e.label for e in batch])).item()
    assert abs(loss - want) < 1e-12


def test_whole_train_set_is_stepped_on():
    rng = np.random.default_rng(12)
    examples = make_examples(7, rng)
    cfg = tr.TrainConfig(max_epochs=2, batch_size=3, seed=0)
    counted = []
    tr.train(tiny_model(), examples, examples[:2], cfg,
             batch_hook=lambda e, b, ids, loss: counted.append((e, b, ids)))
    # train does no split of its own: every record is stepped on once per epoch
    for epoch in (1, 2):
        ids = [i for e, _, batch in counted if e == epoch for i in batch]
        assert sorted(ids) == sorted(e.id for e in examples)
    assert [b for e, b, _ in counted if e == 1] == [0, 1, 2]


def test_only_the_running_top_k_keep_a_state():
    rng = np.random.default_rng(13)
    examples = make_examples(16, rng)
    cfg = tr.TrainConfig(max_epochs=9, batch_size=4, seed=7, split_ratio=0.5)
    train_set, test_set = tr.split_records(examples, cfg.split_ratio, cfg.seed)
    m = tiny_model(seed=3)
    records = tr.train(m, train_set, test_set, cfg)
    ranked = sorted(records, key=lambda r: (r.accuracy, r.epoch), reverse=True)
    assert {r.epoch for r in records if r.checkpoint is not None} == {
        r.epoch for r in ranked[:tr.TOP_K]}
    assert tr.select_checkpoint(records).checkpoint is not None
    # states must be frozen copies, not views of the live parameters
    held = ranked[0].checkpoint
    before = held["model.audio_bre.head.W1"].copy()
    for p in m.parameters():
        p.data += 1.0
    np.testing.assert_array_equal(held["model.audio_bre.head.W1"], before)


def test_keep_top_k_holds_what_select_checkpoint_picks():
    rng = np.random.default_rng(15)
    values = (0.25, 0.5, 0.75)  # few values, so ties are common
    for _ in range(600):
        records = []
        for epoch in range(1, int(rng.integers(1, 31)) + 1):
            acc, f1 = rng.choice(values, size=2)
            records.append(tr.EpochRecord(epoch, float(acc), float(f1), {}, 1.0))
            tr._keep_top_k(records)
            assert sum(r.checkpoint is not None for r in records) == min(epoch, tr.TOP_K)
            assert tr.select_checkpoint(records).checkpoint is not None


def test_selected_snapshot_restores_reported_accuracy():
    rng = np.random.default_rng(14)
    examples = make_examples(16, rng)
    cfg = tr.TrainConfig(max_epochs=4, batch_size=4, seed=8, split_ratio=0.5)
    train_set, test_set = tr.split_records(examples, cfg.split_ratio, cfg.seed)
    m = tiny_model(seed=4)
    records = tr.train(m, train_set, test_set, cfg)
    best = tr.select_checkpoint(records)
    m.load_state(best.checkpoint)
    assert tr.evaluate(m, test_set).accuracy == best.accuracy


def test_non_finite_feature_stops_training_at_its_batch():
    rng = np.random.default_rng(16)
    examples = make_examples(6, rng)
    poisoned = examples[3].audio.data.copy()
    poisoned[-1, 0] = np.nan
    examples[3] = replace(examples[3], audio=replace(examples[3].audio, data=poisoned))
    cfg = tr.TrainConfig(max_epochs=2, batch_size=6, seed=0)
    m = tiny_model()
    before = {k: v.copy() for k, v in m.state().items()}
    with pytest.raises(NonFiniteError, match=r"epoch 1, batch 0\b"):
        tr.train(m, examples, examples, cfg)
    # the step is refused, so the parameters are still the initial ones
    for k, v in m.state().items():
        np.testing.assert_array_equal(v, before[k])


def test_evaluate_rejects_empty():
    with pytest.raises(ConfigError):
        tr.evaluate(tiny_model(), [])


def test_train_rejects_an_empty_set():
    examples = make_examples(2, np.random.default_rng(0))
    for train_set, eval_set in (([], examples), (examples, [])):
        with pytest.raises(ConfigError, match="^empty train or eval set$"):
            tr.train(tiny_model(), train_set, eval_set, tr.TrainConfig(max_epochs=1))


VARIANTS = [("audio_bre", "none"), ("audio_bre_att", "none"), ("para_bre_att", "sparse"),
            ("mha_a", "sparse"), ("mha_at", "sparse"), ("ca", "sparse")]


def variant_and_examples(tag, text_mode, rng):
    examples = make_examples(9, rng)
    text = text_mode != "none"
    if text:
        examples = [replace(e, text=end_align(rng.normal(size=(int(rng.integers(1, 5)), 4)), 4))
                    for e in examples]
    model = IntentClassifier(ModelVariant(tag, text_mode), audio_dim=5,
                             text_dim=4 if text else None, hidden=4, head_hidden=8, seed=1)
    return model, examples


NODES_PER_STEP = {"audio_bre": 5, "audio_bre_att": 6, "para_bre_att": 10, "mha_a": 10,
                  "mha_at": 11, "ca": 11}


@pytest.mark.parametrize("tag, text_mode", VARIANTS)
def test_taped_nodes_per_training_step(tag, text_mode, monkeypatch):
    # each BRE is three nodes (the fused LSTM pair and its two index reads),
    # each attention call one, the head one, the loss one
    model, examples = variant_and_examples(tag, text_mode, np.random.default_rng(26))
    taped = []
    real_node = ad._node

    def spy(data, parents, backward):
        out = real_node(data, parents, backward)
        taped.append(out.requires_grad)
        return out

    per_step = []

    def hook(epoch, b, ids, loss):
        per_step.append(sum(taped))
        taped.clear()

    monkeypatch.setattr(ad, "_node", spy)
    cfg = tr.TrainConfig(max_epochs=2, batch_size=4, seed=0)
    tr.train(model, examples, examples, cfg, batch_hook=hook)
    assert per_step == [NODES_PER_STEP[tag]] * 6


@pytest.mark.parametrize("tag, text_mode", VARIANTS)
def test_predict_batch_matches_taped_forward_and_records_no_tape(tag, text_mode, monkeypatch):
    model, examples = variant_and_examples(tag, text_mode, np.random.default_rng(21))
    taped, _ = tr._forward(model, examples)
    tr.cross_entropy(taped, np.array([e.label for e in examples])).backward()
    grads = {name: p.grad for name, p in model.named_parameters().items()}
    assert all(g is not None for g in grads.values())

    recorded = []
    real_node = ad._node

    def spy(data, parents, backward):
        out = real_node(data, parents, backward)
        recorded.append(out.requires_grad)
        return out

    monkeypatch.setattr(ad, "_node", spy)
    probs, preds = tr.predict_batch(model, examples)
    assert recorded and not any(recorded)
    assert np.array_equal(probs, taped.data)
    assert np.array_equal(preds, taped.data.argmax(axis=1))
    for name, p in model.named_parameters().items():
        assert p.requires_grad and p.grad is grads[name], name


def longtail_examples(n, text, rng):
    """n shuffled records whose audio lengths follow a long tail in a 40-step buffer."""
    lengths = rng.permutation(np.where(np.arange(n) % 8 == 0, rng.integers(20, 41, n),
                                       rng.integers(2, 7, n)))
    return [Example(id=f"lt{i:03d}", audio=end_align(rng.normal(size=(int(v), 5)), 40),
                    text=end_align(rng.normal(size=(int(rng.integers(1, 9)), 4)), 8) if text else None,
                    label=int(rng.integers(0, 7)), speaker="alba", transcript=f"s{i}")
            for i, v in enumerate(lengths)]


@pytest.mark.parametrize("n", [37, 65])
@pytest.mark.parametrize("tag, text_mode", VARIANTS)
def test_predict_batch_buckets_by_length_and_keeps_input_order(tag, text_mode, n, monkeypatch):
    rng = np.random.default_rng(n)
    examples = longtail_examples(n, text_mode != "none", rng)
    model = IntentClassifier(ModelVariant(tag, text_mode), audio_dim=5,
                             text_dim=4 if text_mode != "none" else None,
                             hidden=4, head_hidden=8, seed=2)
    with tr._no_tape(model):
        whole, _ = tr._forward(model, examples)

    buckets = []
    real_forward = tr._forward

    def spy(model, batch):
        buckets.append(np.array([e.audio.valid_len for e in batch]))
        return real_forward(model, batch)

    monkeypatch.setattr(tr, "_forward", spy)
    probs, preds = tr.predict_batch(model, examples)
    assert np.array_equal(probs, whole.data)
    assert np.array_equal(preds, whole.data.argmax(axis=1))
    # every record once, in buckets of 2 to EVAL_BUCKET records, in length order,
    # each within EVAL_LENGTH_RATIO but for a class of one merged in
    assert sum(map(len, buckets)) == n
    assert all(2 <= len(b) <= tr.EVAL_BUCKET for b in buckets)
    assert all(a.max() <= b.min() for a, b in zip(buckets, buckets[1:]))
    assert all(within_ratio_but_one(b) for b in buckets)


def within_ratio_but_one(lengths):
    """The longest is at most EVAL_LENGTH_RATIO times the shortest, once the
    bucket drops at most one record at its long or its short end."""
    b, r = np.sort(lengths), tr.EVAL_LENGTH_RATIO
    return b[-1] <= r * b[0] or b[-2] <= r * b[0] or b[-1] <= r * b[1]


@pytest.mark.parametrize("tag, text_mode", VARIANTS)
def test_predict_batch_stacks_each_bucket_to_its_longest_record(tag, text_mode, monkeypatch):
    n = 70
    text = text_mode != "none"
    examples = longtail_examples(n, text, np.random.default_rng(5))
    model = IntentClassifier(ModelVariant(tag, text_mode), audio_dim=5,
                             text_dim=4 if text else None, hidden=4, head_hidden=8, seed=3)
    inputs = [np.stack([getattr(e.audio, k) for e in examples]) for k in ("data", "mask")]
    if text:
        inputs += [np.stack([getattr(e.text, k) for e in examples]) for k in ("data", "mask")]
    with tr._no_tape(model):
        whole, _ = model.forward(*inputs)  # every record at the full 40 (and 8) columns

    seen = []  # per encoder run: (input width, longest valid length, rows)
    real_bre = md.bre_forward

    def spy(x, p, mask):
        seen.append((x.shape[1], mask.sum(axis=1).max(), x.shape[0]))
        return real_bre(x, p, mask)

    monkeypatch.setattr(md, "bre_forward", spy)
    probs, _ = tr.predict_batch(model, examples)
    assert np.array_equal(probs, whole.data)
    audio = seen[:: 1 + text]  # each bucket runs the audio encoder, then the text one
    assert len(seen) == len(audio) * (1 + text)
    assert sum(r for *_, r in audio) == n and all(2 <= r <= tr.EVAL_BUCKET for *_, r in audio)
    assert all(width == longest for width, longest, _ in seen)
    assert min(width for width, *_ in audio) < 40  # the short buckets are cut


def bucket_spy(monkeypatch, examples):
    """The example indices of each bucket that predict_batch runs, in run order."""
    index = {id(e): i for i, e in enumerate(examples)}
    buckets = []
    real_forward = tr._forward

    def spy(model, batch):
        buckets.append([index[id(e)] for e in batch])
        return real_forward(model, batch)

    monkeypatch.setattr(tr, "_forward", spy)
    return buckets


@pytest.mark.parametrize("n", [40, 70])
def test_records_within_the_length_ratio_keep_equal_buckets(n, monkeypatch):
    rng = np.random.default_rng(n)
    lengths = rng.integers(20, 41, n)  # all within 2x of each other
    examples = [Example(id=f"u{i}", audio=end_align(rng.normal(size=(int(v), 5)), 40),
                        text=None, label=0, speaker="alba", transcript=f"s{i}")
                for i, v in enumerate(lengths)]
    model = IntentClassifier(ModelVariant("audio_bre", "none"), audio_dim=5, hidden=4,
                             head_hidden=8, seed=2)
    buckets = bucket_spy(monkeypatch, examples)
    tr.predict_batch(model, examples)
    order = np.argsort(lengths, kind="stable")
    expected = np.array_split(order, -(-n // tr.EVAL_BUCKET))
    assert len(buckets) == len(expected) > 1
    assert all(np.array_equal(b, e) for b, e in zip(buckets, expected))


def test_length_classes_cut_the_padded_audio_row_steps(monkeypatch):
    n = 70
    examples = longtail_examples(n, False, np.random.default_rng(5))
    model = IntentClassifier(ModelVariant("audio_bre", "none"), audio_dim=5, hidden=4,
                             head_hidden=8, seed=3)
    buckets = bucket_spy(monkeypatch, examples)
    tr.predict_batch(model, examples)
    lengths = np.array([e.audio.valid_len for e in examples])

    def row_steps(buckets):  # each bucket runs all its rows over its longest record
        return sum(len(b) * lengths[b].max() for b in buckets)

    old_rule = np.array_split(np.argsort(lengths, kind="stable"), -(-n // tr.EVAL_BUCKET))
    assert lengths.sum() <= row_steps(buckets) < row_steps(old_rule)


@pytest.mark.parametrize("lengths, want", [
    # the longest is more than twice the next: it joins the next shorter class
    ([40, 2, 12, 3, 9, 2, 10], [[1, 5, 3], [4, 6, 2, 0]]),
    # the shortest is less than half the next: it joins the next longer class
    ([30, 10, 2, 32, 9, 11], [[2, 4, 1, 5], [0, 3]]),
])
def test_a_length_class_of_one_joins_its_neighbour(lengths, want, monkeypatch):
    assert [b.tolist() for b in tr._eval_buckets(lengths)] == want
    rng = np.random.default_rng(len(lengths))
    examples = [Example(id=f"u{i}", audio=end_align(rng.normal(size=(v, 5)), 40), text=None,
                        label=0, speaker="alba", transcript=f"s{i}")
                for i, v in enumerate(lengths)]
    model = IntentClassifier(ModelVariant("audio_bre_att", "none"), audio_dim=5, hidden=4,
                             head_hidden=8, seed=2)
    with tr._no_tape(model):
        whole, _ = tr._forward(model, examples)
    buckets = bucket_spy(monkeypatch, examples)
    probs, _ = tr.predict_batch(model, examples)
    assert buckets == want
    assert np.array_equal(probs, whole.data)


def test_examples_of_two_featurize_calls_evaluate_as_one(tmp_path):
    # each featurize_corpus call resolves its own t_max; a batch takes the
    # valid rows of each sequence, so the mix runs as one call's Examples
    _, records = generate_synthetic(SyntheticSpec(n_scripts=6, seed=3), str(tmp_path))
    longest = max(len(r.transcript) for r in records)
    parts = ([r for r in records if len(r.transcript) < longest],
             [r for r in records if len(r.transcript) == longest])
    cfg = FeatureConfig(n_mels=8, n_fft=256, hop=128)
    whole, _ = featurize_corpus(parts[0] + parts[1], cfg, "sparse", base_dir=str(tmp_path))
    (a, a_cfg), (b, b_cfg) = (featurize_corpus(part, cfg, "sparse", base_dir=str(tmp_path))
                              for part in parts)
    assert a_cfg.audio_t_max != b_cfg.audio_t_max and a_cfg.text_t_max != b_cfg.text_t_max
    model = IntentClassifier(ModelVariant("ca", "sparse"), audio_dim=cfg.audio_dim,
                             text_dim=whole[0].text.dim, hidden=4, head_hidden=8, seed=1)
    report = tr.format_report(tr.evaluate(model, a + b))
    assert report == tr.format_report(tr.evaluate(model, whole))
    for got, want in zip(tr.predict_batch(model, a + b), tr.predict_batch(model, whole)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("tag, text_mode", VARIANTS)
def test_single_utterance_forward_matches_a_one_record_predict_batch(tag, text_mode):
    # forward cuts a padded utterance to its valid columns, as predict_batch
    # stacks it, so the two run the same arithmetic; with weights perturbed
    # off their init, an uncut forward's attention GEMMs differ in last bits
    rng = np.random.default_rng(47)
    text = text_mode != "none"
    examples = [Example(id=f"u{i}", audio=end_align(rng.normal(size=(int(v), 33)), 60),
                        text=end_align(rng.normal(size=(int(rng.integers(1, 7)), 20)), 10)
                        if text else None,
                        label=0, speaker="alba", transcript=f"s{i}")
                for i, v in enumerate(rng.integers(2, 41, 24))]
    model = IntentClassifier(ModelVariant(tag, text_mode), audio_dim=33,
                             text_dim=20 if text else None, hidden=64, head_hidden=32, seed=4)
    model.load_state({name: w + 0.3 * rng.normal(size=w.shape)
                      for name, w in model.state().items()})
    for e in examples:
        with tr._no_tape(model):
            single, _ = model.forward(e.audio, text=e.text)
        assert np.array_equal(single.data, tr.predict_batch(model, [e])[0][0]), e.id


def test_predict_batch_restores_flags_when_forward_raises():
    model, examples = variant_and_examples("mha_a", "sparse", np.random.default_rng(22))
    audio_only = [replace(e, text=None) for e in examples]
    params = model.parameters()
    params[0].grad = marker = np.ones(params[0].shape)
    with pytest.raises(ModalityError):
        tr.predict_batch(model, audio_only)
    assert all(p.requires_grad for p in params)
    assert params[0].grad is marker
    assert all(p.grad is None for p in params[1:])


def test_log_lines_format():
    records = [tr.EpochRecord(1, 0.75, 0.2095238, None, 1.2345678),
               tr.EpochRecord(2, 1.0, 1.0, None, 0.5)]
    assert tr.log_lines(records) == [
        "epoch,acc,f1,loss",
        "1,0.750000,0.209524,1.234568",
        "2,1.000000,1.000000,0.500000",
    ]
