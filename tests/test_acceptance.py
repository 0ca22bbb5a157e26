"""Acceptance gate for the whole package.

Eight numbered criteria, each a single test that prints one visible
PASS/FAIL line with its measured quantities. Criteria 2, 3, and 8 train
real models on synthetic corpora with frozen seeds; expect a few minutes
of wall time. Criterion 7 needs a real recorded corpus and is skipped
unless AMBISPEECH_CORPUS_MANIFEST points at one.
"""

import math
import os
import time

import numpy as np
import pytest
from gradcases import op_check_cases

from ambispeech import autodiff as ad
from ambispeech import corpus as cp
from ambispeech import features as ft
from ambispeech import hangul
from ambispeech import models as md
from ambispeech import synth as sy
from ambispeech import training as tr

pytestmark = pytest.mark.filterwarnings("error")

TEXT_VARIANTS = tuple(t for t in md.VARIANT_TAGS if t not in md.AUDIO_ONLY_TAGS)

# frozen protocols: any change invalidates the recorded pass margins
OVERFIT_SPEC = sy.SyntheticSpec(n_scripts=16, variants_per_script=2, seed=0,
                                script_types=("ynwh", "rqrc"))
OVERFIT_TRAIN = tr.TrainConfig(max_epochs=60, batch_size=8, seed=0)

SEPARATION_SPEC = sy.SyntheticSpec(
    n_scripts=350, variants_per_script=2, seed=22,
    script_types=("ynwh", "rqrc") + ("decl",) * 9 + ("cmd",) * 9)
SEPARATION_TRAIN = tr.TrainConfig(max_epochs=100, batch_size=64, seed=22,
                                  split_ratio=0.8)
SEPARATION_VARIANTS = ("audio_bre", "para_bre_att", "mha_a", "mha_at", "ca")

FCFG = ft.FeatureConfig(n_mels=32, n_fft=512, hop=256)
HIDDEN, HEAD_HIDDEN = 24, 64


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def strip_text(examples):
    return [cp.Example(e.id, e.audio, None, e.label, e.speaker, e.transcript)
            for e in examples]


def build_model(tag, examples, seed):
    tm = "none" if tag in md.AUDIO_ONLY_TAGS else "sparse"
    return md.IntentClassifier(
        md.ModelVariant.parse(tag, tm),
        audio_dim=examples[0].audio.dim,
        text_dim=examples[0].text.dim if tm != "none" else None,
        hidden=HIDDEN, head_hidden=HEAD_HIDDEN, seed=seed)


def synthesize(spec, tmp_path_factory, name):
    root = tmp_path_factory.mktemp(name)
    _, records = sy.generate_synthetic(spec, str(root))
    examples, _ = cp.featurize_corpus(records, FCFG, "sparse", base_dir=str(root))
    return examples


def run_overfit_protocol(examples):
    """Train every variant on all 32 records and score the same records."""
    logs = {}
    for tag in md.VARIANT_TAGS:
        ex = examples if tag not in md.AUDIO_ONLY_TAGS else strip_text(examples)
        model = build_model(tag, ex, seed=OVERFIT_TRAIN.seed)
        records = tr.train(model, ex, ex, OVERFIT_TRAIN)
        logs[tag] = tr.log_lines(records)
    return logs


def run_separation_protocol(examples):
    """Speaker-stratified 80/20 split, five variants, full 100 epochs."""
    train_set, test_set = tr.split_records(examples, SEPARATION_TRAIN.split_ratio,
                                           SEPARATION_TRAIN.seed)
    finals, logs = {}, {}
    for tag in SEPARATION_VARIANTS:
        if tag in md.AUDIO_ONLY_TAGS:
            ex_tr, ex_te = strip_text(train_set), strip_text(test_set)
        else:
            ex_tr, ex_te = train_set, test_set
        model = build_model(tag, ex_tr, seed=SEPARATION_TRAIN.seed)
        records = tr.train(model, ex_tr, ex_te, SEPARATION_TRAIN)
        finals[tag] = records[-1].accuracy
        logs[tag] = tr.log_lines(records)
    return finals, logs


@pytest.fixture(scope="session")
def overfit_examples(tmp_path_factory):
    return synthesize(OVERFIT_SPEC, tmp_path_factory, "overfit")


@pytest.fixture(scope="session")
def separation_examples(tmp_path_factory):
    return synthesize(SEPARATION_SPEC, tmp_path_factory, "separation")


@pytest.fixture(scope="session")
def overfit_run(overfit_examples):
    t0 = time.perf_counter()
    logs = run_overfit_protocol(overfit_examples)
    return logs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def separation_run(separation_examples):
    t0 = time.perf_counter()
    finals, logs = run_separation_protocol(separation_examples)
    return finals, logs, time.perf_counter() - t0


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_integrity(capsys):
    t0 = time.perf_counter()
    worst_op = 0.0
    for name, (fn, inputs) in op_check_cases(np.random.default_rng(41)).items():
        worst_op = max(worst_op, ad.gradient_check(fn, inputs))

    rng = np.random.default_rng(42)
    audio = ft.end_align(rng.normal(size=(4, 9)), 6)
    text = ft.end_align(rng.normal(size=(3, 8)), 4)
    worst_model = 0.0
    for tag in md.VARIANT_TAGS:
        tm = "none" if tag in md.AUDIO_ONLY_TAGS else "sparse"
        model = md.IntentClassifier(md.ModelVariant.parse(tag, tm), audio_dim=9,
                                    text_dim=8 if tm != "none" else None,
                                    hidden=5, head_hidden=8, seed=1)

        def loss(*params):
            probs, _ = model.forward(audio, text=None if tm == "none" else text)
            return tr.cross_entropy(probs, 3)

        worst_model = max(worst_model, ad.gradient_check(loss, model.parameters()))

    elapsed = time.perf_counter() - t0
    ok = worst_op < 1e-4 and worst_model < 1e-4 and elapsed < 60.0
    announce(capsys, 1, "gradient integrity", ok,
             f"op err {worst_op:.2e}, variant err {worst_model:.2e}, {elapsed:.1f}s")
    assert worst_op < 1e-4
    assert worst_model < 1e-4
    assert elapsed < 60.0


# --------------------------------------------------------------- criterion 2


def test_criterion_2_overfit_oracle(overfit_run, capsys):
    logs, elapsed = overfit_run
    best = {}
    for tag, lines in logs.items():
        accs = [float(line.split(",")[1]) for line in lines[1:]]
        best[tag] = max(accs)
    ok = all(b >= 0.95 for b in best.values()) and elapsed < 300.0
    worst_tag = min(best, key=best.get)
    announce(capsys, 2, "overfit oracle", ok,
             f"six variants on 32 records, min best-train-acc {best[worst_tag]:.4f} "
             f"({worst_tag}), {elapsed:.0f}s")
    for tag, b in best.items():
        assert b >= 0.95, (tag, b)
    assert elapsed < 300.0


# --------------------------------------------------------------- criterion 3


def test_criterion_3_disambiguation_separation(separation_run, capsys):
    finals, _, elapsed = separation_run
    a = finals["audio_bre"] <= 0.80
    b = all(finals[t] >= 0.95 for t in ("para_bre_att", "mha_a", "mha_at", "ca"))
    c = finals["mha_a"] >= finals["para_bre_att"] - 0.01
    ok = a and b and c and elapsed < 1200.0
    announce(capsys, 3, "disambiguation separation", ok,
             f"audio-only {finals['audio_bre']:.4f} <= 0.80; multimodal min "
             f"{min(finals[t] for t in TEXT_VARIANTS if t in finals):.4f} >= 0.95; "
             f"mha_a {finals['mha_a']:.4f} vs para {finals['para_bre_att']:.4f}; "
             f"{elapsed:.0f}s")
    assert a, finals
    assert b, finals
    assert c, finals
    assert elapsed < 1200.0


# --------------------------------------------------------------- criterion 4


def test_criterion_4_checkpoint_selection_rule(capsys):
    accs = [0.80, 0.90, 0.85, 0.92, 0.91, 0.89, 0.88]
    f1s = [0.70, 0.60, 0.72, 0.71, 0.73, 0.69, 0.68]
    records = [tr.EpochRecord(i + 1, a, f, None, 0.0)
               for i, (a, f) in enumerate(zip(accs, f1s))]
    hand_ok = tr.select_checkpoint(records).epoch == 4

    warps = [lambda x: 2.0 * x + 3.0, lambda x: math.exp(x), lambda x: x**3,
             lambda x: 1.0 / (1.0 + math.exp(-x))]
    rng = np.random.default_rng(43)
    invariant = True
    for _ in range(100):
        n = int(rng.integers(6, 30))
        seq = [tr.EpochRecord(i + 1, float(a), float(f), None, 0.0)
               for i, (a, f) in enumerate(zip(rng.permutation(n) / n,
                                              rng.permutation(n) / n))]
        baseline = tr.select_checkpoint(seq).epoch
        g, h = warps[int(rng.integers(4))], warps[int(rng.integers(4))]
        warped = [tr.EpochRecord(r.epoch, g(r.accuracy), h(r.macro_f1), None, 0.0)
                  for r in seq]
        if tr.select_checkpoint(warped).epoch != baseline:
            invariant = False
    ok = hand_ok and invariant
    announce(capsys, 4, "checkpoint selection rule", ok,
             f"hand example epoch 4: {hand_ok}; 100 monotone rescalings stable: {invariant}")
    assert hand_ok
    assert invariant


# --------------------------------------------------------------- criterion 5


def test_criterion_5_feature_oracles(capsys):
    t0 = time.perf_counter()

    tt = np.arange(16000) / 16000.0
    sig = ft.AudioSignal(np.sin(2.0 * np.pi * 125.0 * tt), 16000)
    r = ft.rmse_frames(sig, 1024, 256)
    full = (len(sig) - 1024) // 256 + 1
    rmse_err = float(np.max(np.abs(r[:full] - 0.70711)))

    centers = ft.mel_center_frequencies(16000, 1024, 40)
    mel_ok = True
    for k in (5, 10, 17, 25, 33):
        sine = ft.AudioSignal(np.sin(2.0 * np.pi * centers[k] * tt[:8000]), 16000)
        m = ft.mel_spectrogram(sine, 1024, 256, 40)
        mel_ok = mel_ok and bool(np.all(np.argmax(m[4:-4], axis=1) == k))

    hangul_ok = all(
        hangul.compose(*hangul.decompose(chr(c))[:3]) == chr(c)
        for c in range(0xAC00, 0xD7A4))

    rng = np.random.default_rng(44)
    align_ok = True
    for _ in range(1000):
        n, t_max = int(rng.integers(1, 50)), int(rng.integers(1, 50))
        rows = rng.normal(size=(n, 3))
        fs = ft.end_align(rows, t_max)
        kept = min(n, t_max)
        align_ok = align_ok and fs.data.shape == (t_max, 3)
        align_ok = align_ok and np.array_equal(fs.mask,
                                               np.r_[np.zeros(t_max - kept), np.ones(kept)])
        align_ok = align_ok and np.array_equal(fs.data[t_max - kept:], rows[n - kept:])
        align_ok = align_ok and not np.any(fs.data[: t_max - kept])

    elapsed = time.perf_counter() - t0
    ok = rmse_err < 1e-3 and mel_ok and hangul_ok and align_ok and elapsed < 60.0
    announce(capsys, 5, "feature oracles", ok,
             f"sine rmse err {rmse_err:.1e}; mel argmax {mel_ok}; "
             f"11172 syllables round-trip {hangul_ok}; 1000 alignments {align_ok}; "
             f"{elapsed:.1f}s")
    assert rmse_err < 1e-3
    assert mel_ok
    assert hangul_ok
    assert align_ok
    assert elapsed < 60.0


# --------------------------------------------------------------- criterion 6


def test_criterion_6_padding_invariance(capsys):
    rng = np.random.default_rng(45)
    failures = []
    for tag in md.VARIANT_TAGS:
        tm = "none" if tag in md.AUDIO_ONLY_TAGS else "sparse"
        model = md.IntentClassifier(md.ModelVariant.parse(tag, tm), audio_dim=9,
                                    text_dim=8 if tm != "none" else None,
                                    hidden=6, head_hidden=12, seed=2)
        for trial in range(10):
            audio = ft.end_align(rng.normal(size=(int(rng.integers(2, 6)), 9)), 8)
            kwargs = {}
            if tm != "none":
                text = ft.end_align(rng.normal(size=(int(rng.integers(1, 4)), 8)), 5)
                kwargs = {"text": text.data, "text_mask": text.mask}
            _, aux1 = model.forward(audio.data, audio_mask=audio.mask, **kwargs)

            pad = 8 - audio.valid_len
            a2 = audio.data.copy()
            a2[:pad] = rng.normal(size=(pad, 9)) * 50.0
            if kwargs:
                tpad = 5 - text.valid_len
                t2 = text.data.copy()
                t2[:tpad] = rng.normal(size=(tpad, 8)) * 50.0
                kwargs = {"text": t2, "text_mask": text.mask}
            _, aux2 = model.forward(a2, audio_mask=audio.mask, **kwargs)
            if not np.array_equal(aux1["logits"], aux2["logits"]):
                failures.append((tag, trial))
    ok = not failures
    announce(capsys, 6, "padding invariance", ok,
             f"10 trials x 6 variants bit-identical logits; failures: {failures or 'none'}")
    assert not failures


# --------------------------------------------------------------- criterion 7


TABLE_TARGETS = {  # sparse-feature test accuracy, percent
    "audio_bre": 83.9,
    "audio_bre_att": 89.3,
    "para_bre_att": 93.2,
    "mha_a": 93.8,
}


def test_criterion_7_recorded_corpus_reproduction(capsys):
    manifest = os.environ.get("AMBISPEECH_CORPUS_MANIFEST")
    if not manifest:
        with capsys.disabled():
            print("\n[criterion 7] recorded-corpus reproduction: SKIP "
                  "(set AMBISPEECH_CORPUS_MANIFEST to a real corpus manifest)")
        pytest.skip("no recorded corpus manifest configured")
    records = cp.load_manifest(manifest)
    base_dir = os.path.dirname(os.path.abspath(manifest))
    examples, _ = cp.featurize_corpus(records, ft.FeatureConfig(), "sparse",
                                      base_dir=base_dir)
    tcfg = tr.TrainConfig()
    train_set, test_set = tr.split_records(examples, tcfg.split_ratio, tcfg.seed)
    scores = {}
    for tag in TABLE_TARGETS:
        if tag in md.AUDIO_ONLY_TAGS:
            ex_tr, ex_te = strip_text(train_set), strip_text(test_set)
        else:
            ex_tr, ex_te = train_set, test_set
        model = md.IntentClassifier(
            md.ModelVariant.parse(tag, "none" if tag in md.AUDIO_ONLY_TAGS else "sparse"),
            audio_dim=ex_tr[0].audio.dim,
            text_dim=ex_tr[0].text.dim if ex_tr[0].text is not None else None,
            seed=tcfg.seed)
        epoch_records = tr.train(model, ex_tr, ex_te, tcfg)
        scores[tag] = 100.0 * tr.select_checkpoint(epoch_records).accuracy
    ordering = (scores["audio_bre"] < scores["audio_bre_att"]
                < min(scores["para_bre_att"], scores["mha_a"]))
    within = {tag: abs(scores[tag] - target) <= 3.0
              for tag, target in TABLE_TARGETS.items()}
    ok = ordering and all(within.values())
    announce(capsys, 7, "recorded-corpus reproduction", ok,
             f"scores {scores}; ordering {ordering}; within 3 points {within}")
    assert ordering, scores
    assert all(within.values()), scores


# --------------------------------------------------------------- criterion 8


def test_criterion_8_determinism(overfit_run, separation_run,
                                 overfit_examples, separation_examples, capsys):
    logs2_first, _ = overfit_run
    logs2_again = run_overfit_protocol(overfit_examples)
    overfit_same = logs2_again == logs2_first

    _, logs3_first, _ = separation_run
    _, logs3_again = run_separation_protocol(separation_examples)
    separation_same = logs3_again == logs3_first

    ok = overfit_same and separation_same
    announce(capsys, 8, "determinism", ok,
             f"rerun metric logs identical: overfit {overfit_same}, "
             f"separation {separation_same}")
    assert overfit_same
    assert separation_same
