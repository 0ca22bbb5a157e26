"""Tests of the benchmark's reference computations and output checks.

    python3 -m pytest benchmarks/test_checks.py -q

The references in checks.py are written apart from the program; these
tests show that they agree with it where it is right and that the checks
built on them catch a wrong output.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ambispeech import features, training  # noqa: E402
from ambispeech.features import AudioSignal, FeatureConfig  # noqa: E402
from ambispeech.models import IntentClassifier, ModelVariant  # noqa: E402

CFG = FeatureConfig()


def chirp(n: int, rate: int = 16000) -> np.ndarray:
    t = np.arange(n) / rate
    return 0.4 * np.sin(2 * np.pi * (200 + 1500 * t) * t)


def test_read_pcm16_matches_read_wav(tmp_path):
    path = tmp_path / "a.wav"
    features.write_wav(path, AudioSignal(chirp(5000), 16000))
    samples, rate = checks.read_pcm16(path)
    ours = features.read_wav(path)
    assert rate == ours.sample_rate == 16000
    assert np.array_equal(samples, ours.samples)


@pytest.mark.parametrize("n", [1000, 4096, 7777])
def test_reference_front_end_matches_program(n):
    x = chirp(n)
    ref = checks.log_mel_rms(x, 16000, CFG.n_fft, CFG.hop, CFG.n_mels)
    got = features.audio_frame_matrix(AudioSignal(x, 16000), CFG)
    assert ref.shape == got.shape == (-(-n // CFG.hop), CFG.n_mels + 1)
    assert np.max(np.abs(ref - got)) <= 1e-9


def test_mel_filters_match_program_and_peak_at_one():
    ref = checks.mel_filters(16000, 512, 40)
    assert np.max(np.abs(ref - features.mel_filterbank(16000, 512, 40))) <= 1e-12
    assert np.all(ref.max(axis=1) <= 1.0)
    edges = checks.mel_edges(16000, 40)
    centres = features.mel_center_frequencies(16000, 512, 40)
    assert np.allclose(edges[1:-1], centres, rtol=0, atol=1e-9)


def test_a_sine_at_a_centre_peaks_in_its_filter():
    edges = checks.mel_edges(16000, CFG.n_mels)
    t = np.arange(8000) / 16000
    for j in (60, 90, 120):
        rows = checks.log_mel_rms(0.5 * np.sin(2 * np.pi * edges[j + 1] * t), 16000,
                                  CFG.n_fft, CFG.hop, CFG.n_mels)
        assert int(np.argmax(rows[len(rows) // 2, : CFG.n_mels])) == j


def test_feature_record_round_trip(tmp_path):
    fs = features.end_align(np.arange(12.0).reshape(4, 3) + 1.0, 6)
    features.save_feature_sequence(tmp_path / "r.ambf", fs)
    data, mask = checks.read_feature_record(tmp_path / "r.ambf")
    assert np.array_equal(data, fs.data) and np.array_equal(mask, fs.mask)
    raw = (tmp_path / "r.ambf").read_bytes()
    (tmp_path / "cut.ambf").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(ValueError):
        checks.read_feature_record(tmp_path / "cut.ambf")


def _ca_inputs(rng, t_audio=30, t_text=9, valid_audio=11, valid_text=4):
    audio = features.end_align(rng.normal(size=(valid_audio, 129)), t_audio)
    text = features.encode_sparse("가나다라"[:valid_text], t_text)
    return audio, text


def test_reference_ca_forward_matches_program():
    rng = np.random.default_rng(0)
    model = IntentClassifier(ModelVariant("ca", "sparse"), 129, 69, seed=3)
    params = {k: t.data for k, t in model.named_parameters().items()}
    for valid in (1, 11, 30):
        audio, text = _ca_inputs(rng, valid_audio=valid)
        probs, _ = model.forward(audio, text=text)
        ref = checks.ca_probs(params, audio.data, audio.mask, text.data, text.mask)
        assert np.max(np.abs(ref - probs.data)) <= 1e-9


def test_reference_ca_forward_sees_a_changed_parameter():
    rng = np.random.default_rng(1)
    model = IntentClassifier(ModelVariant("ca", "sparse"), 129, 69, seed=3)
    audio, text = _ca_inputs(rng)
    probs, _ = model.forward(audio, text=text)
    params = {k: t.data.copy() for k, t in model.named_parameters().items()}
    params["model.ca.audio_bre.bwd.Wh"][0, 0] += 1e-3
    ref = checks.ca_probs(params, audio.data, audio.mask, text.data, text.mask)
    assert np.max(np.abs(ref - probs.data)) > 1e-9


def test_lstm_freezes_on_padding():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 3))
    Wx, Wh, b = rng.normal(size=(3, 8)), rng.normal(size=(2, 8)), rng.normal(size=8)
    padded = np.vstack([np.zeros((4, 3)), x])
    mask = np.r_[np.zeros(4), np.ones(5)]
    for reverse in (False, True):
        out, h = checks.lstm(x, np.ones(5), Wx, Wh, b, reverse)
        out_p, h_p = checks.lstm(padded, mask, Wx, Wh, b, reverse)
        assert np.array_equal(out_p[4:], out) and np.array_equal(h_p, h)
        assert not out_p[:4].any()


def test_select_epoch_agrees_with_the_program():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        rows = [(e + 1, float(rng.integers(0, 5)) / 4, float(rng.integers(0, 5)) / 4, 1.0)
                for e in range(n)]
        records = [training.EpochRecord(e, acc, f1, None, loss) for e, acc, f1, loss in rows]
        assert checks.select_epoch(rows) == training.select_checkpoint(records).epoch


def test_select_epoch_falls_back_when_the_pools_are_disjoint():
    # the five best accuracies and the five best F1 scores share no epoch
    rows = [(e, 1.0 if e <= 5 else 0.0, 0.0 if e <= 5 else 1.0, 1.0) for e in range(1, 11)]
    assert checks.select_epoch(rows) == 5


def test_log_and_report_parsers_read_the_program_output():
    records = [training.EpochRecord(e, 0.5, 0.25, None, 2.0 / e) for e in (1, 2, 3)]
    rows = checks.parse_log_csv("\n".join(training.log_lines(records)) + "\n")
    assert rows == [(1, 0.5, 0.25, 2.0), (2, 0.5, 0.25, 1.0), (3, 0.5, 0.25, 0.666667)]
    truth, pred = [0, 1, 2, 2, 6], [0, 2, 2, 2, 5]
    text = training.format_report(training.report_from_predictions(truth, pred))
    values, confusion = checks.parse_report(text)
    assert values["n_records"] == "5"
    assert np.array_equal(confusion, checks.confusion_of(truth, pred))


def test_featurize_counts_parses_the_summary():
    line = "featurized 159/160 records (computed 0, reused 160)\n"
    assert workloads.featurize_counts(line) == (159, 0, 160)
    with pytest.raises(RuntimeError):
        workloads.featurize_counts("nothing here")


def test_longtail_schedule_does_not_depend_on_the_seed(tmp_path):
    lengths = []
    for seed in (1, 2):
        _, records = workloads.longtail_corpus(str(tmp_path / str(seed)), seed, 32)
        lengths.append([len(r.transcript.replace(" ", "")) for r in records])
    assert lengths[0] == lengths[1]
    assert sorted(lengths[0])[-2:] == [32, 36]


class SmallFeaturize(workloads.Featurize):
    SCRIPTS = 4
    CLI_RECORDS = 2
    SAMPLE = 3


def test_featurize_check_passes_and_catches_a_changed_record(tmp_path):
    wl = SmallFeaturize(1, workloads.ChildCLI("unused"))
    wl.setup(str(tmp_path / "w"))
    wl.bulk_pass()
    wl.check()
    assert wl.failures == []
    for name in os.listdir(wl.cache):
        path = os.path.join(wl.cache, name)
        data, mask = checks.read_feature_record(path)
        data[-1, 0] += 1e-6
        features.save_feature_sequence(path, features.FeatureSequence(data, mask))
    wl.check()
    assert any("reference log-mel" in f for f in wl.failures)
