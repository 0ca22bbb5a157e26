import ast
import hashlib
import os
import struct
import wave
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ambispeech import features as ft
from ambispeech.config import read_section
from ambispeech.errors import (ConfigError, DataError, EmptyInputError,
                               ShapeError)


def sine(freq, seconds=1.0, rate=16000, amp=1.0):
    t = np.arange(int(seconds * rate)) / rate
    return ft.AudioSignal(amp * np.sin(2 * np.pi * freq * t), rate)


# ------------------------------------------------------------------ framing


def test_rmse_of_silence_is_zero():
    sig = ft.AudioSignal(np.zeros(4096), 16000)
    np.testing.assert_array_equal(ft.rmse_frames(sig, 1024, 256), 0.0)


def test_rmse_of_constant_is_its_magnitude():
    sig = ft.AudioSignal(np.full(4096, 0.5), 16000)
    r = ft.rmse_frames(sig, 1024, 256)
    # tail frames see zero padding, so check the full frames only
    full = (4096 - 1024) // 256 + 1
    np.testing.assert_allclose(r[:full], 0.5, atol=1e-12)


def test_rmse_of_unit_sine_is_inv_sqrt2():
    # 1024 samples at 16 kHz span whole periods of any multiple of 15.625 Hz
    sig = sine(125.0)
    r = ft.rmse_frames(sig, 1024, 256)
    full = (len(sig) - 1024) // 256 + 1
    np.testing.assert_allclose(r[:full], 0.70711, atol=1e-3)


def test_frame_count_is_ceil_len_over_hop():
    for n in (1, 255, 256, 257, 1000, 4096):
        sig = ft.AudioSignal(np.ones(n), 16000)
        assert ft.rmse_frames(sig, 1024, 256).shape[0] == -(-n // 256)


def test_frames_are_a_read_only_view_equal_to_the_gather():
    n_fft, hop = 1024, 256
    rng = np.random.default_rng(31)
    for n in (1, hop - 1, hop, n_fft, n_fft + 1, int(rng.integers(2, 20000))):
        x = rng.normal(size=n)
        frames = ft._frames(ft.AudioSignal(x, 16000), n_fft, hop)
        n_frames = -(-n // hop)
        padded = np.zeros((n_frames - 1) * hop + n_fft)
        padded[:n] = x
        gather = padded[np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]]
        np.testing.assert_array_equal(frames, gather)
        assert frames.shape == (n_frames, n_fft)
        assert not frames.flags.writeable


def test_hann_window_is_built_once_and_read_only():
    window = ft._hann(1024)
    assert ft._hann(1024) is window
    assert not window.flags.writeable
    np.testing.assert_array_equal(window, 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(1024) / 1024))


def test_rmse_scales_linearly():
    rng = np.random.default_rng(5)
    x = rng.normal(size=3000)
    r1 = ft.rmse_frames(ft.AudioSignal(x, 16000), 1024, 256)
    r3 = ft.rmse_frames(ft.AudioSignal(3.0 * x, 16000), 1024, 256)
    np.testing.assert_allclose(r3, 3.0 * r1, rtol=1e-12)


def test_empty_signal_rejected():
    sig = ft.AudioSignal(np.zeros(0), 16000)
    with pytest.raises(EmptyInputError):
        ft.rmse_frames(sig, 1024, 256)
    with pytest.raises(EmptyInputError):
        ft.stft_power(sig, 1024, 256)


# ---------------------------------------------------------------------- mel


def test_mel_formula_anchor_points():
    assert ft.hz_to_mel(0.0) == 0.0
    assert ft.hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))
    np.testing.assert_allclose(ft.mel_to_hz(ft.hz_to_mel([100.0, 1000.0, 7999.0])),
                               [100.0, 1000.0, 7999.0], rtol=1e-10)


def test_filterbank_shape_and_peaks():
    fb = ft.mel_filterbank(16000, 1024, 40)
    assert fb.shape == (40, 513)
    assert np.all(fb >= 0.0)
    # unnormalized triangles peak near 1 (exactly 1 when a bin hits the center)
    assert fb.max() <= 1.0 + 1e-12
    assert np.all(fb.max(axis=1) > 0.5)


def test_filterbank_is_built_once_and_read_only():
    cached = ft._cached_filterbank(16000, 1024, 40)
    assert ft._cached_filterbank(16000, 1024, 40) is cached
    assert not cached.flags.writeable
    fresh = ft.mel_filterbank(16000, 1024, 40)
    assert fresh.flags.writeable and fresh is not cached
    np.testing.assert_array_equal(fresh, cached)
    fresh[:] = 0.0
    np.testing.assert_array_equal(ft.mel_filterbank(16000, 1024, 40), cached)


def test_frame_matrix_matches_the_uncached_formula():
    cfg = ft.FeatureConfig(n_mels=40, n_fft=1024, hop=256)
    rng = np.random.default_rng(12)
    sig = ft.AudioSignal(rng.normal(size=8000) * 0.1, 16000)
    mel = ft.stft_power(sig, 1024, 256) @ ft.mel_filterbank(16000, 1024, 40).T
    expected = np.hstack([np.log1p(mel), ft.rmse_frames(sig, 1024, 256)[:, None]])
    for _ in range(2):
        np.testing.assert_array_equal(ft.audio_frame_matrix(sig, cfg), expected)


def test_mel_of_silence_is_zero():
    sig = ft.AudioSignal(np.zeros(4096), 16000)
    np.testing.assert_array_equal(ft.mel_spectrogram(sig, 1024, 256, 40), 0.0)


def test_mel_nonnegative_on_noise():
    rng = np.random.default_rng(9)
    sig = ft.AudioSignal(rng.normal(size=8000) * 0.1, 16000)
    m = ft.mel_spectrogram(sig, 1024, 256, 40)
    assert np.all(m >= 0.0)
    interior = m[2:-2]
    assert np.all(interior > 0.0)


@pytest.mark.parametrize("k", [5, 10, 17, 25, 33])
def test_sine_at_bin_center_wins_that_bin(k):
    centers = ft.mel_center_frequencies(16000, 1024, 40)
    sig = sine(centers[k], seconds=0.5)
    m = ft.mel_spectrogram(sig, 1024, 256, 40)
    interior = m[4:-4]
    assert np.all(np.argmax(interior, axis=1) == k)


def test_scaling_never_decreases_mel_bins():
    rng = np.random.default_rng(2)
    sig = rng.normal(size=5000) * 0.05
    m1 = ft.mel_spectrogram(ft.AudioSignal(sig, 16000), 1024, 256, 32)
    m2 = ft.mel_spectrogram(ft.AudioSignal(2.0 * sig, 16000), 1024, 256, 32)
    assert np.all(m2 >= m1 - 1e-15)


def test_mel_config_validation():
    sig = sine(440.0, seconds=0.1)
    with pytest.raises(ConfigError):
        ft.mel_spectrogram(sig, 1000, 256, 32)  # not a power of two
    with pytest.raises(ConfigError):
        ft.mel_spectrogram(sig, 1024, 256, 0)


def test_short_signal_is_padded_not_rejected():
    sig = ft.AudioSignal(np.ones(100), 16000)
    m = ft.mel_spectrogram(sig, 1024, 256, 32)
    assert m.shape[0] == 1


# ------------------------------------------------------------ FeatureSequence


def test_end_align_places_rows_at_the_end():
    rows = np.arange(6.0).reshape(3, 2)
    fs = ft.end_align(rows, 5)
    np.testing.assert_array_equal(fs.mask, [0, 0, 1, 1, 1])
    np.testing.assert_array_equal(fs.data[:2], 0.0)
    np.testing.assert_array_equal(fs.data[2:], rows)
    np.testing.assert_array_equal(fs.valid_rows(), rows)


def test_end_align_keeps_last_rows_on_overflow():
    rows = np.arange(14.0).reshape(7, 2)
    fs = ft.end_align(rows, 5)
    np.testing.assert_array_equal(fs.data, rows[2:])
    assert fs.valid_len == 5


@pytest.mark.parametrize("trial", range(20))
def test_end_align_invariant_random_lengths(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(1, 60))
    t_max = int(rng.integers(1, 60))
    fs = ft.end_align(rng.normal(size=(n, 4)), t_max)
    v = fs.valid_len
    assert v == min(n, t_max)
    assert np.all(fs.mask[: fs.t_max - v] == 0.0)
    assert np.all(fs.mask[fs.t_max - v :] == 1.0)
    np.testing.assert_array_equal(fs.data[: fs.t_max - v], 0.0)


def test_feature_sequence_rejects_violations():
    with pytest.raises(ShapeError):
        ft.FeatureSequence(np.ones((3, 2)), np.array([1.0, 0.0, 1.0]))  # gap
    with pytest.raises(ShapeError):
        ft.FeatureSequence(np.ones((3, 2)), np.array([0.0, 1.0, 1.0]))  # pad row nonzero
    with pytest.raises(ShapeError):
        ft.FeatureSequence(np.zeros((3, 2)), np.array([0.5, 1.0, 1.0]))
    with pytest.raises(EmptyInputError):
        ft.FeatureSequence(np.zeros((3, 2)), np.zeros(3))


@pytest.mark.parametrize("make, error, message", [
    (lambda: ft.AudioSignal(np.zeros((2, 3)), 16000), ShapeError,
     "samples must be 1-D, got shape (2, 3)"),
    (lambda: ft.AudioSignal(np.zeros(3), 0), ConfigError, "sample_rate must be positive, got 0"),
    (lambda: ft.FeatureSequence(np.zeros((3, 2)), np.ones(4)), ShapeError,
     "data (3, 2) and mask (4,) do not line up"),
    (lambda: ft.end_align(np.zeros(3)), ShapeError, "rows must be 2-D, got shape (3,)"),
    (lambda: ft.end_align(np.zeros((0, 3))), EmptyInputError,
     "cannot align an empty row sequence"),
    (lambda: ft.end_align(np.zeros((2, 3)), 0), ConfigError, "t_max must be >= 1, got 0"),
    (lambda: ft.rmse_frames(ft.AudioSignal(np.zeros(3), 16000), 0, 256), ConfigError,
     "frame_length and hop must be >= 1, got 0, 256"),
])
def test_bad_signals_and_sequences_raise_one_line(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_audio_features_shape_and_alignment():
    cfg = ft.FeatureConfig(n_mels=32, n_fft=512, hop=256, audio_t_max=40)
    fs = ft.audio_features(sine(440.0, seconds=0.3), cfg)
    assert fs.t_max == 40
    assert fs.dim == 33
    assert fs.valid_len == -(-int(0.3 * 16000) // 256)


def test_audio_features_rate_mismatch_rejected():
    cfg = ft.FeatureConfig(n_mels=32, n_fft=512, hop=256)
    with pytest.raises(ConfigError):
        ft.audio_features(sine(440.0, rate=8000), cfg)


def test_log_mel_flag_changes_scale_not_sign():
    raw_cfg = ft.FeatureConfig(n_mels=32, n_fft=512, hop=256, log_mel=False)
    log_cfg = ft.FeatureConfig(n_mels=32, n_fft=512, hop=256, log_mel=True)
    sig = sine(500.0, seconds=0.2, amp=0.5)
    raw = ft.audio_frame_matrix(sig, raw_cfg)
    logd = ft.audio_frame_matrix(sig, log_cfg)
    np.testing.assert_allclose(logd[:, :-1], np.log1p(raw[:, :-1]))
    np.testing.assert_array_equal(logd[:, -1], raw[:, -1])  # energy column untouched


def feature_section(section):
    """A FeatureConfig built the way a config file's or a sidecar's features section is."""
    return ft.FeatureConfig(**read_section("feature", section, ft.FeatureConfig))


def test_feature_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=r"unknown feature config keys: \['window'\]"):
        feature_section({"n_mels": 32, "window": "hann"})
    with pytest.raises(ConfigError, match="feature config must be a JSON object"):
        feature_section([32])


@pytest.mark.parametrize("fields", [
    {"hop": "abc"}, {"hop": 256.0}, {"n_fft": 1024.0}, {"n_mels": True}, {"sample_rate": None},
    {"audio_t_max": 1.5}, {"text_t_max": "7"}, {"text_t_max": False}, {"log_mel": 1},
    {"log_mel": None},
], ids=lambda fields: "-".join(f"{k}={v!r}" for k, v in fields.items()))
def test_feature_config_rejects_wrong_types(fields):
    with pytest.raises(ConfigError):
        feature_section(fields)


@pytest.mark.parametrize("fields, says", [
    ({"audio_t_max": 0}, "audio_t_max must be >= 1 or null, got 0"),
    ({"text_t_max": -3}, "text_t_max must be >= 1 or null, got -3"),
    ({"n_fft": 1000}, "n_fft must be a power of two >= 2, got 1000"),
    ({"hop": 0}, "hop must be positive, got 0"),
], ids=["audio_t_max-zero", "text_t_max-negative", "n_fft-not-a-power-of-two", "hop-zero"])
def test_feature_config_rejects_out_of_range(fields, says):
    with pytest.raises(ConfigError) as info:
        feature_section(fields)
    assert str(info.value) == says


def test_resolve_t_max_fills_only_none():
    cfg = ft.FeatureConfig(audio_t_max=10)
    out = ft.resolve_t_max(cfg, audio_t=99, text_t=7)
    assert out.audio_t_max == 10
    assert out.text_t_max == 7


# --------------------------------------------------------------------- text


def test_encode_sparse_rows_match_char_rows():
    fs = ft.encode_sparse("간 가", t_max=6)
    assert fs.dim == 69
    assert fs.valid_len == 3
    hot = [set(np.nonzero(r)[0]) for r in fs.valid_rows()]
    assert hot == [{0, 19, 43}, {67}, {0, 19}]


def test_encode_sparse_trims_and_rejects_empty():
    assert ft.encode_sparse("  가  ").valid_len == 1
    with pytest.raises(EmptyInputError):
        ft.encode_sparse("   ")


def test_encode_dense_lookup_and_oov():
    table = ft.EmbeddingTable({"가": np.array([1.0, 2.0]), "나": np.array([3.0, 4.0])}, 2)
    fs = ft.encode_dense("가나다", table, t_max=5)
    np.testing.assert_array_equal(fs.valid_rows(),
                                  [[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])


# --------------------------------------------------------------------- wavio


def test_wav_round_trip(tmp_path):
    sig = sine(440.0, seconds=0.05, amp=0.6)
    path = tmp_path / "t.wav"
    ft.write_wav(path, sig)
    back = ft.read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_allclose(back.samples, sig.samples, atol=1.0 / 32767)


def riff(data: bytes, fmt_tag=1, channels=1, bits=16, rate=16000) -> bytes:
    """A RIFF/WAVE file with a 16-byte fmt chunk and one data chunk."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block, block, bits)
    return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)


def test_read_wav_rejects_non_wav(tmp_path):
    good = tmp_path / "good.wav"
    ft.write_wav(good, sine(440.0, seconds=0.05, amp=0.6))
    full = good.read_bytes()
    inputs = {
        "noise": b"not a riff file",
        "pcm8": riff(bytes(range(100)), bits=8),
        "float32": riff(np.zeros(50, dtype="<f4").tobytes(), fmt_tag=3, bits=32),
        "half_data": full[: len(full) // 2],
        "header_only": full[:30],
        "no_samples": riff(b""),
    }
    for name, raw in inputs.items():
        path = tmp_path / f"{name}.wav"
        path.write_bytes(raw)
        with pytest.raises(DataError):
            ft.read_wav(path)


def test_read_wav_averages_stereo(tmp_path):
    left = np.array([1000, -2000, 32767, -32768, 3], dtype="<i2")
    right = np.array([3000, 2000, 32767, -32768, 0], dtype="<i2")
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(np.stack([left, right], axis=1).tobytes())
    sig = ft.read_wav(path)
    assert sig.sample_rate == 8000
    expected = (left.astype(np.float64) + right.astype(np.float64)) / 2.0 / 32768.0
    np.testing.assert_array_equal(sig.samples, expected)


# --------------------------------------------------------------------- cache


def test_feature_cache_round_trip(tmp_path):
    fs = ft.end_align(np.random.default_rng(0).normal(size=(5, 7)), 9)
    path = tmp_path / "r.ambf"
    ft.save_feature_sequence(path, fs)
    back = ft.load_feature_sequence(path)
    np.testing.assert_array_equal(back.data, fs.data)
    np.testing.assert_array_equal(back.mask, fs.mask)


def test_frame_matrix_cache_hit_is_bit_identical(tmp_path):
    wav = tmp_path / "a.wav"
    ft.write_wav(wav, sine(440.0, seconds=0.05, amp=0.6))
    cfg = ft.FeatureConfig(n_mels=8, n_fft=256, hop=128)
    fresh, reused = ft.frame_matrix(wav, cfg)
    assert not reused
    for expect_reused in (False, True):
        mat, reused = ft.frame_matrix(wav, cfg, tmp_path)
        assert reused is expect_reused
        np.testing.assert_array_equal(mat, fresh)


def test_frame_matrix_reads_a_wav_once_per_cache_miss(tmp_path, monkeypatch):
    wav = tmp_path / "a.wav"
    ft.write_wav(wav, sine(440.0, seconds=0.05, amp=0.6))
    cfg = ft.FeatureConfig(n_mels=8, n_fft=256, hop=128)
    fresh, _ = ft.frame_matrix(wav, cfg)
    read = []
    real = ft.checkpoint.read_bytes

    def spy(path, *args):
        read.append(os.path.basename(path))
        return real(path, *args)

    monkeypatch.setattr(ft.checkpoint, "read_bytes", spy)
    mat, reused = ft.frame_matrix(wav, cfg, tmp_path)
    assert (read, reused) == (["a.wav"], False)
    np.testing.assert_array_equal(mat, fresh)
    os.remove(next(tmp_path.glob("*.ambf")))
    read.clear()
    ft.frame_matrix(wav, cfg, tmp_path)
    assert read == ["a.wav"]


def test_frame_cache_entry_names(tmp_path, monkeypatch):
    """sha256 over a tag of the fields the frames depend on, then the WAV's bytes."""
    wav = tmp_path / "a.wav"
    ft.write_wav(wav, sine(440.0, seconds=0.05, amp=0.6))
    cache = tmp_path / "cache"
    cache.mkdir()
    # a stub, so that a sample rate the WAV does not have still gets an entry
    monkeypatch.setattr(ft, "audio_frame_matrix", lambda signal, cfg: np.ones((3, cfg.audio_dim)))
    cfg = ft.FeatureConfig(n_mels=8, n_fft=256, hop=128)
    assert ft.frame_matrix(wav, cfg, cache)[1] is False
    tag = b"ambf1|16000|256|128|8|True|"
    assert os.listdir(cache) == [hashlib.sha256(tag + wav.read_bytes()).hexdigest() + ".ambf"]
    for field, value in [("sample_rate", 8000), ("n_fft", 512), ("hop", 64), ("n_mels", 9),
                         ("log_mel", False), ("audio_t_max", 5), ("text_t_max", 5)]:
        before = set(os.listdir(cache))
        reused = ft.frame_matrix(wav, replace(cfg, **{field: value}), cache)[1]
        added = set(os.listdir(cache)) - before
        assert (reused, len(added)) == ((True, 0) if field.endswith("t_max") else (False, 1)), field


def test_feature_cache_rejects_corruption(tmp_path):
    fs = ft.end_align(np.ones((2, 3)), 4)
    path = tmp_path / "r.ambf"
    ft.save_feature_sequence(path, fs)
    raw = path.read_bytes()
    (tmp_path / "bad1.ambf").write_bytes(b"XXXXX" + raw[5:])
    (tmp_path / "bad2.ambf").write_bytes(raw[:-3])
    bad_mask = bytearray(raw)
    bad_mask[-1] = 7  # a mask byte that is neither 0 nor 1
    (tmp_path / "bad3.ambf").write_bytes(bytes(bad_mask))
    for name, bad in (("bad4.ambf", np.nan), ("bad5.ambf", -np.inf)):
        data = np.ones((2, 3))
        data[1, 2] = bad
        ft.save_feature_sequence(tmp_path / name, ft.end_align(data, 4))
    with pytest.raises(DataError, match="magic"):
        ft.load_feature_sequence(tmp_path / "bad1.ambf")
    with pytest.raises(DataError):
        ft.load_feature_sequence(tmp_path / "bad2.ambf")
    with pytest.raises(DataError):
        ft.load_feature_sequence(tmp_path / "bad3.ambf")
    for name in ("bad4.ambf", "bad5.ambf"):
        with pytest.raises(DataError, match="non-finite"):
            ft.load_feature_sequence(tmp_path / name)


@pytest.mark.parametrize("log_mel", [True, False])
def test_full_scale_frames_stay_within_the_frame_bound(log_mel):
    # a full-scale square wave at the centre of a mel filter, and full-scale noise
    rate, n_fft = 16000, 256
    t = np.arange(4096)
    centre = ft.mel_center_frequencies(rate, n_fft, 8)[3]
    for samples in (np.sign(np.sin(2 * np.pi * centre * t / rate)) + 0.0,
                    np.random.default_rng(0).choice([-1.0, 1.0], 4096)):
        cfg = ft.FeatureConfig(n_mels=8, n_fft=n_fft, hop=128, log_mel=log_mel)
        mat = ft.audio_frame_matrix(ft.AudioSignal(samples, rate), cfg)
        assert 0.0 <= mat.min() and mat.max() <= ft._frame_bound(cfg)


@pytest.mark.parametrize("value", [1e200, -1.0])
def test_a_cache_entry_no_wav_could_make_is_recomputed(tmp_path, value):
    wav = tmp_path / "a.wav"
    ft.write_wav(wav, sine(440.0, seconds=0.05, amp=0.6))
    cfg = ft.FeatureConfig(n_mels=8, n_fft=256, hop=128)
    fresh, _ = ft.frame_matrix(wav, cfg, tmp_path)
    (entry,) = tmp_path.glob("*.ambf")
    raw = entry.read_bytes()
    poisoned = bytearray(raw)
    poisoned[len(ft._CACHE_MAGIC) + 8 : len(ft._CACHE_MAGIC) + 16] = struct.pack("<d", value)
    entry.write_bytes(bytes(poisoned))
    ft.load_feature_sequence(entry)  # finite, so the record itself parses
    mat, reused = ft.frame_matrix(wav, cfg, tmp_path)
    assert not reused
    np.testing.assert_array_equal(mat, fresh)
    assert entry.read_bytes() == raw


def test_only_the_features_module_reads_a_sequences_layout():
    # how a FeatureSequence stores its rows (t_max buffer, mask) is decided in
    # one module; every other one reads valid_len, valid_rows() and dim
    package = Path(ft.__file__).parent
    readers = {
        src.name for src in package.glob("*.py")
        for node in ast.walk(ast.parse(src.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("t_max", "mask")}
    assert readers == {"features.py"}
