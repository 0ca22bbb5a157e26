"""Audio and text featurization.

Audio becomes mel-spectrogram frames with a per-frame RMS energy column
appended; Korean text becomes either 69-dim multi-hot rows (one per
character) or rows looked up in a pretrained embedding table. Both
modalities share one buffer convention: fixed-length (t_max, dim) matrices
whose valid rows sit at the END, described by a 0/1 mask.
"""

from __future__ import annotations

import functools
import hashlib
import io
import os
import struct
import wave
from dataclasses import dataclass, replace

import numpy as np

from . import checkpoint, hangul
from .config import check_fields
from .errors import ConfigError, DataError, EmptyInputError, ShapeError

Array = np.ndarray


@dataclass(frozen=True)
class AudioSignal:
    """Mono samples in [-1, 1] at a known sample rate."""

    samples: Array
    sample_rate: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1:
            raise ShapeError(f"samples must be 1-D, got shape {s.shape}")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class FeatureConfig:
    """Featurization knobs shared by training, evaluation, and prediction.

    audio_t_max / text_t_max are usually resolved from a corpus (longest
    utterance) before featurizing; None means "fit each input exactly".
    log_mel applies log1p to mel bins, keeping them non-negative and
    monotone while taming the raw power scale.
    """

    sample_rate: int = 16000
    n_fft: int = 1024
    hop: int = 256
    n_mels: int = 128
    log_mel: bool = True
    audio_t_max: int | None = None
    text_t_max: int | None = None

    _RANGES = {
        "sample_rate": (lambda v: v > 0, "positive"),
        "n_fft": (lambda v: v >= 2 and not v & (v - 1), "a power of two >= 2"),
        "hop": (lambda v: v > 0, "positive"),
        "n_mels": (lambda v: v >= 1, ">= 1"),
        "audio_t_max": (lambda v: v >= 1, ">= 1 or null"),
        "text_t_max": (lambda v: v >= 1, ">= 1 or null"),
    }

    def __post_init__(self):
        check_fields(self, self._RANGES)

    @property
    def audio_dim(self) -> int:
        return self.n_mels + 1


@dataclass(frozen=True)
class FeatureSequence:
    """An end-aligned (t_max, dim) feature buffer with its validity mask.

    Invariants: mask is 0/1 with all ones forming one contiguous block at
    the end, and every masked-out row is exactly zero.
    """

    data: Array
    mask: Array

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        m = np.asarray(self.mask, dtype=np.float64)
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "mask", m)
        if d.ndim != 2 or m.ndim != 1 or d.shape[0] != m.shape[0]:
            raise ShapeError(f"data {d.shape} and mask {m.shape} do not line up")
        if not np.all((m == 0.0) | (m == 1.0)):
            raise ShapeError("mask entries must be 0 or 1")
        valid = int(m.sum())
        if valid == 0:
            raise EmptyInputError("feature sequence has no valid rows")
        if not np.all(m[d.shape[0] - valid :] == 1.0):
            raise ShapeError("valid rows must form a contiguous block at the end")
        if valid < d.shape[0] and np.any(d[: d.shape[0] - valid] != 0.0):
            raise ShapeError("masked-out rows must be zero")

    @property
    def t_max(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def valid_len(self) -> int:
        return int(self.mask.sum())

    def valid_rows(self) -> Array:
        return self.data[self.t_max - self.valid_len :]


def end_align(rows: Array, t_max: int | None = None) -> FeatureSequence:
    """Pack rows at the end of a (t_max, dim) buffer.

    Overlong inputs keep their LAST t_max rows: the end of an utterance
    carries the discriminating cues, so the head is what gets dropped.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ShapeError(f"rows must be 2-D, got shape {rows.shape}")
    if rows.shape[0] == 0:
        raise EmptyInputError("cannot align an empty row sequence")
    if t_max is None:
        t_max = rows.shape[0]
    if t_max < 1:
        raise ConfigError(f"t_max must be >= 1, got {t_max}")
    if rows.shape[0] > t_max:
        rows = rows[rows.shape[0] - t_max :]
    n_valid = rows.shape[0]
    data = np.zeros((t_max, rows.shape[1]))
    data[t_max - n_valid :] = rows
    mask = np.zeros(t_max)
    mask[t_max - n_valid :] = 1.0
    return FeatureSequence(data, mask)


# ------------------------------------------------------------------- audio


def _frames(signal: AudioSignal, frame_length: int, hop: int) -> Array:
    """(ceil(len/hop), frame_length) frames; frame t starts at sample t*hop,
    and the tail is zero-padded to a whole frame. A read-only strided view,
    not a copy."""
    x = signal.samples
    if x.shape[0] == 0:
        raise EmptyInputError("cannot frame an empty signal")
    n_frames = -(-x.shape[0] // hop)  # ceil
    padded = np.zeros((n_frames - 1) * hop + frame_length)
    padded[: x.shape[0]] = x
    return np.lib.stride_tricks.sliding_window_view(padded, frame_length)[::hop]


def rmse_frames(signal: AudioSignal, frame_length: int, hop: int) -> Array:
    """Per-frame root-mean-square energy.

    Frame t covers samples [t*hop, t*hop + frame_length); tails shorter
    than a frame are zero-padded within the frame. Returns shape (T,) with
    T = ceil(len/hop).
    """
    if frame_length < 1 or hop < 1:
        raise ConfigError(f"frame_length and hop must be >= 1, got {frame_length}, {hop}")
    frames = _frames(signal, frame_length, hop)
    return np.sqrt(np.mean(frames * frames, axis=1))


def hz_to_mel(f) -> Array:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m) -> Array:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges_hz(sample_rate: int, n_mels: int) -> Array:
    """n_mels + 2 filter edges, equally spaced on the mel scale from 0 Hz to Nyquist."""
    return mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))


@functools.lru_cache(maxsize=8)
def _cached_filterbank(sample_rate: int, n_fft: int, n_mels: int) -> Array:
    """The filterbank of one front-end config, built once and read-only."""
    edges_hz = _mel_edges_hz(sample_rate, n_mels)
    fft_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    lo, center, hi = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    rising = (fft_freqs[None, :] - lo) / (center - lo)
    falling = (hi - fft_freqs[None, :]) / (hi - center)
    fb = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.flags.writeable = False
    return fb


def mel_filterbank(sample_rate: int, n_fft: int, n_mels: int) -> Array:
    """Unnormalized triangular filters, shape (n_mels, n_fft//2 + 1).

    Filter edges are equally spaced on the mel scale from 0 Hz to Nyquist;
    each triangle peaks at 1 at its center.
    """
    return _cached_filterbank(sample_rate, n_fft, n_mels).copy()


def mel_center_frequencies(sample_rate: int, n_fft: int, n_mels: int) -> Array:
    """Peak frequency of each mel filter, in Hz."""
    return _mel_edges_hz(sample_rate, n_mels)[1:-1]


@functools.lru_cache(maxsize=8)
def _hann(n_fft: int) -> Array:
    """The periodic Hann window of one frame length, built once and read-only."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    window.flags.writeable = False
    return window


def stft_power(signal: AudioSignal, n_fft: int, hop: int) -> Array:
    """Magnitude-squared Hann-windowed STFT; frame t starts at t*hop."""
    spectrum = np.fft.rfft(_frames(signal, n_fft, hop) * _hann(n_fft), axis=1)
    return np.abs(spectrum) ** 2


def mel_spectrogram(signal: AudioSignal, n_fft: int, hop: int, n_mels: int) -> Array:
    """Mel-filtered power spectrogram, shape (T, n_mels), entries >= 0."""
    if n_fft < 2 or n_fft & (n_fft - 1):
        raise ConfigError(f"n_fft must be a power of two >= 2, got {n_fft}")
    if n_mels < 1:
        raise ConfigError(f"n_mels must be >= 1, got {n_mels}")
    power = stft_power(signal, n_fft, hop)
    return power @ _cached_filterbank(signal.sample_rate, n_fft, n_mels).T


def audio_frame_matrix(signal: AudioSignal, cfg: FeatureConfig) -> Array:
    """Unaligned (T, n_mels + 1) rows: mel bins then the RMS column."""
    if signal.sample_rate != cfg.sample_rate:
        raise ConfigError(
            f"signal rate {signal.sample_rate} != configured {cfg.sample_rate}"
        )
    mel = mel_spectrogram(signal, cfg.n_fft, cfg.hop, cfg.n_mels)
    if cfg.log_mel:
        mel = np.log1p(mel)
    rmse = rmse_frames(signal, cfg.n_fft, cfg.hop)
    return np.hstack([mel, rmse[:, None]])


def audio_features(signal: AudioSignal, cfg: FeatureConfig) -> FeatureSequence:
    """Full audio featurization: frame matrix end-aligned to cfg.audio_t_max."""
    return end_align(audio_frame_matrix(signal, cfg), cfg.audio_t_max)


# -------------------------------------------------------------------- text


@dataclass(frozen=True)
class EmbeddingTable:
    """Token -> vector mapping; unknown tokens read as zero vectors."""

    vectors: dict[str, Array]
    dim: int

    def lookup(self, token: str) -> Array:
        v = self.vectors.get(token)
        return np.zeros(self.dim) if v is None else v


def encode_sparse(text: str, t_max: int | None = None) -> FeatureSequence:
    """One 69-dim multi-hot row per character of the trimmed text."""
    return _encode_chars(text, hangul.char_row, t_max)


def encode_dense(text: str, table: EmbeddingTable, t_max: int | None = None) -> FeatureSequence:
    """One embedding row per character of the trimmed text."""
    return _encode_chars(text, table.lookup, t_max)


def _encode_chars(text: str, row, t_max: int | None) -> FeatureSequence:
    trimmed = text.strip()
    if not trimmed:
        raise EmptyInputError("text is empty after trimming")
    return end_align(np.stack([row(ch) for ch in trimmed]), t_max)


# ------------------------------------------------------------------ wav io


def read_wav(path) -> AudioSignal:
    """Load a 16-bit PCM WAV as mono float64 in [-1, 1]; channels are averaged."""
    return _parse_wav(checkpoint.read_bytes(path, "wav"), path)


def _parse_wav(data: bytes, path) -> AudioSignal:
    """read_wav's parser over a WAV file's bytes; any failure raises DataError."""
    try:
        with wave.open(io.BytesIO(data), "rb") as wf:
            rate, width = wf.getframerate(), wf.getsampwidth()
            channels, n_frames = wf.getnchannels(), wf.getnframes()
            raw = wf.readframes(n_frames)
    except Exception as exc:  # wave raises EOFError, wave.Error, RuntimeError, struct.error...
        raise DataError(f"cannot read wav {path}: {str(exc) or 'file ends in its header'}") from exc
    if width != 2:
        raise DataError(f"{path}: expected 16-bit PCM, got {8 * width}-bit samples")
    if len(raw) != n_frames * channels * 2:  # wave returns short reads silently
        raise DataError(f"{path}: data chunk holds {len(raw)} of {n_frames * channels * 2} bytes")
    if n_frames == 0:
        raise DataError(f"{path}: holds no samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return AudioSignal(samples / 32768.0, rate)


def write_wav(path, signal: AudioSignal) -> None:
    """Write mono 16-bit PCM; samples are clipped to [-1, 1].

    Quantization mirrors read_wav's /32768 so a round trip stays within
    half a quantization step (full-scale +1.0 clips to 32767).
    """
    q = np.round(np.clip(signal.samples, -1.0, 1.0) * 32768.0)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(signal.sample_rate)
        wf.writeframes(np.clip(q, -32768, 32767).astype("<i2").tobytes())
    checkpoint.write_atomic(path, buf.getvalue())


# ------------------------------------------------------------ cache records

_CACHE_MAGIC = b"AMBF1"
_CACHE_VERSION = "ambf1"  # part of every entry name: bump it when the frame bits change


def save_feature_sequence(path, fs: FeatureSequence) -> None:
    """Binary cache record: magic, u32 t_max, u32 dim, doubles, mask bytes."""
    blob = bytearray(_CACHE_MAGIC)
    blob += struct.pack("<II", fs.t_max, fs.dim)
    blob += np.ascontiguousarray(fs.data, dtype="<f8").tobytes()
    blob += fs.mask.astype(np.uint8).tobytes()
    checkpoint.write_atomic(path, bytes(blob))


def load_feature_sequence(path) -> FeatureSequence:
    """Read a cache record; any unreadable, invalid or non-finite record raises DataError."""
    raw = checkpoint.read_bytes(path, "feature record")
    if raw[: len(_CACHE_MAGIC)] != _CACHE_MAGIC:
        raise DataError(f"{path} is not a feature record (bad magic)")
    off = len(_CACHE_MAGIC)
    if len(raw) < off + 8:
        raise DataError(f"{path} is truncated")
    t_max, dim = struct.unpack_from("<II", raw, off)
    off += 8
    n = t_max * dim
    if len(raw) != off + n * 8 + t_max:
        raise DataError(f"{path} has the wrong payload size")
    data = np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(t_max, dim)
    if not np.isfinite(data).all():
        raise DataError(f"{path} holds a non-finite feature value")
    mask = np.frombuffer(raw, dtype=np.uint8, count=t_max, offset=off + n * 8)
    try:
        return FeatureSequence(data.astype(np.float64), mask.astype(np.float64))
    except (ShapeError, EmptyInputError) as exc:
        raise DataError(f"{path} holds an invalid feature sequence: {exc}") from exc


def _frame_bound(cfg: FeatureConfig) -> float:
    """A bound on audio_frame_matrix's values (all >= 0): a Hann frame of samples in
    [-1, 1] has |X_k| <= n_fft / 2, a mel filter weighs <= n_fft // 2 + 1 bins by <= 1,
    and the RMS column is <= 1."""
    mel_max = (cfg.n_fft // 2 + 1) * (cfg.n_fft / 2) ** 2
    return max(float(np.log1p(mel_max)) if cfg.log_mel else mel_max, 1.0)


def frame_matrix(path, cfg: FeatureConfig, cache_dir=None) -> tuple[Array, bool]:
    """The audio_frame_matrix of a WAV, and whether it came from the cache.

    An entry is named by a hash of the WAV's bytes and of the config fields
    the frames depend on, so the library and the CLI share entries. It holds
    the unaligned matrix (all-ones mask), so one entry serves any t_max. A
    corrupt entry, or one with a value outside [0, _frame_bound(cfg)], is
    recomputed and overwritten. The WAV is read once: a miss parses the
    bytes that named the entry. cache_dir must exist; without one the
    frames are computed and nothing is stored.
    """
    if cache_dir is None:
        return audio_frame_matrix(read_wav(path), cfg), False
    tag = f"{_CACHE_VERSION}|{cfg.sample_rate}|{cfg.n_fft}|{cfg.hop}|{cfg.n_mels}|{cfg.log_mel}|"
    data = checkpoint.read_bytes(path, "wav")
    key = hashlib.sha256(tag.encode() + data).hexdigest()
    entry = os.path.join(cache_dir, key + ".ambf")
    if os.path.exists(entry):
        try:  # a corrupt entry, or one holding a value no WAV makes, is recomputed below
            mat = load_feature_sequence(entry).valid_rows()
            if 0.0 <= mat.min() and mat.max() <= _frame_bound(cfg):
                return mat, True
        except DataError:
            pass
    mat = audio_frame_matrix(_parse_wav(data, path), cfg)
    save_feature_sequence(entry, end_align(mat))
    return mat, False


def resolve_t_max(cfg: FeatureConfig, audio_t: int | None = None, text_t: int | None = None) -> FeatureConfig:
    """Fill in unresolved t_max fields from observed maximum lengths."""
    out = cfg
    if out.audio_t_max is None and audio_t is not None:
        out = replace(out, audio_t_max=int(audio_t))
    if out.text_t_max is None and text_t is not None:
        out = replace(out, text_t_max=int(text_t))
    return out
