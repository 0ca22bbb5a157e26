"""Reference computations that the benchmark checks the program against.

Everything here is written from the method's formulas in plain numpy and
the standard library. Nothing imports ambispeech, so a fault in the program
cannot hide in its own reference.
"""

from __future__ import annotations

import math
import struct
import wave

import numpy as np

N_INTENTS = 7


# ------------------------------------------------------------- audio front end


def read_pcm16(path) -> tuple[np.ndarray, int]:
    """Mono 16-bit PCM through the stdlib wave module, scaled by 1/32768."""
    with wave.open(str(path), "rb") as fh:
        if fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit samples")
        rate, channels = fh.getframerate(), fh.getnchannels()
        raw = fh.readframes(fh.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    if channels > 1:
        samples = samples.reshape(-1, channels).mean(axis=1)
    return samples / 32768.0, rate


def mel_of_hz(f: float) -> float:
    return 2595.0 * math.log10(1.0 + f / 700.0)


def hz_of_mel(m: float) -> float:
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def mel_edges(sample_rate: int, n_mels: int) -> list[float]:
    """n_mels + 2 edges in Hz, equally spaced in mel from 0 to Nyquist."""
    top = mel_of_hz(sample_rate / 2.0)
    return [hz_of_mel(top * k / (n_mels + 1)) for k in range(n_mels + 2)]


def mel_filters(sample_rate: int, n_fft: int, n_mels: int) -> np.ndarray:
    """Triangular filters that peak at 1 on their centre, one row per filter."""
    edges = mel_edges(sample_rate, n_mels)
    bins = [k * sample_rate / n_fft for k in range(n_fft // 2 + 1)]
    out = np.zeros((n_mels, len(bins)))
    for j in range(n_mels):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        for k, f in enumerate(bins):
            if lo < f < hi:
                out[j, k] = (f - lo) / (mid - lo) if f <= mid else (hi - f) / (hi - mid)
    return out


def log_mel_rms(samples: np.ndarray, sample_rate: int, n_fft: int, hop: int,
                n_mels: int) -> np.ndarray:
    """(frames, n_mels + 1): log1p of the mel power per frame, then its RMS.

    Frame t holds samples [t*hop, t*hop + n_fft), zero-padded past the end,
    and there are ceil(len / hop) frames. The window is the periodic Hann
    window 0.5 - 0.5 cos(2 pi n / n_fft).
    """
    window = np.array([0.5 - 0.5 * math.cos(2.0 * math.pi * n / n_fft) for n in range(n_fft)])
    filters = mel_filters(sample_rate, n_fft, n_mels)
    n_frames = -(-len(samples) // hop)
    rows = np.zeros((n_frames, n_mels + 1))
    for t in range(n_frames):
        frame = np.zeros(n_fft)
        chunk = samples[t * hop : t * hop + n_fft]
        frame[: len(chunk)] = chunk
        power = np.abs(np.fft.rfft(frame * window)) ** 2
        rows[t, :n_mels] = np.log1p(filters @ power)
        rows[t, n_mels] = math.sqrt(float(np.dot(frame, frame)) / n_fft)
    return rows


def read_feature_record(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one cache record: b"AMBF1", u32 t_max, u32 dim, f64 rows, u8 mask."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != b"AMBF1":
        raise ValueError(f"{path}: bad magic")
    t_max, dim = struct.unpack_from("<II", raw, 5)
    n = t_max * dim
    if len(raw) != 13 + 8 * n + t_max:
        raise ValueError(f"{path}: {len(raw)} bytes do not fit ({t_max}, {dim})")
    data = np.frombuffer(raw, dtype="<f8", count=n, offset=13).reshape(t_max, dim)
    mask = np.frombuffer(raw, dtype=np.uint8, count=t_max, offset=13 + 8 * n)
    return data.astype(np.float64), mask.astype(np.float64)


# ------------------------------------------------------------------- ca model


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def lstm(x: np.ndarray, mask: np.ndarray, Wx, Wh, b, reverse: bool):
    """One LSTM direction over (T, D) with gate order i, f, g, o.

    A padded step (mask 0) leaves h and c as they were and outputs zeros.
    Returns the (T, h) outputs and the state after the last step visited.
    """
    hidden = Wh.shape[0]
    h, c = np.zeros(hidden), np.zeros(hidden)
    out = np.zeros((x.shape[0], hidden))
    steps = range(x.shape[0] - 1, -1, -1) if reverse else range(x.shape[0])
    for t in steps:
        if mask[t] == 0.0:
            continue
        z = x[t] @ Wx + h @ Wh + b
        i = _sigmoid(z[:hidden])
        f = _sigmoid(z[hidden : 2 * hidden])
        g = np.tanh(z[2 * hidden : 3 * hidden])
        o = _sigmoid(z[3 * hidden :])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out, h


def bidirectional(x, mask, params: dict, prefix: str):
    """Both directions side by side: (T, 2h) outputs and the 2h final state."""
    fwd, h_f = lstm(x, mask, params[f"{prefix}.fwd.Wx"], params[f"{prefix}.fwd.Wh"],
                    params[f"{prefix}.fwd.b"], reverse=False)
    bwd, h_b = lstm(x, mask, params[f"{prefix}.bwd.Wx"], params[f"{prefix}.bwd.Wh"],
                    params[f"{prefix}.bwd.b"], reverse=True)
    return np.concatenate([fwd, bwd], axis=1), np.concatenate([h_f, h_b])


def attention(H, mask, W, b, context):
    """Additive attention: softmax over valid t of context . tanh(W H_t + b)."""
    valid = np.flatnonzero(mask)
    scores = np.array([context @ np.tanh(W @ H[t] + b) for t in valid])
    e = np.exp(scores - scores.max())
    weights = e / e.sum()
    return weights, weights @ H[valid]


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def ca_probs(params: dict, audio, audio_mask, text, text_mask) -> np.ndarray:
    """The cross-attention variant for one utterance, from its parameters.

    Audio is pooled against its own learned context; that pool steers the
    attention over text, and the final text state steers a second attention
    over audio. The two pools feed a ReLU layer and a 7-way softmax.
    """
    p = {k.split(".", 2)[2]: v for k, v in params.items()}  # drop "model.ca."
    H_a, _ = bidirectional(audio, audio_mask, p, "audio_bre")
    H_t, final_t = bidirectional(text, text_mask, p, "text_bre")
    _, pooled_a = attention(H_a, audio_mask, p["audio_att.W"], p["audio_att.b"],
                            p["audio_att.c"])
    _, pooled_t = attention(H_t, text_mask, p["text_xatt.W"], p["text_xatt.b"], pooled_a)
    _, pooled_a2 = attention(H_a, audio_mask, p["audio_xatt.W"], p["audio_xatt.b"], final_t)
    x = np.concatenate([pooled_a2, pooled_t])
    hidden = np.maximum(x @ p["head.W1"] + p["head.b1"], 0.0)
    return softmax(hidden @ p["head.W2"] + p["head.b2"])


# ------------------------------------------------------------ training output


def parse_log_csv(text: str) -> list[tuple[int, float, float, float]]:
    """(epoch, acc, f1, loss) rows of a training log."""
    lines = text.strip().splitlines()
    if lines[0] != "epoch,acc,f1,loss":
        raise ValueError(f"unexpected log header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        e, acc, f1, loss = line.split(",")
        rows.append((int(e), float(acc), float(f1), float(loss)))
    return rows


def select_epoch(rows) -> int:
    """Top-5 by accuracy meets top-5 by F1 (ties to later epochs); the best
    accuracy in that pool wins, ties to the later epoch. An empty pool falls
    back to every epoch."""
    k = min(5, len(rows))
    by_acc = sorted(rows, key=lambda r: (r[1], r[0]), reverse=True)[:k]
    by_f1 = sorted(rows, key=lambda r: (r[2], r[0]), reverse=True)[:k]
    pool_epochs = {r[0] for r in by_acc} & {r[0] for r in by_f1}
    pool = [r for r in rows if r[0] in pool_epochs] or list(rows)
    return max(pool, key=lambda r: (r[1], r[0]))[0]


def parse_report(text: str) -> tuple[dict, np.ndarray]:
    """Key/value lines and the confusion matrix (rows are the truth)."""
    values: dict[str, str] = {}
    lines = text.splitlines()
    confusion = None
    for n, line in enumerate(lines):
        if line.startswith("confusion,"):
            rows = [r.split(",")[1:] for r in lines[n + 1 : n + 1 + N_INTENTS]]
            confusion = np.array(rows, dtype=np.int64)
            break
        if ": " in line:
            key, val = line.split(": ", 1)
            values[key] = val
    if confusion is None or confusion.shape != (N_INTENTS, N_INTENTS):
        raise ValueError("report carries no 7x7 confusion block")
    return values, confusion


def confusion_of(truth, pred) -> np.ndarray:
    m = np.zeros((N_INTENTS, N_INTENTS), dtype=np.int64)
    for t, p in zip(truth, pred):
        m[t, p] += 1
    return m
