"""Synthetic ambiguous-utterance corpus.

Each script is a short toy-syllabary transcript rendered several times with
different intents. The intent decides only the pitch contour: a 5-slot
L/M/H template stretched over the syllables plus a global register
multiplier. The confusion structure mirrors the three prosodic criteria:

  - YN vs WH share a script (ender GGA) and differ mid-sentence (slot 1);
  - RQ vs RC share a script (ender JI) and differ only by register;
  - S and C live on different scripts (enders DA vs RA) but share one
    contour family, so audio alone cannot tell them apart;
  - statement-type scripts pair S or C with a cycling partner intent that
    is always contour-separable.

Everything that is not the contour (syllables, lengths, jitter, speaker)
is drawn independently of the label, so the label signal lives exactly
where the construction puts it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import hangul
from .config import check_fields
from .corpus import IntentLabel, UtteranceRecord, write_manifest
from .errors import ConfigError
from .features import AudioSignal, write_wav

SAMPLE_RATE = 16000
PITCH_HZ = {"L": 120.0, "M": 180.0, "H": 240.0}
SPEAKER_REGISTER = {"m": 0.95, "f": 1.05}

# label -> (5-slot pitch template, register multiplier)
DEFAULT_CONTOURS: dict[str, tuple[str, float]] = {
    "S": ("LMLML", 1.0),
    "C": ("LMLML", 1.0),  # identical to S on purpose: the ender carries it
    "YN": ("LMLLH", 1.0),
    "WH": ("LHLLH", 1.0),
    "RQ": ("LMLMH", 1.30),
    "RC": ("LMLMH", 0.77),
    "R": ("LMMHH", 1.0),
}

# open CV syllables over 5 onsets x 5 nuclei
DEFAULT_SYLLABARY: tuple[str, ...] = tuple(
    hangul.compose(o, n) for o in (0, 2, 6, 9, 12) for n in (0, 4, 8, 13, 20)
)

# script type -> (ender syllable, fixed labels, partner pool)
SCRIPT_TYPES: dict[str, tuple[str, tuple[str, ...], tuple[str, ...]]] = {
    "ynwh": (hangul.compose(1, 0), ("YN", "WH"), ("RQ", "RC", "R")),
    "rqrc": (hangul.compose(12, 20), ("RQ", "RC"), ("YN", "WH", "R")),
    "decl": (hangul.compose(3, 0), ("S",), ("YN", "WH", "RQ", "RC", "R")),
    "cmd": (hangul.compose(5, 0), ("C",), ("YN", "WH", "RQ", "RC", "R")),
}

DEFAULT_TYPE_CYCLE = ("ynwh", "rqrc", "decl", "cmd")


@dataclass(frozen=True)
class SyntheticSpec:
    n_scripts: int = 20
    variants_per_script: int = 2
    seed: int = 0
    script_types: tuple[str, ...] = DEFAULT_TYPE_CYCLE

    def __post_init__(self):
        check_fields(self, {"n_scripts": (lambda v: v >= 1, ">= 1"),
                            "variants_per_script": (lambda v: 2 <= v <= 4, "2..4"),
                            "seed": (lambda v: v >= 0, ">= 0")})
        unknown = [t for t in self.script_types if t not in SCRIPT_TYPES]
        if unknown:
            raise ConfigError(f"unknown script types {unknown}")


def _script_labels(spec: SyntheticSpec, stype: str, partner_state: dict[str, int]) -> list[str]:
    _, base, pool = SCRIPT_TYPES[stype]
    labels = list(base)
    k = partner_state.get(stype, 0)
    needed = spec.variants_per_script - len(labels)
    for j in range(needed):
        labels.append(pool[(k + j) % len(pool)])
    partner_state[stype] = k + needed
    return labels


def render_utterance(transcript: str, contour: tuple[str, float], speaker: str,
                     rng: np.random.Generator) -> AudioSignal:
    """Phase-continuous sine rendering; spaces become 25 ms of silence."""
    pattern, register = contour
    voiced = [ch for ch in transcript if ch != " "]
    n = len(voiced)
    amp = 0.28 * (1.0 + rng.uniform(-0.1, 0.1))
    base = register * SPEAKER_REGISTER[speaker]
    pieces = []
    phase = 0.0
    j = 0
    for ch in transcript:
        if ch == " ":
            pieces.append(np.zeros(int(0.025 * SAMPLE_RATE)))
            continue
        slot = pattern[round(j * 4 / max(n - 1, 1))]
        freq = PITCH_HZ[slot] * base * (1.0 + rng.uniform(-0.02, 0.02))
        dur = 0.10 * (1.0 + rng.uniform(-0.15, 0.15))
        t = np.arange(int(dur * SAMPLE_RATE))
        step = 2.0 * np.pi * freq / SAMPLE_RATE
        pieces.append(amp * np.sin(phase + step * t))
        phase = (phase + step * len(t)) % (2.0 * np.pi)
        j += 1
    samples = np.concatenate(pieces)
    ramp = int(0.005 * SAMPLE_RATE)  # avoid onset/offset clicks
    env = np.ones(len(samples))
    env[:ramp] = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[-ramp:] = env[:ramp][::-1]
    return AudioSignal(samples * env, SAMPLE_RATE)


def generate_synthetic(spec: SyntheticSpec, out_dir) -> tuple[str, list[UtteranceRecord]]:
    """Write WAVs plus manifest.tsv under out_dir; returns (manifest path, records).

    Deterministic: the same spec yields byte-identical files.
    """
    wav_dir = os.path.join(out_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)
    records: list[UtteranceRecord] = []
    partner_state: dict[str, int] = {}
    speaker_state: dict[str, int] = {}
    for s_idx in range(spec.n_scripts):
        stype = spec.script_types[s_idx % len(spec.script_types)]
        ender = SCRIPT_TYPES[stype][0]
        script_rng = np.random.default_rng([spec.seed, 7919, s_idx])
        n_pre = int(script_rng.integers(3, 6))
        chars = [DEFAULT_SYLLABARY[int(script_rng.integers(0, len(DEFAULT_SYLLABARY)))]
                 for _ in range(n_pre)]
        space_at = int(script_rng.integers(1, 3))
        transcript = "".join(chars[:space_at]) + " " + "".join(chars[space_at:]) + ender
        labels = _script_labels(spec, stype, partner_state)
        # alternating per type keeps speaker exactly independent of label
        sp_count = speaker_state.get(stype, 0)
        speaker_state[stype] = sp_count + 1
        speaker = "m" if sp_count % 2 == 0 else "f"
        for v_idx, label in enumerate(labels):
            rid = f"syn{s_idx:04d}{'abcd'[v_idx]}"
            rec_rng = np.random.default_rng([spec.seed, 104729, s_idx, v_idx])
            signal = render_utterance(transcript, DEFAULT_CONTOURS[label], speaker, rec_rng)
            rel = os.path.join("wav", f"{rid}.wav")
            write_wav(os.path.join(out_dir, rel), signal)
            records.append(UtteranceRecord(rid, rel, transcript, IntentLabel[label], speaker))
    manifest = os.path.join(out_dir, "manifest.tsv")
    write_manifest(manifest, records)
    return manifest, records
