"""Dataset ingestion: the 7-label schema, TSV manifests, embedding tables,
and the manifest -> featurized-example pipeline."""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from . import features as ft
from .errors import ConfigError, EmptyInputError, LabelError, ManifestError
from .features import EmbeddingTable, FeatureConfig, FeatureSequence

Array = np.ndarray


class IntentLabel(enum.IntEnum):
    """The seven utterance intents, in fixed ordinal order."""

    S = 0
    YN = 1
    WH = 2
    RQ = 3
    C = 4
    R = 5
    RC = 6

    @classmethod
    def parse(cls, s: str) -> "IntentLabel":
        try:
            return cls[s.strip()]
        except KeyError:
            raise LabelError(f"unknown intent label {s!r}") from None


INTENT_LABELS = tuple(lbl.name for lbl in IntentLabel)
TEXT_MODES = ("none", "sparse", "dense")  # how a model reads the transcript; see text_features


@dataclass(frozen=True)
class UtteranceRecord:
    id: str
    audio: str
    transcript: str
    label: IntentLabel
    speaker: str
    alt_transcript: str | None = None

    def __post_init__(self):
        if not self.transcript.strip():
            raise EmptyInputError(f"record {self.id}: empty transcript")


# ---------------------------------------------------------------- manifests

_COLUMNS = ("id", "audio", "transcript", "label", "speaker")
_OPTIONAL_COLUMNS = ("alt_transcript",)


def load_manifest(path) -> list[UtteranceRecord]:
    """Read a TSV manifest with header id/audio/transcript/label/speaker
    and an optional alt_transcript column; a leading UTF-8 BOM is skipped."""
    lines = checkpoint.read_text(path, "manifest", ManifestError).splitlines()
    if not lines:
        raise ManifestError(f"{path} line 1: empty manifest")
    header = lines[0].split("\t")
    missing = [c for c in _COLUMNS if c not in header]
    if missing:
        raise ManifestError(f"{path} line 1: missing columns {missing}")
    unknown = [c for c in header if c not in _COLUMNS + _OPTIONAL_COLUMNS]
    if unknown:
        raise ManifestError(f"{path} line 1: unknown columns {unknown}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise ManifestError(f"{path} line 1: duplicate columns {repeated}")
    idx = {c: header.index(c) for c in header}

    records: list[UtteranceRecord] = []
    seen: set[str] = set()
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ManifestError(f"{path} line {ln}: expected {len(header)} cells, got {len(cells)}")
        try:
            label = IntentLabel.parse(cells[idx["label"]])
        except LabelError as exc:
            raise ManifestError(f"{path} line {ln}: {exc}") from exc
        rid = cells[idx["id"]]
        if rid in seen:
            raise ManifestError(f"{path} line {ln}: duplicate id {rid!r}")
        seen.add(rid)
        alt = cells[idx["alt_transcript"]] if "alt_transcript" in idx else None
        try:
            records.append(UtteranceRecord(
                id=rid,
                audio=cells[idx["audio"]],
                transcript=cells[idx["transcript"]],
                label=label,
                speaker=cells[idx["speaker"]],
                alt_transcript=alt if alt else None,
            ))
        except EmptyInputError as exc:
            raise ManifestError(f"{path} line {ln}: {exc}") from exc
    return records


def write_manifest(path, records: list[UtteranceRecord]) -> None:
    """Inverse of load_manifest; emits alt_transcript only when any record has one.

    A cell holding a tab or a line break (anything str.splitlines breaks on),
    or a repeated id, raises ConfigError before anything is written: the
    loader rejects both.
    """
    with_alt = any(r.alt_transcript is not None for r in records)
    cols = _COLUMNS + (_OPTIONAL_COLUMNS if with_alt else ())
    out = ["\t".join(cols)]
    seen: set[str] = set()
    for r in records:
        if r.id in seen:
            raise ConfigError(f"duplicate id {r.id!r}")
        seen.add(r.id)
        cells = [r.id, r.audio, r.transcript, r.label.name, r.speaker]
        if with_alt:
            cells.append(r.alt_transcript or "")
        for col, cell in zip(cols, cells):
            if "\t" in cell or "".join(cell.splitlines()) != cell:
                raise ConfigError(f"record {r.id!r}: {col} holds a tab or line break")
        out.append("\t".join(cells))
    checkpoint.write_atomic(path, ("\n".join(out) + "\n").encode("utf-8"))


# ----------------------------------------------------------- embedding table


def load_embedding_table(path) -> EmbeddingTable:
    """Parse the word-vector text format: header "count dim", then
    one "token v1 ... v_dim" line per entry; a leading UTF-8 BOM is skipped."""
    lines = checkpoint.read_text(path, "embedding table", ManifestError).splitlines()
    if not lines:
        raise ManifestError(f"{path} line 1: empty table file")
    head = lines[0].split()
    if len(head) != 2:
        raise ManifestError(f"{path} line 1: header must be 'count dim'")
    try:
        count, dim = int(head[0]), int(head[1])
    except ValueError:
        raise ManifestError(f"{path} line 1: header must be two integers") from None
    if count < 0 or dim < 1:
        raise ManifestError(f"{path} line 1: bad count/dim {count}/{dim}")
    vectors: dict[str, Array] = {}
    for ln, line in enumerate(lines[1 : count + 1], start=2):
        parts = line.rstrip().split(" ")
        if len(parts) != dim + 1:
            raise ManifestError(f"{path} line {ln}: expected token + {dim} floats, got {len(parts)} fields")
        try:
            vec = np.array([float(p) for p in parts[1:]])
        except ValueError:
            raise ManifestError(f"{path} line {ln}: non-numeric vector entry") from None
        if not np.isfinite(vec).all():
            raise ManifestError(f"{path} line {ln}: non-finite vector entry")
        vectors[parts[0]] = vec
    extra = [ln for ln, line in enumerate(lines[count + 1 :], start=count + 2) if line.strip()]
    if extra:
        raise ManifestError(f"{path} line {extra[0]}: more entries than the header's count {count}")
    if len(vectors) != count:
        raise ManifestError(f"{path}: header promised {count} entries, parsed {len(vectors)}")
    return EmbeddingTable(vectors, dim)


def save_embedding_table(path, table: EmbeddingTable) -> None:
    """Inverse of load_embedding_table, whose lines split on spaces: a token holds no
    whitespace, and, as the loader requires, every vector entry is finite."""
    spaced = [t for t in table.vectors if any(ch.isspace() for ch in t)]
    if spaced:
        raise ConfigError(f"table tokens {spaced[:3]} hold whitespace, which the format splits on")
    non_finite = [t for t, vec in table.vectors.items() if not np.isfinite(vec).all()]
    if non_finite:
        raise ConfigError(f"table tokens {non_finite[:3]} hold a non-finite vector entry")
    out = [f"{len(table.vectors)} {table.dim}"]
    for token, vec in table.vectors.items():
        out.append(token + " " + " ".join(repr(float(v)) for v in vec))
    checkpoint.write_atomic(path, ("\n".join(out) + "\n").encode("utf-8"))


# ------------------------------------------------------------------ pipeline


@dataclass
class Example:
    """A featurized record, ready for a model."""

    id: str
    audio: FeatureSequence
    text: FeatureSequence | None
    label: int
    speaker: str
    transcript: str


def featurize_corpus(records: list[UtteranceRecord], cfg: FeatureConfig, text_mode: str,
                     table: EmbeddingTable | None = None, use_alt_transcript: bool = False,
                     cache_dir=None, base_dir=None) -> tuple[list[Example], FeatureConfig]:
    """Turn manifest records into aligned Examples.

    Unresolved t_max fields are filled from the longest utterance seen, and
    the resolved config is returned for persisting alongside any model.
    Audio frames come from features.frame_matrix: cache_dir, created if
    missing, keeps them in the cache that `ambispeech featurize` fills.
    base_dir resolves relative audio paths (defaults to the cwd).
    """
    if text_mode not in TEXT_MODES:
        raise ConfigError(f"unknown text mode {text_mode!r}")
    if text_mode == "dense" and table is None:
        raise ConfigError("dense text mode needs an embedding table")
    if use_alt_transcript and text_mode == "none":
        raise ConfigError("use_alt_transcript needs a text mode; text_mode 'none' reads no transcript")
    if not records:
        raise EmptyInputError("no records to featurize")
    texts = [r.alt_transcript if use_alt_transcript else r.transcript for r in records]
    if text_mode != "none":  # every text is checked before any audio is read
        for r, text in zip(records, texts):
            if text is None:
                raise ConfigError(f"record {r.id} has no alt_transcript")
            if not text.strip():
                raise EmptyInputError(f"record {r.id}: alt_transcript is empty after trimming")
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)

    frame_mats = [ft.frame_matrix(os.path.join(base_dir or "", r.audio), cfg, cache_dir)[0]
                  for r in records]
    resolved = ft.resolve_t_max(
        cfg,
        audio_t=max(m.shape[0] for m in frame_mats),
        text_t=max(len(t.strip()) for t in texts) if text_mode != "none" else None,
    )

    examples = []
    for r, text, mat in zip(records, texts, frame_mats):
        audio_fs = ft.end_align(mat, resolved.audio_t_max)
        text_fs = text_features(text, text_mode, table, resolved.text_t_max)
        examples.append(Example(r.id, audio_fs, text_fs, int(r.label), r.speaker, r.transcript))
    return examples, resolved


def text_features(text: str, text_mode: str, table: EmbeddingTable | None,
                  t_max: int | None) -> FeatureSequence | None:
    """A transcript's features under text_mode: none, sparse rows, or dense rows from table."""
    if text_mode == "none":
        return None
    if text_mode == "sparse":
        return ft.encode_sparse(text, t_max)
    return ft.encode_dense(text, table, t_max)
