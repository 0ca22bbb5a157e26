"""Dataset ingestion: the 7-label schema, TSV manifests, embedding tables,
and the manifest -> featurized-example pipeline."""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

import numpy as np

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
    and an optional alt_transcript column."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not lines:
        raise ManifestError(f"{path} line 1: empty manifest")
    header = lines[0].split("\t")
    missing = [c for c in _COLUMNS if c not in header]
    if missing:
        raise ManifestError(f"{path} line 1: missing columns {missing}")
    unknown = [c for c in header if c not in _COLUMNS + _OPTIONAL_COLUMNS]
    if unknown:
        raise ManifestError(f"{path} line 1: unknown columns {unknown}")
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
    """Inverse of load_manifest; emits alt_transcript only when any record has one."""
    with_alt = any(r.alt_transcript is not None for r in records)
    cols = _COLUMNS + (_OPTIONAL_COLUMNS if with_alt else ())
    out = ["\t".join(cols)]
    for r in records:
        cells = [r.id, r.audio, r.transcript, r.label.name, r.speaker]
        if with_alt:
            cells.append(r.alt_transcript or "")
        out.append("\t".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


# ----------------------------------------------------------- embedding table


def load_embedding_table(path) -> EmbeddingTable:
    """Parse the word-vector text format: header "count dim", then
    one "token v1 ... v_dim" line per entry."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ManifestError(f"cannot read embedding table {path}: {exc}") from exc
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
        vectors[parts[0]] = vec
    if len(vectors) != count:
        raise ManifestError(f"{path}: header promised {count} entries, parsed {len(vectors)}")
    return EmbeddingTable(vectors, dim)


def save_embedding_table(path, table: EmbeddingTable) -> None:
    out = [f"{len(table.vectors)} {table.dim}"]
    for token, vec in table.vectors.items():
        out.append(token + " " + " ".join(repr(float(v)) for v in vec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


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
                     frame_loader=None, base_dir=None) -> tuple[list[Example], FeatureConfig]:
    """Turn manifest records into aligned Examples.

    Unresolved t_max fields are filled from the longest utterance seen, and
    the resolved config is returned for persisting alongside any model.
    frame_loader overrides WAV reading + framing (the CLI passes a caching
    one); base_dir resolves relative audio paths (defaults to the cwd).
    """
    if text_mode not in ("none", "sparse", "dense"):
        raise ConfigError(f"unknown text mode {text_mode!r}")
    if text_mode == "dense" and table is None:
        raise ConfigError("dense text mode needs an embedding table")
    if not records:
        raise EmptyInputError("no records to featurize")

    if frame_loader is None:
        def frame_loader(record: UtteranceRecord) -> Array:
            audio_path = record.audio if base_dir is None else os.path.join(base_dir, record.audio)
            return ft.audio_frame_matrix(ft.read_wav(audio_path), cfg)

    frame_mats = [frame_loader(r) for r in records]

    def text_of(r: UtteranceRecord) -> str:
        if not use_alt_transcript:
            return r.transcript
        if r.alt_transcript is None:
            raise ConfigError(f"record {r.id} has no alt_transcript")
        return r.alt_transcript

    resolved = ft.resolve_t_max(
        cfg,
        audio_t=max(m.shape[0] for m in frame_mats),
        text_t=max(len(text_of(r).strip()) for r in records) if text_mode != "none" else None,
    )

    examples = []
    for r, mat in zip(records, frame_mats):
        audio_fs = ft.end_align(mat, resolved.audio_t_max)
        if text_mode == "none":
            text_fs = None
        elif text_mode == "sparse":
            text_fs = ft.encode_sparse(text_of(r), resolved.text_t_max)
        else:
            text_fs = ft.encode_dense(text_of(r), table, resolved.text_t_max)
        examples.append(Example(r.id, audio_fs, text_fs, int(r.label), r.speaker, r.transcript))
    return examples, resolved
