"""Command-line surface: featurize, synth, train, eval, predict.

Configuration comes from an optional JSON file plus flag overrides; the
cache directory can also come from AMBISPEECH_CACHE_DIR (flag beats env
beats config). featurize, train and eval read and fill the one frame cache
that features.frame_matrix keeps. Exit codes: 0 success, 1 data error,
2 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ck
from . import corpus as cp
from . import features as ft
from . import hangul
from . import models as md
from . import synth as sy
from . import training as tr
from .config import check_fields, read_section
from .errors import (ConfigError, DataError, DegenerateMaskError, EmptyInputError,
                     LabelError, ShapeError)

CACHE_ENV = "AMBISPEECH_CACHE_DIR"


@dataclass(frozen=True)
class _Paths:
    manifest: str | None = None
    cache_dir: str | None = None
    out_dir: str | None = None
    embedding: str | None = None

    def __post_init__(self):
        check_fields(self, {})


_SECTIONS = {  # config section -> (its name in messages, its keys)
    "features": ("feature", ft.FeatureConfig),
    "train": ("train", tr.TrainConfig),
    "model": ("model", ("hidden", "head_hidden")),
    "paths": ("paths", _Paths),
}
_TOP_KEYS = ("variant", "text_mode", *_SECTIONS)


def _load_config(args) -> dict:
    """The run's config: the JSON file, then AMBISPEECH_CACHE_DIR, then the flags.

    A flag sets the key its dest names, "variant" or "<section>.<key>", before
    any value is checked. features, train and paths come back as checked
    objects, and model as IntentClassifier's keyword arguments.
    """
    cfg = {}
    if args.config is not None:
        raw = ck.read_bytes(args.config, "config")
        try:  # not read_text, which would skip a BOM that JSON does not allow
            cfg = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    cfg = read_section("top-level", cfg, _TOP_KEYS)
    for section, (name, keys) in _SECTIONS.items():
        cfg[section] = read_section(name, cfg.get(section, {}), keys)
    for dest, value in [("paths.cache_dir", os.environ.get(CACHE_ENV) or None),
                        *vars(args).items()]:
        section, _, key = dest.rpartition(".")
        if value is not None and (section or key) in _TOP_KEYS:
            (cfg[section] if section else cfg)[key] = value
    cfg["features"] = ft.FeatureConfig(**cfg["features"])
    cfg["train"] = tr.TrainConfig(**cfg["train"])
    cfg["paths"] = _Paths(**cfg["paths"])
    return cfg


# -------------------------------------------------------------- subcommands


def cmd_synth(args) -> int:
    spec = sy.SyntheticSpec(
        n_scripts=args.n_scripts,
        variants_per_script=args.variants,
        seed=args.seed,
        script_types=tuple(args.types.split(",")) if args.types else sy.DEFAULT_TYPE_CYCLE,
    )
    manifest, records = sy.generate_synthetic(spec, args.out)
    print(f"wrote {len(records)} records to {manifest}")
    return 0


def cmd_featurize(args) -> int:
    cfg = _load_config(args)
    paths = cfg["paths"]
    if paths.manifest is None:
        raise ConfigError("featurize needs a manifest (flag or config)")
    if paths.cache_dir is None:
        raise ConfigError("featurize needs a cache dir (flag, env, or config)")
    records = cp.load_manifest(paths.manifest)
    base_dir = os.path.dirname(os.path.abspath(paths.manifest))
    os.makedirs(paths.cache_dir, exist_ok=True)
    failures, reused = [], 0
    for r in records:
        try:
            reused += ft.frame_matrix(os.path.join(base_dir, r.audio), cfg["features"],
                                      paths.cache_dir)[1]
        except (DataError, OSError, ValueError) as exc:
            failures.append((r.id, str(exc)))
    done = len(records) - len(failures)
    print(f"featurized {done}/{len(records)} records (computed {done - reused}, reused {reused})")
    if failures:
        for rid, msg in failures:
            print(f"FAILED {rid}: {msg}", file=sys.stderr)
        return 1
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    variant = md.ModelVariant.parse(cfg.get("variant", ""), cfg.get("text_mode", "none"))
    tcfg, paths = cfg["train"], cfg["paths"]
    if paths.manifest is None:
        raise ConfigError("train needs a manifest (flag or config)")
    if paths.out_dir is None:
        raise ConfigError("train needs an output dir (flag or config)")
    out_dir = paths.out_dir
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)  # an --out that names a file fails before any work
    records = cp.load_manifest(paths.manifest)
    base_dir = os.path.dirname(os.path.abspath(paths.manifest))
    table, text_dim = None, hangul.N_SLOTS if variant.text_mode == "sparse" else None
    if variant.text_mode == "dense":
        if paths.embedding is None:
            raise ConfigError("dense text mode needs an embedding table path")
        table = cp.load_embedding_table(paths.embedding)
        text_dim = table.dim
    # built before featurizing, so a bad model config fails before any WAV is read
    model = md.IntentClassifier(variant, cfg["features"].audio_dim, text_dim, seed=tcfg.seed,
                                **cfg["model"])
    examples, resolved = cp.featurize_corpus(records, cfg["features"], variant.text_mode, table,
                                             cache_dir=paths.cache_dir, base_dir=base_dir)

    train_set, test_set = tr.split_records(examples, tcfg.split_ratio, tcfg.seed,
                                           tcfg.group_by_script)
    epochs = tr.train(model, train_set, test_set, tcfg)
    _write_lines(os.path.join(out_dir, "log.csv"), tr.log_lines(epochs))
    held = {f"epoch_{r.epoch:03d}.ambi": r.checkpoint for r in epochs if r.checkpoint is not None}
    for name, state in held.items():
        ck.save_params(os.path.join(ckpt_dir, name), state)
    for name in os.listdir(ckpt_dir):  # a reused --out keeps no epoch of an earlier run
        if re.fullmatch(r"epoch_\d+\.ambi", name) and name not in held:
            os.remove(os.path.join(ckpt_dir, name))

    chosen = tr.select_checkpoint(epochs)
    model.load_state(chosen.checkpoint)
    md.save_model(os.path.join(out_dir, "selected.ambi"), model, resolved,
                  embedding_path=paths.embedding)
    report = tr.evaluate(model, test_set)
    ck.write_atomic(os.path.join(out_dir, "report.txt"),
                    (f"variant: {variant.tag}\ntext_mode: {variant.text_mode}\n"
                     f"selected_epoch: {chosen.epoch}\n" + tr.format_report(report)).encode())
    _write_plot_csvs(out_dir, report)
    print(f"selected epoch {chosen.epoch}: accuracy {report.accuracy:.4f}, "
          f"macro F1 {report.macro_f1:.4f} ({out_dir})")
    return 0


def _write_plot_csvs(out_dir: str, report: tr.EvalReport) -> None:
    for name, lines in (("per_class_f1.csv", tr.per_class_csv(report)),
                        ("confusion.csv", tr.confusion_csv(report, "true\\pred"))):
        _write_lines(os.path.join(out_dir, name), lines)


def _write_lines(path: str, lines: list[str]) -> None:
    ck.write_atomic(path, ("\n".join(lines) + "\n").encode())


def _checkpoint_table(path: str | None, meta: dict) -> ft.EmbeddingTable:
    """The embedding table of a dense checkpoint: path, else the sidecar's embedding_path."""
    path = path or meta.get("embedding_path")
    if path is None:
        raise ConfigError("dense checkpoint without an embedding table path")
    return cp.load_embedding_table(path)


def cmd_eval(args) -> int:
    model, fcfg, meta = md.load_model(args.checkpoint)
    paths = _load_config(args)["paths"]
    if paths.manifest is None:
        raise ConfigError("eval needs a manifest (flag or config)")
    records = cp.load_manifest(paths.manifest)
    base_dir = os.path.dirname(os.path.abspath(paths.manifest))
    table = _checkpoint_table(paths.embedding, meta) if meta["text_mode"] == "dense" else None
    examples, _ = cp.featurize_corpus(records, fcfg, meta["text_mode"], table,
                                      use_alt_transcript=args.use_alt_transcript,
                                      cache_dir=paths.cache_dir, base_dir=base_dir)
    report = tr.evaluate(model, examples)
    text = tr.format_report(report)
    if args.out:
        ck.write_atomic(args.out, text.encode())
    else:
        print(text, end="")
    return 0


def cmd_predict(args) -> int:
    model, fcfg, meta = md.load_model(args.checkpoint)
    variant, text_mode = meta["variant"], meta["text_mode"]
    if text_mode == "none" and args.transcript is not None:
        raise ConfigError(f"--transcript needs a text mode; variant {variant} reads no transcript")
    if text_mode != "none" and args.transcript is None:
        raise ConfigError(f"variant {variant} needs --transcript")
    if text_mode != "dense" and args.embedding is not None:
        raise ConfigError(f"--embedding needs a dense checkpoint; variant {variant} "
                          f"has text_mode {text_mode!r}")
    audio_fs = ft.audio_features(ft.read_wav(args.wav), fcfg)
    table = _checkpoint_table(args.embedding, meta) if text_mode == "dense" else None
    text_fs = cp.text_features(args.transcript, text_mode, table, fcfg.text_t_max)
    with tr._no_tape(model):
        probs, aux = model.forward(audio_fs, text=text_fs)
    out = {
        "label": cp.INTENT_LABELS[int(np.argmax(probs.data))],
        "probs": {name: float(p) for name, p in zip(cp.INTENT_LABELS, probs.data)},
        "attention": {key: weights.tolist() for key, weights in aux.items() if key != "logits"},
    }
    print(json.dumps(out, indent=1))
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambispeech",
        description="Intent classification for prosodically ambiguous speech.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-scripts", type=int, default=20)
    p.add_argument("--variants", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--types", default=None,
                   help="comma-separated script type cycle (ynwh,rqrc,decl,cmd)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featurize", help="fill the audio feature cache")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", dest="paths.manifest", metavar="MANIFEST")
    p.add_argument("--cache-dir", dest="paths.cache_dir", metavar="CACHE_DIR")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train one variant end to end")
    p.add_argument("--config", default=None)
    p.add_argument("--manifest", dest="paths.manifest", metavar="MANIFEST")
    p.add_argument("--out", dest="paths.out_dir", metavar="OUT", help="output directory")
    p.add_argument("--variant", default=None)
    p.add_argument("--text-mode", default=None)
    p.add_argument("--embedding", dest="paths.embedding", metavar="EMBEDDING")
    p.add_argument("--cache-dir", dest="paths.cache_dir", metavar="CACHE_DIR")
    p.add_argument("--seed", dest="train.seed", metavar="SEED", type=int)
    p.add_argument("--epochs", dest="train.max_epochs", metavar="EPOCHS", type=int)
    p.add_argument("--batch-size", dest="train.batch_size", metavar="BATCH_SIZE", type=int)
    p.add_argument("--lr", dest="train.learning_rate", metavar="LR", type=float)
    p.add_argument("--hidden", dest="model.hidden", metavar="HIDDEN", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", dest="paths.manifest", metavar="MANIFEST")
    p.add_argument("--config", default=None)
    p.add_argument("--embedding", dest="paths.embedding", metavar="EMBEDDING")
    p.add_argument("--cache-dir", dest="paths.cache_dir", metavar="CACHE_DIR")
    p.add_argument("--use-alt-transcript", action="store_true")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify one WAV (+ transcript)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--transcript", default=None)
    p.add_argument("--embedding", default=None)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ShapeError, LabelError, EmptyInputError, DegenerateMaskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
