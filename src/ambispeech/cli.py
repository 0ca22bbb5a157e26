"""Command-line surface: featurize, synth, train, eval, predict.

Configuration comes from an optional JSON file plus flag overrides; the
cache directory can also come from AMBISPEECH_CACHE_DIR (flag beats env
beats config). Exit codes: 0 success, 1 data error, 2 config error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ck
from . import corpus as cp
from . import features as ft
from . import models as md
from . import synth as sy
from . import training as tr
from .config import check_fields, read_section
from .errors import (ConfigError, DataError, DegenerateMaskError,
                     EmptyInputError, LabelError, ModalityError, ShapeError)

CACHE_ENV = "AMBISPEECH_CACHE_DIR"
_CACHE_VERSION = "ambf1"


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
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
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


def _cache_key(wav_bytes: bytes, fcfg: ft.FeatureConfig) -> str:
    tag = f"{_CACHE_VERSION}|{fcfg.sample_rate}|{fcfg.n_fft}|{fcfg.hop}|{fcfg.n_mels}|{fcfg.log_mel}|"
    return hashlib.sha256(tag.encode() + wav_bytes).hexdigest()


def _caching_frame_loader(fcfg: ft.FeatureConfig, cache_dir: str, base_dir: str,
                          counters: dict | None = None):
    """Frame loader for featurize_corpus that reads/writes the cache.

    The cache stores the unaligned frame matrix (all-ones mask), so one
    record serves any later t_max. An entry counts as reused only once it
    has loaded; a corrupt one is recomputed, overwritten and counted as
    computed.
    """
    os.makedirs(cache_dir, exist_ok=True)
    counters = {} if counters is None else counters

    def load(record: cp.UtteranceRecord) -> np.ndarray:
        path = os.path.join(base_dir, record.audio)
        with open(path, "rb") as fh:
            key = _cache_key(fh.read(), fcfg)
        entry = os.path.join(cache_dir, key + ".ambf")
        if os.path.exists(entry):
            try:
                rows = ft.load_feature_sequence(entry).valid_rows()
            except DataError:
                pass  # a corrupt entry is recomputed and overwritten below
            else:
                counters["reused"] = counters.get("reused", 0) + 1
                return rows
        mat = ft.audio_frame_matrix(ft.read_wav(path), fcfg)
        ft.save_feature_sequence(entry, ft.end_align(mat))
        counters["computed"] = counters.get("computed", 0) + 1
        return mat

    return load


def _featurize(records, fcfg, text_mode, table, cache_dir, base_dir, use_alt=False):
    loader = None if cache_dir is None else _caching_frame_loader(fcfg, cache_dir, base_dir)
    return cp.featurize_corpus(records, fcfg, text_mode, table=table,
                               use_alt_transcript=use_alt, frame_loader=loader,
                               base_dir=base_dir)


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
    loader = _caching_frame_loader(cfg["features"], paths.cache_dir, base_dir,
                                   counters := {"computed": 0, "reused": 0})
    failures = []
    for r in records:
        try:
            loader(r)
        except (DataError, OSError, ValueError) as exc:
            failures.append((r.id, str(exc)))
    print(f"featurized {len(records) - len(failures)}/{len(records)} records "
          f"(computed {counters['computed']}, reused {counters['reused']})")
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
    records = cp.load_manifest(paths.manifest)
    base_dir = os.path.dirname(os.path.abspath(paths.manifest))
    table = None
    if variant.text_mode == "dense":
        if paths.embedding is None:
            raise ConfigError("dense text mode needs an embedding table path")
        table = cp.load_embedding_table(paths.embedding)
    examples, resolved = _featurize(records, cfg["features"], variant.text_mode, table,
                                    paths.cache_dir, base_dir)
    text_dim = examples[0].text.dim if examples[0].text is not None else None
    model = md.IntentClassifier(variant, resolved.audio_dim, text_dim, seed=tcfg.seed,
                                **cfg["model"])
    out_dir = paths.out_dir
    if out_dir is None:
        raise ConfigError("train needs an output dir (flag or config)")
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)

    train_set, test_set = tr.split_records(examples, tcfg.split_ratio, tcfg.seed,
                                           tcfg.group_by_script)
    epochs = tr.train(model, train_set, test_set, tcfg)
    with open(os.path.join(out_dir, "log.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(tr.log_lines(epochs)) + "\n")
    for r in epochs:
        if r.checkpoint is not None:
            ck.save_params(os.path.join(ckpt_dir, f"epoch_{r.epoch:03d}.ambi"), r.checkpoint)

    chosen = tr.select_checkpoint(epochs)
    model.load_state(chosen.checkpoint)
    md.save_model(os.path.join(out_dir, "selected.ambi"), model, resolved,
                  embedding_path=paths.embedding)
    report = tr.evaluate(model, test_set)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"variant: {variant.tag}\ntext_mode: {variant.text_mode}\n"
                 f"selected_epoch: {chosen.epoch}\n" + tr.format_report(report))
    _write_plot_csvs(out_dir, report)
    print(f"selected epoch {chosen.epoch}: accuracy {report.accuracy:.4f}, "
          f"macro F1 {report.macro_f1:.4f} ({out_dir})")
    return 0


def _write_plot_csvs(out_dir: str, report: tr.EvalReport) -> None:
    for name, lines in (("per_class_f1.csv", tr.per_class_csv(report)),
                        ("confusion.csv", tr.confusion_csv(report, "true\\pred"))):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _checkpoint_table(args, meta: dict) -> ft.EmbeddingTable:
    """The embedding table of a dense checkpoint: --embedding, else the sidecar's path."""
    path = args.embedding or meta.get("embedding_path")
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
    table = _checkpoint_table(args, meta) if meta["text_mode"] == "dense" else None
    examples, _ = _featurize(records, fcfg, meta["text_mode"], table, paths.cache_dir, base_dir,
                             use_alt=args.use_alt_transcript)
    report = tr.evaluate(model, examples)
    text = tr.format_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_predict(args) -> int:
    model, fcfg, meta = md.load_model(args.checkpoint)
    signal = ft.read_wav(args.wav)
    audio_fs = ft.audio_features(signal, fcfg)
    text_fs = None
    if meta["text_mode"] != "none":
        if args.transcript is None:
            raise ConfigError(f"variant {meta['variant']} needs --transcript")
        if meta["text_mode"] == "sparse":
            text_fs = ft.encode_sparse(args.transcript, fcfg.text_t_max)
        else:
            text_fs = ft.encode_dense(args.transcript, _checkpoint_table(args, meta),
                                      fcfg.text_t_max)
    probs, aux = model.forward(audio_fs, text=text_fs)
    attention = {}
    for key, weights in aux.items():
        if key == "logits":
            continue
        n = text_fs.valid_len if key.startswith("text") else audio_fs.valid_len
        attention[key] = [float(w) for w in weights[-n:]]
    out = {
        "label": cp.INTENT_LABELS[int(np.argmax(probs.data))],
        "probs": {name: float(p) for name, p in zip(cp.INTENT_LABELS, probs.data)},
        "attention": attention,
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
    p.add_argument("--embedding", default=None)
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
    except (ConfigError, ModalityError, ShapeError, LabelError, EmptyInputError,
            DegenerateMaskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
