import contextlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ambispeech import autodiff as ad
from ambispeech import checkpoint as ck
from ambispeech import cli
from ambispeech import corpus as cp
from ambispeech import features as ft
from ambispeech import models as md
from ambispeech import training as tr
from ambispeech.errors import DataError


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["synth", "--out", str(root / "corpus"),
                     "--n-scripts", "6", "--seed", "1"]) == 0
    (root / "cfg.json").write_text(json.dumps({
        "features": {"n_mels": 8, "n_fft": 256, "hop": 128},
        "train": {"max_epochs": 3, "batch_size": 4, "split_ratio": 0.5},
        "model": {"hidden": 6, "head_hidden": 12},
    }), encoding="utf-8")
    return root


def manifest(corpus):
    return str(corpus / "corpus" / "manifest.tsv")


@pytest.fixture(scope="module")
def trained(corpus):
    out = corpus / "run"
    code = cli.main(["train", "--config", str(corpus / "cfg.json"),
                     "--manifest", manifest(corpus), "--cache-dir", str(corpus / "cache"),
                     "--out", str(out), "--variant", "mha_a", "--text-mode", "sparse",
                     "--seed", "3"])
    assert code == 0
    return out


# -------------------------------------------------------------------- synth


def test_synth_writes_corpus(corpus, capsys):
    assert cli.main(["synth", "--out", str(corpus / "again"),
                     "--n-scripts", "2", "--seed", "9"]) == 0
    assert "wrote 4 records" in capsys.readouterr().out
    assert (corpus / "again" / "manifest.tsv").exists()
    assert len(list((corpus / "again" / "wav").iterdir())) == 4


def test_synth_rejects_bad_types(corpus):
    assert cli.main(["synth", "--out", str(corpus / "nope"),
                     "--n-scripts", "2", "--types", "ynwh,zzz"]) == 2


def test_synth_rejects_a_negative_seed(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "corpus"),
                     "--n-scripts", "2", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


# ---------------------------------------------------------------- featurize


def test_featurize_fills_then_reuses_cache(corpus, capsys):
    cache = str(corpus / "feat_cache")
    argv = ["featurize", "--manifest", manifest(corpus), "--cache-dir", cache]
    assert cli.main(argv) == 0
    assert "computed 12, reused 0" in capsys.readouterr().out
    assert len(os.listdir(cache)) == 12
    assert cli.main(argv) == 0
    assert "computed 0, reused 12" in capsys.readouterr().out


def test_featurize_repairs_a_truncated_cache_entry(corpus, trained, capsys):
    cache = corpus / "cache"
    victim = sorted(cache.iterdir())[0]
    raw = victim.read_bytes()
    victim.write_bytes(raw[: len(raw) // 2])
    assert cli.main(["featurize", "--config", str(corpus / "cfg.json"),
                     "--manifest", manifest(corpus), "--cache-dir", str(cache)]) == 0
    assert "featurized 12/12 records (computed 1, reused 11)" in capsys.readouterr().out
    assert victim.read_bytes() == raw
    ft.load_feature_sequence(victim)
    victim.write_bytes(raw[: len(raw) // 2])
    assert cli.main(["eval", "--checkpoint", str(trained / "selected.ambi"),
                     "--manifest", manifest(corpus), "--cache-dir", str(cache)]) == 0
    assert capsys.readouterr().out.startswith("accuracy: ")
    assert victim.read_bytes() == raw


def test_eval_repairs_a_non_finite_cache_entry(corpus, trained, tmp_path, capsys):
    cache = tmp_path / "cache"
    shutil.copytree(corpus / "cache", cache)
    argv = ["eval", "--checkpoint", str(trained / "selected.ambi"),
            "--manifest", manifest(corpus), "--cache-dir", str(cache)]
    assert cli.main(argv) == 0
    clean = capsys.readouterr().out
    victim = sorted(cache.iterdir())[0]
    raw = victim.read_bytes()
    poisoned = bytearray(raw)
    poisoned[len(ft._CACHE_MAGIC) + 8 : len(ft._CACHE_MAGIC) + 16] = struct.pack("<d", np.nan)
    victim.write_bytes(bytes(poisoned))
    with pytest.raises(DataError, match="non-finite"):
        ft.load_feature_sequence(victim)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == clean
    assert victim.read_bytes() == raw


def test_featurize_reports_unreadable_wavs(corpus, capsys, tmp_path):
    bad = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(bad), "--n-scripts", "2", "--seed", "2"]) == 0
    wavs = sorted((bad / "wav").iterdir())
    wavs[0].write_bytes(b"not a wav file")
    code = cli.main(["featurize", "--manifest", str(bad / "manifest.tsv"),
                     "--cache-dir", str(tmp_path / "cache")])
    captured = capsys.readouterr()
    assert code == 1
    assert "featurized 3/4" in captured.out
    assert "FAILED syn0000a" in captured.err


def test_featurize_accepts_a_bom_prefixed_manifest(corpus, capsys, tmp_path):
    bom = corpus / "corpus" / "bom_manifest.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(manifest(corpus)).read_bytes())
    assert cli.main(["featurize", "--manifest", str(bom),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "featurized 12/12 records" in capsys.readouterr().out


def test_featurize_requires_cache_dir_and_manifest(corpus):
    assert cli.main(["featurize", "--manifest", manifest(corpus)]) == 2
    assert cli.main(["featurize", "--cache-dir", str(corpus / "c")]) == 2
    assert cli.main(["featurize", "--manifest", str(corpus / "absent.tsv"),
                     "--cache-dir", str(corpus / "c")]) == 1


def test_library_and_cli_share_cache_entries(corpus, capsys, tmp_path):
    cache = tmp_path / "shared"
    records = cp.load_manifest(manifest(corpus))
    cp.featurize_corpus(records, ft.FeatureConfig(n_mels=8, n_fft=256, hop=128), "none",
                        cache_dir=str(cache), base_dir=str(corpus / "corpus"))
    assert len(os.listdir(cache)) == 12
    assert cli.main(["featurize", "--config", str(corpus / "cfg.json"),
                     "--manifest", manifest(corpus), "--cache-dir", str(cache)]) == 0
    assert "featurized 12/12 records (computed 0, reused 12)" in capsys.readouterr().out


def test_featurize_into_a_file_is_one_error(corpus, capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("x", encoding="utf-8")
    assert cli.main(["featurize", "--manifest", manifest(corpus),
                     "--cache-dir", str(not_a_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cache_dir_precedence(corpus, monkeypatch, tmp_path):
    env_cache, flag_cache = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv(cli.CACHE_ENV, str(env_cache))
    assert cli.main(["featurize", "--manifest", manifest(corpus)]) == 0
    assert len(os.listdir(env_cache)) == 12
    assert cli.main(["featurize", "--manifest", manifest(corpus),
                     "--cache-dir", str(flag_cache)]) == 0
    assert len(os.listdir(flag_cache)) == 12
    assert len(os.listdir(env_cache)) == 12  # untouched: the flag won


# -------------------------------------------------------------------- train


def test_train_writes_artifacts(corpus, trained):
    log = (trained / "log.csv").read_text(encoding="utf-8").splitlines()
    assert log[0] == "epoch,acc,f1,loss"
    assert len(log) == 4
    assert sorted(os.listdir(trained / "checkpoints")) == [
        "epoch_001.ambi", "epoch_002.ambi", "epoch_003.ambi"]
    assert (trained / "selected.ambi").exists()
    meta = json.loads((trained / "selected.ambi.json").read_text(encoding="utf-8"))
    assert meta["variant"] == "mha_a"
    assert meta["text_mode"] == "sparse"
    report = (trained / "report.txt").read_text(encoding="utf-8").splitlines()
    assert report[0] == "variant: mha_a"
    assert report[1] == "text_mode: sparse"
    assert report[2].startswith("selected_epoch: ")
    f1_rows = (trained / "per_class_f1.csv").read_text(encoding="utf-8").splitlines()
    assert f1_rows[0] == "class,precision,recall,f1"
    assert len(f1_rows) == 8
    conf_rows = (trained / "confusion.csv").read_text(encoding="utf-8").splitlines()
    assert len(conf_rows) == 8
    assert sum(int(x) for row in conf_rows[1:] for x in row.split(",")[1:]) == 6


def test_train_into_a_reused_out_keeps_only_its_own_epochs(corpus, tmp_path):
    out, ckpts = tmp_path / "run", tmp_path / "run" / "checkpoints"

    def train(epochs):
        assert cli.main(["train", "--config", str(corpus / "cfg.json"),
                         "--manifest", manifest(corpus), "--cache-dir", str(corpus / "cache"),
                         "--out", str(out), "--variant", "audio_bre", "--seed", "3",
                         "--epochs", epochs]) == 0

    train("7")
    assert len(os.listdir(ckpts)) == 5
    (ckpts / "notes.txt").write_text("mine")
    (ckpts / "epoch_004.ambi.bak").write_text("mine")
    train("2")
    assert sorted(os.listdir(ckpts)) == [
        "epoch_001.ambi", "epoch_002.ambi", "epoch_004.ambi.bak", "notes.txt"]


def test_train_same_seed_reproduces_log(corpus, trained):
    out2 = corpus / "run2"
    assert cli.main(["train", "--config", str(corpus / "cfg.json"),
                     "--manifest", manifest(corpus), "--cache-dir", str(corpus / "cache"),
                     "--out", str(out2), "--variant", "mha_a", "--text-mode", "sparse",
                     "--seed", "3"]) == 0
    assert (out2 / "log.csv").read_bytes() == (trained / "log.csv").read_bytes()


def test_train_without_cache_matches_cached_run(corpus, trained, tmp_path):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(corpus / "cfg.json"),
                     "--manifest", manifest(corpus), "--out", str(out),
                     "--variant", "mha_a", "--text-mode", "sparse", "--seed", "3"]) == 0
    for name in ("log.csv", "report.txt", "selected.ambi"):
        assert (out / name).read_bytes() == (trained / name).read_bytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_stops_on_non_finite_features(corpus, tmp_path, capsys, monkeypatch):
    # the cache loader repairs a non-finite entry, so the inf enters where frames are computed
    real = ft.audio_frame_matrix

    def poisoned(signal, cfg):
        mat = real(signal, cfg)
        mat[-1, 0] = np.inf
        return mat

    monkeypatch.setattr(ft, "audio_frame_matrix", poisoned)
    assert cli.main(["train", "--config", str(corpus / "cfg.json"),
                     "--manifest", manifest(corpus), "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(tmp_path / "run"), "--variant", "audio_bre"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: epoch 1, batch 0:") and err.count("\n") == 1


def test_train_flag_overrides_config(corpus, capsys):
    out = corpus / "run_short"
    assert cli.main(["train", "--config", str(corpus / "cfg.json"),
                     "--manifest", manifest(corpus), "--cache-dir", str(corpus / "cache"),
                     "--out", str(out), "--variant", "audio_bre", "--epochs", "1"]) == 0
    capsys.readouterr()
    log = (out / "log.csv").read_text(encoding="utf-8").splitlines()
    assert len(log) == 2  # config said 3 epochs, the flag said 1


def test_train_config_errors(corpus, tmp_path, capsys):
    base = ["train", "--manifest", manifest(corpus), "--cache-dir", str(corpus / "cache"),
            "--out", str(tmp_path / "x")]
    assert cli.main(base + ["--variant", "banana"]) == 2
    assert cli.main(base) == 2  # no variant anywhere

    cfg = tmp_path / "bad.json"
    cfg.write_text('{"optimizer": {}}', encoding="utf-8")
    assert cli.main(base + ["--variant", "audio_bre", "--config", str(cfg)]) == 2
    cfg.write_text('{"train": {"momentum": 0.9}}', encoding="utf-8")
    assert cli.main(base + ["--variant", "audio_bre", "--config", str(cfg)]) == 2
    cfg.write_text('{"model": {"layers": 2}}', encoding="utf-8")
    assert cli.main(base + ["--variant", "audio_bre", "--config", str(cfg)]) == 2
    cfg.write_text("{oops", encoding="utf-8")
    assert cli.main(base + ["--variant", "audio_bre", "--config", str(cfg)]) == 2
    for features in ({"hop": "abc"}, {"n_mels": True}, {"audio_t_max": 1.5},
                     {"log_mel": "yes"}):
        cfg.write_text(json.dumps({"features": features}), encoding="utf-8")
        assert cli.main(base + ["--variant", "audio_bre", "--config", str(cfg)]) == 2
    capsys.readouterr()
    one_epoch = {"max_epochs": 1}  # a value no check rejects trains one epoch, then fails here
    for section in ({"train": {"max_epochs": "3"}}, {"train": {"split_ratio": "0.5"}},
                    {"train": {"batch_size": 2.5}}, {"train": {"seed": -1}},
                    {"train": {"learning_rate": True}}, {"train": {"group_by_script": 1}},
                    {"model": {"hidden": "8"}}, {"model": {"hidden": 0}},
                    {"model": {"head_hidden": True}},
                    {"train": {**one_epoch, "beta1": 1.0}}, {"train": {**one_epoch, "beta2": 1.5}},
                    {"train": {**one_epoch, "eps": 0}},
                    {"train": {**one_epoch, "learning_rate": float("nan")}},
                    {"train": {**one_epoch, "learning_rate": float("inf")}},
                    {"features": 5}, {"train": 5}, {"model": 5}, {"paths": 5},
                    {"train": one_epoch, "paths": {"cachedir": "x"}}):
        cfg.write_text(json.dumps(section), encoding="utf-8")
        assert cli.main(base + ["--variant", "audio_bre", "--config", str(cfg)]) == 2, section
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (section, err)
    # no --cache-dir: the flag would replace the config's cache_dir 5 before it is checked
    no_cache = ["train", "--manifest", manifest(corpus), "--out", str(tmp_path / "x")]
    for config, flags in (({"variant": 5}, []), ({"variant": "audio_bre", "text_mode": 7}, []),
                          ({"paths": {"cache_dir": 5}}, ["--variant", "audio_bre"]),
                          ({}, ["--variant", "audio_bre", "--epochs", "1", "--hidden", "0"]),
                          ({}, ["--variant", "audio_bre", "--epochs", "1", "--lr", "nan"])):
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(no_cache + flags + ["--config", str(cfg)]) == 2, (config, flags)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (config, flags, err)
    # a wrong-typed variant or text mode is named by its config key
    for config, says in (({"variant": 5}, "variant must be a string, got 5"),
                         ({"variant": "ca", "text_mode": 7}, "text_mode must be a string, got 7")):
        cfg.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(no_cache + ["--config", str(cfg)]) == 2, config
        assert capsys.readouterr().err == f"error: {says}\n"
    cfg.write_bytes(b"\xef\xbb\xbf{}")  # unlike a manifest's, a config's BOM is not skipped
    assert cli.main(no_cache + ["--variant", "audio_bre", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: config {cfg} is not valid JSON: Unexpected UTF-8 "
                                       "BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n")
    assert cli.main(base + ["--variant", "audio_bre",
                            "--config", str(tmp_path / "ghost.json")]) == 1
    capsys.readouterr()
    for argv, says in ((["train", "--out", str(tmp_path / "x"), "--variant", "audio_bre"],
                        "train needs a manifest (flag or config)"),
                       (base + ["--variant", "mha_a", "--text-mode", "dense"],
                        "dense text mode needs an embedding table path")):
        assert cli.main(argv) == 2, says
        assert capsys.readouterr() == ("", f"error: {says}\n")


def test_train_without_out_fails_before_featurizing(corpus, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert cli.main(["train", "--manifest", manifest(corpus), "--cache-dir", str(cache),
                     "--variant", "mha_a", "--text-mode", "sparse"]) == 2
    assert capsys.readouterr().err == "error: train needs an output dir (flag or config)\n"
    assert not cache.exists() or not any(cache.iterdir())


def test_train_into_a_file_fails_before_featurizing(corpus, tmp_path, capsys):
    cache, afile = tmp_path / "cache", tmp_path / "afile"
    afile.write_text("not a directory\n", encoding="utf-8")
    assert cli.main(["train", "--manifest", manifest(corpus), "--cache-dir", str(cache),
                     "--out", str(afile), "--variant", "audio_bre"]) == 1
    says = f"error: [Errno 20] Not a directory: '{afile / 'checkpoints'}'\n"
    assert capsys.readouterr().err == says
    assert not cache.exists() or not any(cache.iterdir())


def test_train_with_a_bad_model_config_fails_before_featurizing(corpus, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert cli.main(["train", "--manifest", manifest(corpus), "--cache-dir", str(cache),
                     "--out", str(tmp_path / "run"), "--variant", "ca", "--text-mode", "sparse",
                     "--hidden", "0"]) == 2
    assert capsys.readouterr().err == "error: 'hidden' must be a positive integer, got 0\n"
    assert not cache.exists() or not any(cache.iterdir())


def train_one_epoch(corpus, out):
    return cli.main(["train", "--config", str(corpus / "cfg.json"), "--manifest",
                     manifest(corpus), "--cache-dir", str(corpus / "cache"), "--out", str(out),
                     "--variant", "audio_bre", "--epochs", "1"])


def test_every_file_train_and_eval_write_goes_through_write_atomic(corpus, tmp_path,
                                                                   monkeypatch):
    written = []
    real = ck.write_atomic

    def spy(path, data):
        written.append(os.path.abspath(path))
        real(path, data)

    monkeypatch.setattr(ck, "write_atomic", spy)
    synth, out, cache = tmp_path / "synth", tmp_path / "run", tmp_path / "cache"
    report, table = tmp_path / "eval.txt", tmp_path / "table.txt"
    assert cli.main(["synth", "--out", str(synth), "--n-scripts", "2", "--seed", "2"]) == 0
    cp.save_embedding_table(table, ft.EmbeddingTable({"가": np.ones(2)}, 2))
    assert cli.main(["train", "--config", str(corpus / "cfg.json"), "--manifest",
                     manifest(corpus), "--cache-dir", str(cache), "--out", str(out),
                     "--variant", "audio_bre", "--epochs", "1"]) == 0
    assert cli.main(["eval", "--checkpoint", str(out / "selected.ambi"), "--manifest",
                     manifest(corpus), "--cache-dir", str(cache), "--out", str(report)]) == 0

    def on_disk(root):
        return {os.path.abspath(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs}

    assert len(on_disk(out)) == 7  # log, report, two CSVs, model, sidecar, one epoch checkpoint
    assert len(on_disk(synth)) == 5  # the manifest and four WAVs
    assert len(on_disk(cache)) == 12  # one frame-cache entry per WAV of the corpus
    assert sorted(written) == sorted(on_disk(out) | on_disk(synth) | on_disk(cache)
                                     | {str(report), str(table)})


def test_readme_config_passes_the_config_checks(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    (tmp_path / "cfg.json").write_text(json.dumps(block), encoding="utf-8")
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    cfg = cli._load_config(cli.build_parser().parse_args(["train", "--config",
                                                          str(tmp_path / "cfg.json")]))
    variant = md.ModelVariant.parse(cfg["variant"], cfg["text_mode"])
    model = md.IntentClassifier(variant, audio_dim=cfg["features"].audio_dim, text_dim=69,
                                **cfg["model"])
    assert (variant.tag, variant.text_mode) == (block["variant"], block["text_mode"])
    assert (model.hidden, model.head_hidden) == (block["model"]["hidden"],
                                                 block["model"]["head_hidden"])
    for section in ("features", "train", "paths"):
        for key, value in block[section].items():
            assert getattr(cfg[section], key) == value, (section, key)


# --------------------------------------------------------------------- eval


def test_eval_prints_report(corpus, trained, capsys):
    assert cli.main(["eval", "--checkpoint", str(trained / "selected.ambi"),
                     "--manifest", manifest(corpus),
                     "--cache-dir", str(corpus / "cache")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy: ")
    assert "n_records: 12" in out


def test_eval_writes_report_file(corpus, trained, tmp_path):
    dest = tmp_path / "report.txt"
    assert cli.main(["eval", "--checkpoint", str(trained / "selected.ambi"),
                     "--manifest", manifest(corpus), "--cache-dir", str(corpus / "cache"),
                     "--out", str(dest)]) == 0
    assert dest.read_text(encoding="utf-8").startswith("accuracy: ")


def test_eval_alt_transcript_needs_alt_column(corpus, trained):
    assert cli.main(["eval", "--checkpoint", str(trained / "selected.ambi"),
                     "--manifest", manifest(corpus), "--cache-dir", str(corpus / "cache"),
                     "--use-alt-transcript"]) == 2


def test_eval_alt_transcript_fails_before_featurizing(corpus, trained, tmp_path, capsys):
    cache = tmp_path / "cache"
    assert cli.main(["eval", "--checkpoint", str(trained / "selected.ambi"),
                     "--manifest", manifest(corpus), "--cache-dir", str(cache),
                     "--use-alt-transcript"]) == 2
    assert capsys.readouterr().err == "error: record syn0000a has no alt_transcript\n"
    assert not cache.exists() or not any(cache.iterdir())


def test_eval_alt_transcript_on_an_audio_only_checkpoint_fails(corpus, tmp_path, capsys):
    assert train_one_epoch(corpus, tmp_path / "run") == 0
    capsys.readouterr()
    cache = tmp_path / "cache"
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "selected.ambi"),
                     "--manifest", manifest(corpus), "--cache-dir", str(cache),
                     "--use-alt-transcript"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: use_alt_transcript needs a text mode; "
                            "text_mode 'none' reads no transcript\n")
    assert not cache.exists() or not any(cache.iterdir())


_MISSING = object()


@pytest.mark.parametrize("key, value, says", [
    ("hidden", _MISSING, "'hidden'"),
    ("hidden", "abc", "'hidden'"),
    ("hidden", 0, "'hidden'"),
    ("head_hidden", True, "'head_hidden'"),
    ("audio_dim", 12.5, "'audio_dim'"),
    ("text_dim", "64", "'text_dim'"),
    ("variant", 3, "variant must be a string, got 3"),
    ("text_mode", None, "text_mode must be a string, got None"),
    ("variant", "banana", "unknown variant 'banana'"),
    ("text_mode", "dense2", "unknown text mode 'dense2'"),
    ("text_dim", None, "mha_a needs text_dim"),
    ("features", {"hop": 0}, "hop must be positive"),
    ("features", {"hop": "abc"}, "hop must be an integer"),
    ("features", {"log_mel": 1}, "log_mel must be true or false"),
    ("features", {"window": "hann"}, "unknown feature config keys"),
    ("features", {"audio_t_max": 0}, "audio_t_max must be >= 1 or null"),
    ("labels", list(reversed(cp.INTENT_LABELS)), "carries an unknown label order"),
], ids=["hidden-missing", "hidden-str", "hidden-zero", "head_hidden-bool", "audio_dim-float",
        "text_dim-str", "variant-int", "text_mode-null", "variant-unknown", "text_mode-unknown",
        "text_dim-null-needs-text", "features-hop-zero", "features-hop-str",
        "features-log_mel-int", "features-unknown-key", "features-audio_t_max-zero",
        "labels-reordered"])
def test_eval_rejects_sidecar_without_hidden(corpus, trained, tmp_path, capsys, key, value, says):
    ckpt = tmp_path / "m.ambi"
    ckpt.write_bytes((trained / "selected.ambi").read_bytes())
    meta = json.loads((trained / "selected.ambi.json").read_text(encoding="utf-8"))
    if value is _MISSING:
        del meta[key]
    else:
        meta[key] = value
    (tmp_path / "m.ambi.json").write_text(json.dumps(meta), encoding="utf-8")
    wav = str(corpus / "corpus" / "wav" / "syn0000a.wav")
    for argv in (["eval", "--checkpoint", str(ckpt), "--manifest", manifest(corpus),
                  "--cache-dir", str(corpus / "cache")],
                 ["predict", "--checkpoint", str(ckpt), "--wav", wav, "--transcript", "가나"]):
        assert cli.main(argv) == 1, argv[0]
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and says in err
        assert err.count("\n") == 1 and out == ""


def test_eval_rejects_a_non_object_sidecar_and_a_missing_manifest(trained, tmp_path, capsys):
    ckpt = tmp_path / "m.ambi"
    ckpt.write_bytes((trained / "selected.ambi").read_bytes())
    (tmp_path / "m.ambi.json").write_text("[1, 2]", encoding="utf-8")
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", "unused.tsv"]) == 1
    assert capsys.readouterr() == ("", f"error: sidecar {ckpt}.json must hold a JSON object\n")
    assert cli.main(["eval", "--checkpoint", str(trained / "selected.ambi")]) == 2
    assert capsys.readouterr() == ("", "error: eval needs a manifest (flag or config)\n")


@pytest.mark.parametrize("which, code", [("manifest", 1), ("embedding", 1), ("config", 2),
                                         ("sidecar", 1)])
def test_non_utf8_text_file_is_one_error(corpus, trained, tmp_path, capsys, which, code):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\n")
    ckpt = tmp_path / "m.ambi"
    ckpt.write_bytes((trained / "selected.ambi").read_bytes())
    (tmp_path / "m.ambi.json").write_bytes(b"\xff\n")
    train = ["train", "--manifest", manifest(corpus), "--out", str(tmp_path / "run"),
             "--variant", "mha_a"]
    argv = {
        "manifest": ["featurize", "--manifest", str(bad), "--cache-dir", str(tmp_path / "c")],
        "embedding": train + ["--text-mode", "dense", "--embedding", str(bad)],
        "config": train + ["--text-mode", "sparse", "--config", str(bad)],
        "sidecar": ["eval", "--checkpoint", str(ckpt), "--manifest", manifest(corpus)],
    }[which]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_predict_on_a_corrupt_checkpoint_name_is_one_error(corpus, trained, tmp_path, capsys):
    ckpt = tmp_path / "m.ambi"
    raw = bytearray((trained / "selected.ambi").read_bytes())
    raw[len(b"AMBI1") + 4 + 2] = 0xFF  # first byte of the first parameter name
    ckpt.write_bytes(bytes(raw))
    (tmp_path / "m.ambi.json").write_bytes((trained / "selected.ambi.json").read_bytes())
    wav = str(corpus / "corpus" / "wav" / "syn0000a.wav")
    assert cli.main(["predict", "--checkpoint", str(ckpt), "--wav", wav,
                     "--transcript", "가나"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "not UTF-8" in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_a_non_finite_checkpoint_is_one_error(corpus, trained, tmp_path, capsys, command):
    params = ck.load_params(trained / "selected.ambi")
    name = sorted(params)[0]
    params[name].flat[0] = np.nan
    ckpt = tmp_path / "m.ambi"
    ck.save_params(ckpt, params)
    (tmp_path / "m.ambi.json").write_bytes((trained / "selected.ambi.json").read_bytes())
    argv = [command, "--checkpoint", str(ckpt)]
    if command == "eval":
        argv += ["--manifest", manifest(corpus), "--cache-dir", str(corpus / "cache")]
    else:
        argv += ["--wav", str(corpus / "corpus" / "wav" / "syn0000a.wav"), "--transcript", "가나"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {ckpt}: parameter {name} holds a non-finite value\n"


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_zero_sample_wav_is_a_data_error(corpus, trained, tmp_path, capsys, command):
    bad = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(bad), "--n-scripts", "2", "--seed", "2"]) == 0
    wav = sorted((bad / "wav").iterdir())[0]
    ft.write_wav(wav, ft.AudioSignal(np.zeros(0), 16000))
    capsys.readouterr()
    argv = [command, "--checkpoint", str(trained / "selected.ambi")]
    if command == "eval":
        argv += ["--manifest", str(bad / "manifest.tsv")]
    else:
        argv += ["--wav", str(wav), "--transcript", "가나 다라까"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "holds no samples" in err


@pytest.mark.parametrize("command", ["featurize", "predict"])
def test_a_wav_the_parser_rejects_is_one_error(corpus, trained, tmp_path, capsys, command):
    bad = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(bad), "--n-scripts", "2", "--seed", "2"]) == 0
    wav = sorted((bad / "wav").iterdir())[0]
    raw = bytearray(wav.read_bytes())
    raw[16] = 0xFF  # the fmt chunk's size: wave's chunk reader raises RuntimeError
    wav.write_bytes(bytes(raw))
    capsys.readouterr()
    if command == "featurize":
        argv = ["featurize", "--manifest", str(bad / "manifest.tsv"),
                "--cache-dir", str(tmp_path / "cache")]
    else:
        argv = ["predict", "--checkpoint", str(trained / "selected.ambi"), "--wav", str(wav),
                "--transcript", "가나 다라까"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    prefix = f"FAILED {wav.stem}: " if command == "featurize" else "error: "
    assert err.startswith(prefix + f"cannot read wav {wav}: ") and err.count("\n") == 1, err


def test_a_checkpoint_of_too_many_dimensions_is_one_error(corpus, tmp_path, capsys, trained):
    ckpt = tmp_path / "m.ambi"
    name = b"w"
    ckpt.write_bytes(b"AMBI1" + struct.pack("<IH", 1, len(name)) + name
                     + struct.pack("<B65I", 65, *[1] * 65) + struct.pack("<d", 0.5))
    (tmp_path / "m.ambi.json").write_bytes((trained / "selected.ambi.json").read_bytes())
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", manifest(corpus),
                     "--cache-dir", str(corpus / "cache")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: parameter w has 65 dimensions (at most 32)\n"


def test_a_checkpoint_name_with_a_line_break_is_one_error(corpus, tmp_path, capsys, trained):
    ckpt = tmp_path / "m.ambi"
    raw = bytearray((trained / "selected.ambi").read_bytes())
    first_name = 5 + 4 + 2  # magic, count, the first name's length
    raw[first_name + 3] = ord("\n")
    ckpt.write_bytes(bytes(raw))
    (tmp_path / "m.ambi.json").write_bytes((trained / "selected.ambi.json").read_bytes())
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", manifest(corpus),
                     "--cache-dir", str(corpus / "cache")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {ckpt}: a parameter name at byte {first_name} is not printable\n"


def test_eval_missing_checkpoint(corpus):
    assert cli.main(["eval", "--checkpoint", str(corpus / "ghost.ambi"),
                     "--manifest", manifest(corpus)]) == 1


# ------------------------------------------------------------------ predict


def test_predict_emits_distribution_and_attention(corpus, trained, capsys):
    wav = str(corpus / "corpus" / "wav" / "syn0000a.wav")
    transcript = "가나 다라까"
    assert cli.main(["predict", "--checkpoint", str(trained / "selected.ambi"),
                     "--wav", wav, "--transcript", transcript]) == 0
    out = json.loads(capsys.readouterr().out)
    probs = out["probs"]
    assert set(probs) == {"S", "YN", "WH", "RQ", "C", "R", "RC"}
    assert abs(sum(probs.values()) - 1.0) < 1e-9
    assert out["label"] == max(probs, key=probs.get)
    assert set(out["attention"]) == {"audio_self", "text_cross"}
    assert len(out["attention"]["text_cross"]) == len(transcript)
    meta = json.loads((trained / "selected.ambi.json").read_text(encoding="utf-8"))
    fcfg = ft.FeatureConfig(**meta["features"])
    n_frames = ft.audio_frame_matrix(ft.read_wav(wav), fcfg).shape[0]
    assert len(out["attention"]["audio_self"]) == min(n_frames, fcfg.audio_t_max)
    for weights in out["attention"].values():
        assert abs(sum(weights) - 1.0) < 1e-6
        assert all(w >= 0.0 for w in weights)


def test_predict_records_no_tape(corpus, trained, capsys, monkeypatch):
    wav = str(corpus / "corpus" / "wav" / "syn0000a.wav")
    argv = ["predict", "--checkpoint", str(trained / "selected.ambi"),
            "--wav", wav, "--transcript", "가나 다라까"]
    recorded = []
    real_node = ad._node

    def spy(data, parents, backward):
        out = real_node(data, parents, backward)
        recorded.append(out.requires_grad)
        return out

    monkeypatch.setattr(ad, "_node", spy)
    assert cli.main(argv) == 0
    untaped = capsys.readouterr().out
    assert recorded and not any(recorded)

    recorded.clear()
    monkeypatch.setattr(tr, "_no_tape", lambda model: contextlib.nullcontext())
    assert cli.main(argv) == 0
    assert any(recorded)  # the spy does see a taped forward
    assert capsys.readouterr().out == untaped


def test_predict_requires_transcript_for_text_models(corpus, trained):
    wav = str(corpus / "corpus" / "wav" / "syn0000a.wav")
    assert cli.main(["predict", "--checkpoint", str(trained / "selected.ambi"),
                     "--wav", wav]) == 2


@pytest.mark.parametrize("flag", ["--transcript", "--embedding"])
def test_predict_rejects_a_flag_its_checkpoint_cannot_read(corpus, trained, tmp_path, capsys,
                                                           flag):
    if flag == "--transcript":  # an audio-only checkpoint reads no transcript
        assert train_one_epoch(corpus, tmp_path / "run") == 0
        argv = ["--checkpoint", str(tmp_path / "run" / "selected.ambi"), "--transcript", "가나"]
        says = "--transcript needs a text mode; variant audio_bre reads no transcript"
    else:  # a sparse checkpoint reads no embedding table
        argv = ["--checkpoint", str(trained / "selected.ambi"), "--transcript", "가나",
                "--embedding", str(tmp_path / "ghost.txt")]
        says = "--embedding needs a dense checkpoint; variant mha_a has text_mode 'sparse'"
    capsys.readouterr()
    # the WAV does not exist, so exit 2 also shows the check ran before any WAV read
    assert cli.main(["predict", "--wav", str(tmp_path / "ghost.wav"), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {says}\n"


def test_dense_checkpoint_needs_an_embedding_table(corpus, trained, tmp_path, capsys):
    ckpt = tmp_path / "d.ambi"
    ckpt.write_bytes((trained / "selected.ambi").read_bytes())
    meta = json.loads((trained / "selected.ambi.json").read_text(encoding="utf-8"))
    meta["text_mode"] = "dense"
    (tmp_path / "d.ambi.json").write_text(json.dumps(meta), encoding="utf-8")
    wav = str(corpus / "corpus" / "wav" / "syn0000a.wav")
    for argv in (["eval", "--checkpoint", str(ckpt), "--manifest", manifest(corpus),
                  "--cache-dir", str(corpus / "cache")],
                 ["predict", "--checkpoint", str(ckpt), "--wav", wav, "--transcript", "가나"]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: dense checkpoint without an embedding table path\n"


def test_eval_reads_the_embedding_path_from_flag_then_config_then_sidecar(corpus, trained,
                                                                         tmp_path, capsys):
    ckpt, table, cfg = tmp_path / "d.ambi", tmp_path / "table.txt", tmp_path / "cfg.json"
    ckpt.write_bytes((trained / "selected.ambi").read_bytes())
    meta = json.loads((trained / "selected.ambi.json").read_text(encoding="utf-8"))
    cp.save_embedding_table(table, ft.EmbeddingTable({"가": np.ones(meta["text_dim"])},
                                                     meta["text_dim"]))
    ghost = str(tmp_path / "ghost.txt")
    reports = []
    for sidecar_path, config_path, flag in ((None, str(table), []),
                                            (ghost, str(table), []),
                                            (ghost, ghost, ["--embedding", str(table)])):
        (tmp_path / "d.ambi.json").write_text(json.dumps(
            {**meta, "text_mode": "dense", "embedding_path": sidecar_path}), encoding="utf-8")
        cfg.write_text(json.dumps({"paths": {"embedding": config_path}}), encoding="utf-8")
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", manifest(corpus),
                         "--cache-dir", str(corpus / "cache"), "--config", str(cfg)]
                        + flag) == 0, (sidecar_path, config_path, flag)
        reports.append(capsys.readouterr().out)
    assert reports[0] and reports.count(reports[0]) == 3


@pytest.mark.parametrize("command, cached", [("featurize", True), ("train", True),
                                             ("train", False), ("eval", True), ("eval", False)])
def test_a_missing_wav_is_the_same_line_everywhere(corpus, trained, tmp_path, capsys,
                                                   command, cached):
    bad = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(bad), "--n-scripts", "2", "--seed", "2"]) == 0
    wav = bad / "wav" / "syn0000a.wav"
    wav.unlink()
    capsys.readouterr()
    argv = {
        "featurize": ["featurize"],
        "train": ["train", "--config", str(corpus / "cfg.json"), "--out", str(tmp_path / "run"),
                  "--variant", "audio_bre", "--epochs", "1"],
        "eval": ["eval", "--checkpoint", str(trained / "selected.ambi")],
    }[command] + ["--manifest", str(bad / "manifest.tsv")]
    if cached:
        argv += ["--cache-dir", str(tmp_path / "cache")]
    assert cli.main(argv) == 1
    says = f"cannot read wav {wav}: [Errno 2] No such file or directory: '{wav}'\n"
    prefix = "FAILED syn0000a: " if command == "featurize" else "error: "
    assert capsys.readouterr().err == prefix + says


# ------------------------------------------------------------- entry points


# Every option string of each subcommand and every config key. A change that
# adds or drops a knob edits these lists.
OPTIONS = {
    "synth": ["--n-scripts", "--out", "--seed", "--types", "--variants"],
    "featurize": ["--cache-dir", "--config", "--manifest"],
    "train": ["--batch-size", "--cache-dir", "--config", "--embedding", "--epochs", "--hidden",
              "--lr", "--manifest", "--out", "--seed", "--text-mode", "--variant"],
    "eval": ["--cache-dir", "--checkpoint", "--config", "--embedding", "--manifest", "--out",
             "--use-alt-transcript"],
    "predict": ["--checkpoint", "--embedding", "--transcript", "--wav"],
}
CONFIG_KEYS = {
    "top-level": ["text_mode", "variant"],
    "features": ["audio_t_max", "hop", "log_mel", "n_fft", "n_mels", "sample_rate",
                 "text_t_max"],
    "train": ["batch_size", "beta1", "beta2", "eps", "group_by_script", "learning_rate",
              "max_epochs", "seed", "split_ratio"],
    "model": ["head_hidden", "hidden"],
    "paths": ["cache_dir", "embedding", "manifest", "out_dir"],
}


def test_the_cli_has_exactly_the_pinned_knobs():
    sub = next(a for a in cli.build_parser()._actions if a.choices)
    options = {name: sorted(s for a in p._actions for s in a.option_strings
                            if s not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert options == OPTIONS
    assert sum(map(len, options.values())) == 31
    keys = {"top-level": sorted(set(cli._TOP_KEYS) - set(cli._SECTIONS))}
    for section, (_, fields) in cli._SECTIONS.items():
        keys[section] = sorted(getattr(fields, "__dataclass_fields__", fields))
    assert keys == CONFIG_KEYS
    assert sum(map(len, keys.values())) == 24


def test_console_script_help():
    result = subprocess.run([sys.executable, "-m", "ambispeech.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    for sub in ("synth", "featurize", "train", "eval", "predict"):
        assert sub in result.stdout


def test_runtime_never_imports_scipy(tmp_path):
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from ambispeech import cli, features\n"
        "out = sys.argv[1]\n"
        "assert cli.main(['synth', '--out', out + '/c', '--n-scripts', '1']) == 0\n"
        "sig = features.AudioSignal(np.linspace(-1.0, 1.0, 800), 16000)\n"
        "features.write_wav(out + '/ramp.wav', sig)\n"
        "features.read_wav(out + '/ramp.wav')\n"
        "assert cli.main(['featurize', '--manifest', out + '/c/manifest.tsv',\n"
        "                 '--cache-dir', out + '/cache']) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_missing_subcommand_is_usage_error():
    result = subprocess.run([sys.executable, "-m", "ambispeech.cli"],
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert "usage:" in result.stderr
