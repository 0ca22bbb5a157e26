import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ambispeech import cli
from ambispeech import features as ft
from ambispeech import models as md


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


def test_featurize_requires_cache_dir_and_manifest(corpus):
    assert cli.main(["featurize", "--manifest", manifest(corpus)]) == 2
    assert cli.main(["featurize", "--cache-dir", str(corpus / "c")]) == 2
    assert cli.main(["featurize", "--manifest", str(corpus / "absent.tsv"),
                     "--cache-dir", str(corpus / "c")]) == 1


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
def test_train_stops_on_non_finite_features(corpus, trained, tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    for entry in (corpus / "cache").iterdir():
        seq = ft.load_feature_sequence(entry)
        data = seq.data.copy()
        data[-1, 0] = np.inf
        ft.save_feature_sequence(cache / entry.name, ft.FeatureSequence(data, seq.mask))
    assert cli.main(["train", "--config", str(corpus / "cfg.json"),
                     "--manifest", manifest(corpus), "--cache-dir", str(cache),
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
    assert cli.main(base + ["--variant", "audio_bre",
                            "--config", str(tmp_path / "ghost.json")]) == 1


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


_MISSING = object()


@pytest.mark.parametrize("key, value, says", [
    ("hidden", _MISSING, "'hidden'"),
    ("hidden", "abc", "'hidden'"),
    ("hidden", 0, "'hidden'"),
    ("head_hidden", True, "'head_hidden'"),
    ("audio_dim", 12.5, "'audio_dim'"),
    ("text_dim", "64", "'text_dim'"),
    ("variant", 3, "'variant'"),
    ("text_mode", None, "'text_mode'"),
    ("variant", "banana", "unknown variant 'banana'"),
    ("text_mode", "dense2", "unknown text mode 'dense2'"),
    ("text_dim", None, "mha_a needs text_dim"),
    ("features", {"hop": 0}, "hop must be positive"),
    ("features", {"hop": "abc"}, "hop must be an integer"),
    ("features", {"log_mel": 1}, "log_mel must be true or false"),
    ("features", {"window": "hann"}, "unknown feature config keys"),
    ("features", {"audio_t_max": 0}, "audio_t_max must be >= 1 or null"),
], ids=["hidden-missing", "hidden-str", "hidden-zero", "head_hidden-bool", "audio_dim-float",
        "text_dim-str", "variant-int", "text_mode-null", "variant-unknown", "text_mode-unknown",
        "text_dim-null-needs-text", "features-hop-zero", "features-hop-str",
        "features-log_mel-int", "features-unknown-key", "features-audio_t_max-zero"])
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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err
        assert err.count("\n") == 1


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


def test_predict_requires_transcript_for_text_models(corpus, trained):
    wav = str(corpus / "corpus" / "wav" / "syn0000a.wav")
    assert cli.main(["predict", "--checkpoint", str(trained / "selected.ambi"),
                     "--wav", wav]) == 2


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


# ------------------------------------------------------------- entry points


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
