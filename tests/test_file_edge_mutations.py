"""Seeded byte mutations of every file kind the CLI reads, run through cli.main.

Each kind is mutated by flipping bytes of its header, flipping bytes
anywhere and truncating; no size or count field is written by hand. Every
run must return 0, 1 or 2 with no exception escaping, and a non-zero exit
must print exactly one "error:" line. featurize reports a bad record as a
"FAILED <id>: ..." line instead, so a non-zero featurize exits 1 with
nothing but FAILED lines on stderr.
"""

import json
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from ambispeech import cli
from ambispeech import corpus as cp
from ambispeech import features as ft

MUTATIONS_PER_KIND = 300
HEADER_BYTES = {"wav": 44, "checkpoint": 48, "sidecar": 48, "manifest": 40, "cache entry": 13,
                "embedding table": 16, "config": 48}
TRANSCRIPT = "가나 다라"


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A tiny corpus, its cache, and 1-epoch sparse and dense ca models at hidden 4."""
    root = tmp_path_factory.mktemp("mutations")
    assert cli.main(["synth", "--out", str(root / "corpus"), "--n-scripts", "2",
                     "--seed", "1"]) == 0
    (root / "cfg.json").write_text(json.dumps({
        "features": {"n_mels": 8, "n_fft": 256, "hop": 128},
        "train": {"max_epochs": 1, "batch_size": 4, "split_ratio": 0.5},
        "model": {"hidden": 4, "head_hidden": 8},
    }), encoding="utf-8")
    records = cp.load_manifest(root / "corpus" / "manifest.tsv")
    rng = np.random.default_rng(0)
    chars = sorted({ch for r in records for ch in r.transcript + TRANSCRIPT} - {" "})
    cp.save_embedding_table(root / "table.txt",
                            ft.EmbeddingTable({ch: rng.normal(size=3) for ch in chars}, 3))
    train = ["train", "--config", str(root / "cfg.json"), "--variant", "ca", "--manifest",
             str(root / "corpus" / "manifest.tsv"), "--cache-dir", str(root / "cache")]
    assert cli.main([*train, "--text-mode", "sparse", "--out", str(root / "sparse")]) == 0
    assert cli.main([*train, "--text-mode", "dense", "--embedding", str(root / "table.txt"),
                     "--out", str(root / "dense")]) == 0
    one = root / "one"  # a one-record corpus, so featurize reads only the mutated WAV
    one.mkdir()
    shutil.copy(root / "corpus" / records[0].audio, one / "a.wav")
    cp.write_manifest(one / "manifest.tsv", [cp.UtteranceRecord(
        records[0].id, "a.wav", records[0].transcript, records[0].label, records[0].speaker)])
    for name in ("selected.ambi", "selected.ambi.json"):  # the copy that gets mutated
        shutil.copy(root / "sparse" / name, root / name.replace("selected", "m"))
    shutil.copy(root / "corpus" / "manifest.tsv", root / "corpus" / "m.tsv")
    return root


def mutate(raw: bytes, header: int, i: int, rng: random.Random) -> bytes:
    """Mutant i of raw: header flips, flips anywhere and a truncation, in turn."""
    data = bytearray(raw)
    if i % 3 == 2:
        del data[rng.randrange(len(data)):]
        return bytes(data)
    span = min(header, len(data)) if i % 3 == 0 else len(data)
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(span)] ^= rng.randint(1, 255)
    return bytes(data)


def kinds(root):
    """kind -> (the files of that kind, the commands that read them)."""
    manifest, cache = str(root / "corpus" / "manifest.tsv"), str(root / "cache")
    sparse, dense, ckpt = (str(root / p) for p in ("sparse/selected.ambi",
                                                   "dense/selected.ambi", "m.ambi"))
    wav, table, config = (str(root / p) for p in ("one/a.wav", "table.txt", "cfg.json"))
    good_wav = str(next((root / "corpus" / "wav").iterdir()))

    def predict(model, wav_path, *extra):
        return ["predict", "--checkpoint", model, "--wav", wav_path, "--transcript", TRANSCRIPT,
                *extra]

    def evaluate(model, *extra, manifest=manifest):
        return ["eval", "--checkpoint", model, "--manifest", manifest, "--cache-dir", cache,
                *extra]

    featurize = ["featurize", "--manifest", str(root / "one" / "manifest.tsv"),
                 "--cache-dir", str(root / "one" / "cache")]
    return {
        "wav": ([wav], [predict(sparse, wav), featurize]),
        "checkpoint": ([ckpt], [evaluate(ckpt), predict(ckpt, good_wav)]),
        "sidecar": ([ckpt + ".json"], [evaluate(ckpt), predict(ckpt, good_wav)]),
        "manifest": ([str(root / "corpus" / "m.tsv")],
                     [evaluate(sparse, manifest=str(root / "corpus" / "m.tsv"))]),
        "cache entry": (sorted(str(p) for p in (root / "cache").iterdir()), [evaluate(sparse)]),
        "embedding table": ([table], [predict(dense, good_wav, "--embedding", table)]),
        "config": ([config], [evaluate(sparse, "--config", config)]),
    }


def breaks_the_rule(argv, capsys) -> str | None:
    """Why the run of argv broke the exit rule, or None if it kept it."""
    try:
        code = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 -- an escape is what this looks for
        capsys.readouterr()
        return f"escaped {type(exc).__name__}: {exc}"
    err = capsys.readouterr().err.splitlines()
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if code == 0:
        return None
    if argv[0] == "featurize":
        ok = code == 1 and err and all(line.startswith("FAILED ") for line in err)
    else:
        ok = len(err) == 1 and err[0].startswith("error: ")
    return None if ok else f"exit {code} with stderr {err}"


def test_no_mutated_file_escapes_the_cli(root, capsys, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    (root / "one" / "cache").mkdir(exist_ok=True)
    broken = []
    for kind, (paths, commands) in kinds(root).items():
        rng = random.Random(f"mutate {kind}")
        originals = {p: Path(p).read_bytes() for p in paths}
        for i in range(MUTATIONS_PER_KIND):
            path = rng.choice(paths)
            Path(path).write_bytes(mutate(originals[path], HEADER_BYTES[kind], i, rng))
            for argv in commands:
                why = breaks_the_rule(argv, capsys)
                if why:
                    broken.append(f"{kind} mutant {i}, {argv[0]}: {why}")
            Path(path).write_bytes(originals[path])
    assert not broken, f"{len(broken)} runs broke the rule:\n" + "\n".join(broken)
