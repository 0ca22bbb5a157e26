import os

import numpy as np
import pytest

from ambispeech import corpus as cp
from ambispeech import hangul
from ambispeech import synth as sy
from ambispeech.errors import (ConfigError, DataError, EmptyInputError, LabelError,
                               ManifestError)
from ambispeech.features import EmbeddingTable, FeatureConfig, write_wav
from ambispeech.synth import SyntheticSpec, generate_synthetic


def records_for_tests():
    return [
        cp.UtteranceRecord("r1", "wav/r1.wav", "가다", cp.IntentLabel.S, "m"),
        cp.UtteranceRecord("r2", "wav/r2.wav", "가다", cp.IntentLabel.YN, "f",
                           alt_transcript="가가 가다"),
    ]


# ------------------------------------------------------------------- labels


def test_label_ordinals_are_fixed():
    assert cp.INTENT_LABELS == ("S", "YN", "WH", "RQ", "C", "R", "RC")
    assert int(cp.IntentLabel.S) == 0
    assert int(cp.IntentLabel.RC) == 6


def test_label_parse_strips_and_rejects():
    assert cp.IntentLabel.parse(" YN ") is cp.IntentLabel.YN
    with pytest.raises(LabelError):
        cp.IntentLabel.parse("yes_no")


def test_empty_transcript_rejected():
    with pytest.raises(EmptyInputError):
        cp.UtteranceRecord("r1", "a.wav", "   ", cp.IntentLabel.S, "m")


# ---------------------------------------------------------------- manifests


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.tsv"
    records = records_for_tests()
    cp.write_manifest(path, records)
    assert cp.load_manifest(path) == records
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header.split("\t") == ["id", "audio", "transcript", "label", "speaker",
                                  "alt_transcript"]


def test_manifest_omits_alt_column_when_unused(tmp_path):
    path = tmp_path / "m.tsv"
    cp.write_manifest(path, records_for_tests()[:1])
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert "alt_transcript" not in header
    assert cp.load_manifest(path)[0].alt_transcript is None


def test_manifest_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "m.tsv"
    head = "id\taudio\ttranscript\tlabel\tspeaker"

    path.write_text(f"{head}\nr1\ta.wav\thi\tS\tm\nr2\tb.wav\thi\tBOGUS\tm\n")
    with pytest.raises(ManifestError, match="line 3"):
        cp.load_manifest(path)

    path.write_text(f"{head}\nr1\ta.wav\thi\tS\n")
    with pytest.raises(ManifestError, match="line 2"):
        cp.load_manifest(path)

    path.write_text(f"{head}\nr1\ta.wav\thi\tS\tm\nr1\tb.wav\thi\tYN\tf\n")
    with pytest.raises(ManifestError, match="duplicate id"):
        cp.load_manifest(path)

    path.write_text(f"{head}\nr1\ta.wav\t \tS\tm\n")
    with pytest.raises(ManifestError, match="line 2.*empty transcript"):
        cp.load_manifest(path)

    path.write_text("id\taudio\ttranscript\n")
    with pytest.raises(ManifestError, match="missing columns"):
        cp.load_manifest(path)

    path.write_text(f"{head}\tmood\n")
    with pytest.raises(ManifestError, match="unknown columns"):
        cp.load_manifest(path)

    path.write_text("")
    with pytest.raises(ManifestError, match="empty manifest"):
        cp.load_manifest(path)

    with pytest.raises(ManifestError, match="cannot read"):
        cp.load_manifest(tmp_path / "absent.tsv")


def test_manifest_skips_blank_lines(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("id\taudio\ttranscript\tlabel\tspeaker\n\nr1\ta.wav\thi\tS\tm\n\n")
    assert len(cp.load_manifest(path)) == 1


# --------------------------------------------------------- embedding tables


def test_embedding_table_round_trip(tmp_path):
    path = tmp_path / "emb.txt"
    table = EmbeddingTable({"가": np.array([0.5, -1.25]), "나": np.array([1e-7, 3.0])}, 2)
    cp.save_embedding_table(path, table)
    loaded = cp.load_embedding_table(path)
    assert loaded.dim == 2
    assert set(loaded.vectors) == {"가", "나"}
    np.testing.assert_array_equal(loaded.vectors["가"], table.vectors["가"])
    np.testing.assert_array_equal(loaded.vectors["나"], table.vectors["나"])


def test_embedding_table_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "emb.txt"

    path.write_text("")
    with pytest.raises(ManifestError, match="empty table"):
        cp.load_embedding_table(path)

    path.write_text("two\n")
    with pytest.raises(ManifestError, match="line 1"):
        cp.load_embedding_table(path)

    path.write_text("x 3\n")
    with pytest.raises(ManifestError, match="two integers"):
        cp.load_embedding_table(path)

    path.write_text("1 0\n")
    with pytest.raises(ManifestError, match="bad count/dim"):
        cp.load_embedding_table(path)

    path.write_text("1 2\n가 0.5\n")
    with pytest.raises(ManifestError, match="line 2"):
        cp.load_embedding_table(path)

    path.write_text("1 2\n가 0.5 oops\n")
    with pytest.raises(ManifestError, match="non-numeric"):
        cp.load_embedding_table(path)

    path.write_text("3 2\n가 0.5 1.0\n")
    with pytest.raises(ManifestError, match="promised 3"):
        cp.load_embedding_table(path)


# ----------------------------------------------------------------- pipeline


def fake_loader(n_frames):
    def loader(record):
        rng = np.random.default_rng(abs(hash(record.id)) % 2**32)
        return rng.normal(size=(n_frames[record.id], 4))
    return loader


def test_featurize_resolves_t_max_from_longest():
    records = records_for_tests()
    cfg = FeatureConfig(n_mels=3, n_fft=256, hop=128)
    examples, resolved = cp.featurize_corpus(
        records, cfg, "sparse", frame_loader=fake_loader({"r1": 5, "r2": 9}))
    assert resolved.audio_t_max == 9
    assert resolved.text_t_max == 2  # longest primary transcript
    assert all(e.audio.data.shape == (9, 4) for e in examples)
    assert examples[0].audio.valid_len == 5
    assert examples[1].text.data.shape == (2, 69)
    assert [e.label for e in examples] == [0, 1]


def test_featurize_respects_explicit_t_max():
    records = records_for_tests()
    cfg = FeatureConfig(n_mels=3, n_fft=256, hop=128, audio_t_max=4, text_t_max=6)
    examples, resolved = cp.featurize_corpus(
        records, cfg, "sparse", frame_loader=fake_loader({"r1": 5, "r2": 9}))
    assert (resolved.audio_t_max, resolved.text_t_max) == (4, 6)
    # overlong audio keeps its trailing frames
    assert all(e.audio.data.shape == (4, 4) for e in examples)


def test_featurize_text_modes():
    records = records_for_tests()
    cfg = FeatureConfig(n_mels=3, n_fft=256, hop=128)
    loader = fake_loader({"r1": 5, "r2": 5})

    examples, resolved = cp.featurize_corpus(records, cfg, "none", frame_loader=loader)
    assert all(e.text is None for e in examples)
    assert resolved.text_t_max is None

    table = EmbeddingTable({"가": np.array([1.0, 2.0, 3.0])}, 3)
    examples, _ = cp.featurize_corpus(records, cfg, "dense", table=table,
                                      frame_loader=loader)
    assert examples[0].text.data.shape[1] == 3

    with pytest.raises(ConfigError):
        cp.featurize_corpus(records, cfg, "dense", frame_loader=loader)
    with pytest.raises(ConfigError):
        cp.featurize_corpus(records, cfg, "onehot", frame_loader=loader)
    with pytest.raises(EmptyInputError):
        cp.featurize_corpus([], cfg, "none", frame_loader=loader)


def test_featurize_alt_transcript_switch():
    records = records_for_tests()
    cfg = FeatureConfig(n_mels=3, n_fft=256, hop=128)
    loader = fake_loader({"r1": 5, "r2": 5})
    with pytest.raises(ConfigError, match="r1"):
        cp.featurize_corpus(records, cfg, "sparse", use_alt_transcript=True,
                            frame_loader=loader)
    examples, resolved = cp.featurize_corpus(records[1:], cfg, "sparse",
                                             use_alt_transcript=True, frame_loader=loader)
    assert resolved.text_t_max == len("가가 가다")
    assert examples[0].text.valid_len == 5


def test_featurize_reads_wavs_relative_to_base_dir(tmp_path):
    os.makedirs(tmp_path / "wav")
    rng = np.random.default_rng(0)
    sig = sy.render_utterance("가다", ("LMLML", 1.0), "m", rng)
    write_wav(tmp_path / "wav" / "r1.wav", sig)
    records = [cp.UtteranceRecord("r1", "wav/r1.wav", "가다", cp.IntentLabel.S, "m")]
    cfg = FeatureConfig(n_mels=4, n_fft=256, hop=128)
    examples, _ = cp.featurize_corpus(records, cfg, "none", base_dir=str(tmp_path))
    assert examples[0].audio.dim == 5  # n_mels + energy column
    with pytest.raises(DataError):
        cp.featurize_corpus(records, cfg, "none", base_dir=str(tmp_path / "elsewhere"))


# ---------------------------------------------------------------- synthesis


def test_generate_synthetic_layout(tmp_path):
    spec = SyntheticSpec(n_scripts=10, variants_per_script=2, seed=1)
    manifest, records = generate_synthetic(spec, str(tmp_path))
    assert manifest == str(tmp_path / "manifest.tsv")
    assert len(records) == 20
    assert cp.load_manifest(manifest) == records
    for r in records:
        assert os.path.exists(tmp_path / r.audio)
        assert r.speaker in ("m", "f")


def test_synthetic_scripts_pair_ambiguous_labels(tmp_path):
    spec = SyntheticSpec(n_scripts=8, variants_per_script=2, seed=2)
    _, records = generate_synthetic(spec, str(tmp_path))
    by_script: dict[str, list] = {}
    for r in records:
        by_script.setdefault(r.transcript, []).append(r)
    assert len(by_script) == 8
    for variants in by_script.values():
        assert len(variants) == 2
        assert variants[0].label != variants[1].label
        assert variants[0].speaker == variants[1].speaker


def test_synthetic_enders_encode_script_type(tmp_path):
    spec = SyntheticSpec(n_scripts=4, variants_per_script=2, seed=3)
    _, records = generate_synthetic(spec, str(tmp_path))
    enders = {"ynwh": hangul.compose(1, 0), "rqrc": hangul.compose(12, 20),
              "decl": hangul.compose(3, 0), "cmd": hangul.compose(5, 0)}
    # default cycle: one script of each type
    for i, stype in enumerate(("ynwh", "rqrc", "decl", "cmd")):
        script = records[2 * i].transcript
        assert script.endswith(enders[stype]), (i, stype)
    assert {r.label.name for r in records[0:2]} == {"YN", "WH"}
    assert {r.label.name for r in records[2:4]} == {"RQ", "RC"}
    assert records[4].label.name == "S"
    assert records[6].label.name == "C"


def test_synthetic_rerun_is_byte_identical(tmp_path):
    spec = SyntheticSpec(n_scripts=3, variants_per_script=2, seed=4)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    _, a_recs = generate_synthetic(spec, str(a_dir))
    _, b_recs = generate_synthetic(spec, str(b_dir))
    assert a_recs == b_recs
    for r in a_recs:
        assert (a_dir / r.audio).read_bytes() == (b_dir / r.audio).read_bytes()
    assert (a_dir / "manifest.tsv").read_bytes() == (b_dir / "manifest.tsv").read_bytes()


def test_synthetic_seed_changes_output(tmp_path):
    _, a = generate_synthetic(SyntheticSpec(n_scripts=3, seed=5), str(tmp_path / "a"))
    _, b = generate_synthetic(SyntheticSpec(n_scripts=3, seed=6), str(tmp_path / "b"))
    assert [r.transcript for r in a] != [r.transcript for r in b]


def test_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_scripts=0)
    with pytest.raises(ConfigError):
        SyntheticSpec(variants_per_script=5)
    with pytest.raises(ConfigError):
        SyntheticSpec(contours={"S": ("LMLML", 1.0)})
    bad = dict(sy.DEFAULT_CONTOURS)
    bad["YN"] = ("LMX", 1.0)
    with pytest.raises(ConfigError, match="5 chars"):
        SyntheticSpec(contours=bad)
    bad = dict(sy.DEFAULT_CONTOURS)
    bad["YN"] = ("LMLLH", -1.0)
    with pytest.raises(ConfigError, match="register"):
        SyntheticSpec(contours=bad)
    with pytest.raises(ConfigError):
        SyntheticSpec(vocabulary=())
    with pytest.raises(ConfigError):
        SyntheticSpec(script_types=("ynwh", "mystery"))


def test_contour_collision_on_one_script_is_rejected(tmp_path):
    # the fifth decl script draws partner R; giving R the S contour makes
    # that script audio-ambiguous three ways, which the generator must refuse
    contours = dict(sy.DEFAULT_CONTOURS)
    contours["R"] = contours["S"]
    spec = SyntheticSpec(n_scripts=5, contours=contours, script_types=("decl",), seed=7)
    with pytest.raises(ConfigError, match="share contour"):
        generate_synthetic(spec, str(tmp_path))


def test_render_utterance_shape_and_pauses():
    rng = np.random.default_rng(8)
    sig = sy.render_utterance("가가 가다", ("LMLLH", 1.0), "f", rng)
    assert sig.sample_rate == sy.SAMPLE_RATE
    assert np.max(np.abs(sig.samples)) <= 0.32
    # a 25 ms silent gap sits between the two words
    frame = int(0.025 * sy.SAMPLE_RATE)
    windows = np.lib.stride_tricks.sliding_window_view(np.abs(sig.samples), frame)
    assert windows.max(axis=1).min() == 0.0
