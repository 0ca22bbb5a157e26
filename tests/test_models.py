import re

import numpy as np
import pytest
from gradcases import weighted_sum

from ambispeech import autodiff as ad
from ambispeech import models as md
from ambispeech.autodiff import Tensor
from ambispeech.errors import ConfigError, DataError, EmptyInputError, ModalityError, ShapeError
from ambispeech.features import AudioSignal, FeatureConfig, audio_features, end_align


def fs(rng, t_max, dim, valid):
    return end_align(rng.normal(size=(valid, dim)), t_max)


def build(tag, seed=0, hidden=5, head_hidden=16):
    tm = "none" if tag in md.AUDIO_ONLY_TAGS else "sparse"
    v = md.ModelVariant.parse(tag, tm)
    return md.IntentClassifier(v, audio_dim=9, text_dim=8 if tm != "none" else None,
                               hidden=hidden, head_hidden=head_hidden, seed=seed)


def toy_inputs(seed=100):
    rng = np.random.default_rng(seed)
    return fs(rng, 6, 9, 4), fs(rng, 4, 8, 3)


# ------------------------------------------------------------- ModelVariant


def test_variant_parsing_normalizes():
    v = md.ModelVariant.parse("MHA-A", "Sparse")
    assert v.tag == "mha_a"
    assert v.text_mode == "sparse"


def test_variant_validation():
    with pytest.raises(ConfigError):
        md.ModelVariant("audio_bre", "sparse")  # audio-only takes no text
    with pytest.raises(ConfigError):
        md.ModelVariant("ca", "none")  # multimodal needs text
    with pytest.raises(ConfigError):
        md.ModelVariant("transformer", "none")
    with pytest.raises(ConfigError):
        md.ModelVariant("ca", "onehot")
    with pytest.raises(ConfigError, match="variant must be a string, got 5"):
        md.ModelVariant.parse(5)
    with pytest.raises(ConfigError, match="text_mode must be a string, got 7"):
        md.ModelVariant.parse("ca", 7)


def test_text_dim_required_with_text():
    with pytest.raises(ConfigError):
        md.IntentClassifier(md.ModelVariant("ca", "sparse"), audio_dim=9)


# ------------------------------------------------------------------ forward


@pytest.mark.parametrize("tag", md.VARIANT_TAGS)
def test_probs_sum_to_one(tag):
    m = build(tag)
    audio, text = toy_inputs()
    probs, aux = m.forward(audio, text=None if tag in md.AUDIO_ONLY_TAGS else text)
    assert probs.shape == (7,)
    assert abs(probs.data.sum() - 1.0) < 1e-9
    assert np.all(probs.data > 0.0)
    assert "logits" in aux


@pytest.mark.parametrize("tag", md.VARIANT_TAGS)
def test_zeroed_model_outputs_uniform(tag):
    m = build(tag)
    for p in m.parameters():
        p.data = np.zeros_like(p.data)
    audio, text = toy_inputs()
    probs, _ = m.forward(audio, text=None if tag in md.AUDIO_ONLY_TAGS else text)
    np.testing.assert_allclose(probs.data, 1.0 / 7.0, atol=1e-12)


@pytest.mark.parametrize("tag", md.VARIANT_TAGS)
def test_padding_invariance_bitwise(tag):
    rng = np.random.default_rng(7)
    m = build(tag)
    audio, text = toy_inputs()
    kwargs = {} if tag in md.AUDIO_ONLY_TAGS else {"text": text.data, "text_mask": text.mask}
    _, aux1 = m.forward(audio.data, audio_mask=audio.mask, **kwargs)
    # scribble over the masked rows of both modalities
    a2 = audio.data.copy()
    a2[:2] = rng.normal(size=(2, 9)) * 30.0
    if kwargs:
        t2 = text.data.copy()
        t2[:1] = rng.normal(size=(1, 8)) * 30.0
        kwargs = {"text": t2, "text_mask": text.mask}
    _, aux2 = m.forward(a2, audio_mask=audio.mask, **kwargs)
    assert np.array_equal(aux1["logits"], aux2["logits"])


def test_missing_text_raises_modality_error():
    m = build("para_bre_att")
    audio, _ = toy_inputs()
    with pytest.raises(ModalityError):
        m.forward(audio)


def test_batch_size_mismatch_rejected():
    m = build("ca")
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        m.forward(rng.normal(size=(2, 6, 9)), audio_mask=np.ones((2, 6)),
                  text=rng.normal(size=(3, 4, 8)), text_mask=np.ones((3, 4)))


def test_array_input_without_mask_rejected():
    m = build("audio_bre")
    with pytest.raises(ShapeError):
        m.forward(np.ones((6, 9)))


def test_batched_forward_matches_single():
    m = build("mha_at", seed=3)
    rng = np.random.default_rng(4)
    audios = [fs(rng, 6, 9, v) for v in (3, 6)]
    texts = [fs(rng, 4, 8, v) for v in (2, 4)]
    pb, auxb = m.forward(np.stack([a.data for a in audios]),
                         audio_mask=np.stack([a.mask for a in audios]),
                         text=np.stack([t.data for t in texts]),
                         text_mask=np.stack([t.mask for t in texts]))
    for k in range(2):
        ps, _ = m.forward(audios[k], text=texts[k])
        np.testing.assert_allclose(pb.data[k], ps.data, atol=1e-12)


@pytest.mark.parametrize("tag", md.VARIANT_TAGS)
def test_forward_cuts_padding_columns_and_widens_aux(tag, monkeypatch):
    """The padded forward runs only the used columns; its probabilities and its
    maps, which cover those columns, equal the unpadded forward's."""
    uses_text = tag not in md.AUDIO_ONLY_TAGS
    rng = np.random.default_rng(12)
    rows_a, rows_t = rng.normal(size=(4, 9)), rng.normal(size=(3, 8))
    m = build(tag, seed=4)
    exact, exact_aux = m.forward(end_align(rows_a, 4),
                                 text=end_align(rows_t, 3) if uses_text else None)

    seen = []  # (function, input width, mask width, mask all ones) per call
    real_bre, real_attend = md.bre_forward, md.attend

    def note(name, x, mask):
        seen.append((name, x.shape[1], mask.shape[1], bool(np.all(mask == 1.0))))

    def bre_spy(x, p, mask):
        note("bre_forward", x, mask)
        return real_bre(x, p, mask)

    def attend_spy(H, mask, ap, context):
        note("attend", H, mask)
        return real_attend(H, mask, ap, context)

    monkeypatch.setattr(md, "bre_forward", bre_spy)
    monkeypatch.setattr(md, "attend", attend_spy)
    probs, aux = m.forward(end_align(rows_a, 12), text=end_align(rows_t, 8) if uses_text else None)
    assert sum(name == "bre_forward" for name, *_ in seen) == 1 + uses_text
    assert all(width == mask_width in (4, 3) and full for _, width, mask_width, full in seen)
    assert np.array_equal(probs.data, exact.data)
    assert aux.keys() == exact_aux.keys()
    for key, weights in aux.items():  # each map covers the valid span only
        assert np.array_equal(weights, exact_aux[key]), key


@pytest.mark.parametrize("tag", md.VARIANT_TAGS)
def test_a_list_of_sequences_runs_as_the_stacked_arrays(tag):
    # sequences of one t_max, then of mixed t_max, run as their rows end-aligned
    # to one common t_max and stacked
    uses_text = tag not in md.AUDIO_ONLY_TAGS
    rng = np.random.default_rng(13)
    rows_a = [rng.normal(size=(v, 9)) for v in (3, 7, 5)]
    rows_t = [rng.normal(size=(v, 8)) for v in (2, 6, 4)]

    def run(*inputs, **kwargs):
        m = build(tag, seed=5)
        prng = np.random.default_rng(15)  # learned contexts away from 0, as in training
        m.load_state({k: w + 0.3 * prng.normal(size=w.shape) for k, w in m.state().items()})
        probs, aux = m.forward(*inputs, **kwargs)
        weighted_sum((probs, np.arange(1.0, 8.0))).backward()
        return probs.data, aux, {n: p.grad for n, p in m.named_parameters().items()}

    def stacked(rows, t_max):
        seqs = [end_align(r, t_max) for r in rows]
        return np.stack([s.data for s in seqs]), np.stack([s.mask for s in seqs])

    want = run(*stacked(rows_a, 12), *(stacked(rows_t, 8) if uses_text else ()))
    for t_audio, t_text in (((12, 12, 12), (8, 8, 8)), ((7, 12, 9), (6, 8, 4))):
        text = [end_align(r, t) for r, t in zip(rows_t, t_text)] if uses_text else None
        got = run([end_align(r, t) for r, t in zip(rows_a, t_audio)], text=text)
        assert np.array_equal(got[0], want[0]), t_audio
        for part in (1, 2):  # aux maps with the logits, then gradients
            assert got[part].keys() == want[part].keys()
            for name, value in got[part].items():
                assert np.array_equal(value, want[part][name]), (t_audio, name)


def test_a_bad_list_of_sequences_is_a_shape_error():
    m = build("ca")
    rng = np.random.default_rng(14)
    audio, text = [fs(rng, 6, 9, 4)], [fs(rng, 4, 8, 3)]
    cases = [
        ([], text, "a batch must be a non-empty list of FeatureSequences"),
        (audio, [], "a batch must be a non-empty list of FeatureSequences"),
        ([audio[0], audio[0].data], text * 2,
         "a batch must be a non-empty list of FeatureSequences"),
        (audio * 2, text + [fs(rng, 4, 5, 3)], "a batch's sequences must share dim, got [5, 8]"),
        (audio + [fs(rng, 7, 4, 4)], text * 2, "a batch's sequences must share dim, got [4, 9]"),
    ]
    for a, t, says in cases:
        with pytest.raises(ShapeError, match=f"^{re.escape(says)}$"):
            m.forward(a, text=t)


def test_an_lstm_gate_saturates_without_an_overflow_warning():
    # raw (not log) mel power of a loud tone drives a fresh model's gate
    # pre-activations below -709, where exp overflows; the suite turns
    # warnings into errors
    t = np.arange(8000) / 16000
    cfg = FeatureConfig(log_mel=False)
    audio = audio_features(AudioSignal(0.8 * np.sin(2 * np.pi * 440.0 * t), 16000), cfg)
    m = md.IntentClassifier(md.ModelVariant("audio_bre"), audio_dim=audio.dim, seed=0)
    probs, _ = m.forward(audio)
    assert np.all(np.isfinite(probs.data))


def test_forward_keeps_its_shape_and_empty_row_errors():
    m = build("ca")
    audio, text = toy_inputs()  # audio 4 valid of 6, text 3 valid of 4
    for mask, shape in ((audio.mask[1:], "(1, 5)"), (np.ones(7), "(1, 7)")):
        with pytest.raises(ShapeError, match=re.escape(
                f"expected (B, T, D) data with (B, T) mask, got (1, 6, 9), {shape}")):
            m.forward(audio.data, audio_mask=mask, text=text.data, text_mask=text.mask)
    with pytest.raises(ShapeError, match=re.escape(
            "expected (B, T, D) data with (B, T) mask, got (1, 4, 8), (1, 3)")):
        m.forward(audio, text=text.data, text_mask=text.mask[1:])
    batch = np.stack([audio.data, audio.data])
    for mask in (np.stack([audio.mask, np.zeros(6)]), np.zeros((2, 6))):
        with pytest.raises(EmptyInputError, match="^an input row has zero valid steps$"):
            m.forward(batch, audio_mask=mask, text=np.stack([text.data] * 2),
                      text_mask=np.stack([text.mask] * 2))
    with pytest.raises(EmptyInputError, match="^an input row has zero valid steps$"):
        m.forward(audio, text=text.data, text_mask=np.zeros(4))


def test_aux_keys_per_variant():
    audio, text = toy_inputs()
    expected = {
        "audio_bre": {"logits"},
        "audio_bre_att": {"logits", "audio_self"},
        "para_bre_att": {"logits", "audio_self", "text_self"},
        "mha_a": {"logits", "audio_self", "text_cross"},
        "mha_at": {"logits", "audio_self", "text_cross", "audio_cross"},
        "ca": {"logits", "audio_self", "text_cross", "audio_cross"},
    }
    for tag, keys in expected.items():
        m = build(tag)
        _, aux = m.forward(audio, text=None if tag in md.AUDIO_ONLY_TAGS else text)
        assert set(aux) == keys, tag


def test_attention_weight_rows_are_distributions():
    audio, text = toy_inputs()
    for tag in md.VARIANT_TAGS[1:]:
        m = build(tag, seed=5)
        _, aux = m.forward(audio, text=None if tag in md.AUDIO_ONLY_TAGS else text)
        for key, w in aux.items():
            if key == "logits":
                continue
            assert abs(w.sum() - 1.0) < 1e-9, (tag, key)
            assert np.all(w >= 0.0)


def test_text_swap_changes_para_output():
    m = build("para_bre_att", seed=1)
    audio, text = toy_inputs()
    rng = np.random.default_rng(9)
    other = fs(rng, 4, 8, 3)
    p1, _ = m.forward(audio, text=text)
    p2, _ = m.forward(audio, text=other)
    assert not np.allclose(p1.data, p2.data)


def test_audio_change_moves_mha_text_attention():
    # the text attention context is the pooled audio, so audio must steer it
    m = build("mha_a", seed=2)
    audio, text = toy_inputs()
    rng = np.random.default_rng(10)
    other = fs(rng, 6, 9, 4)
    _, aux1 = m.forward(audio, text=text)
    _, aux2 = m.forward(other, text=text)
    assert not np.allclose(aux1["text_cross"], aux2["text_cross"])


def test_mha_at_second_hop_differs_from_self_attention():
    m = build("mha_at", seed=6)
    audio, text = toy_inputs()
    _, aux = m.forward(audio, text=text)
    assert not np.allclose(aux["audio_cross"], aux["audio_self"])


def test_single_valid_text_step_pins_cross_attention():
    m = build("mha_a", seed=8)
    rng = np.random.default_rng(11)
    audio = fs(rng, 6, 9, 4)
    text = fs(rng, 4, 8, 1)
    _, aux = m.forward(audio, text=text)
    np.testing.assert_array_equal(aux["text_cross"], [1.0])


def test_ca_cross_pool_differs_from_self_pool():
    m = build("ca", seed=12)
    audio, text = toy_inputs()
    _, aux = m.forward(audio, text=text)
    assert not np.allclose(aux["audio_cross"], aux["audio_self"])


def test_forward_is_deterministic():
    audio, text = toy_inputs()
    p1, _ = build("ca", seed=42).forward(audio, text=text)
    p2, _ = build("ca", seed=42).forward(audio, text=text)
    np.testing.assert_array_equal(p1.data, p2.data)
    p3, _ = build("ca", seed=43).forward(audio, text=text)
    assert not np.array_equal(p1.data, p3.data)


# --------------------------------------------------------------- parameters


def test_default_audio_bre_matches_published_size():
    v = md.ModelVariant("audio_bre", "none")
    m = md.IntentClassifier(v, audio_dim=129)
    assert m.num_params() == 116743
    assert abs(m.num_params() - 116000) / 116000 < 0.05


def test_parameter_paths_are_namespaced():
    m = build("ca")
    names = set(m.named_parameters())
    assert "model.ca.audio_bre.fwd.Wx" in names
    assert "model.ca.head.W2" in names
    assert "model.ca.text_xatt.W" in names
    assert "model.ca.text_xatt.c" not in names  # cross attention has no learned context
    assert "model.ca.audio_att.c" in names


def test_head_gradient_matches_finite_differences():
    # the fused head over one pooled part (audio_bre) and over two (ca)
    rng = np.random.default_rng(27)
    for tag, n_parts in (("audio_bre", 1), ("ca", 2)):
        m = build(tag, seed=15, head_hidden=6)
        m.b1.data = rng.normal(size=6)
        head = [m.W1, m.b1, m.W2, m.b2]
        parts = [Tensor(rng.normal(size=(3, 10))) for _ in range(n_parts)]

        def loss(*inputs):
            probs, _ = m._head(list(inputs[:n_parts]))
            return ad.nll(probs, np.array([0, 4, 6]))

        assert ad.gradient_check(loss, [*parts, *head]) < 1e-4, tag
        probs, logits = m._head(parts)
        assert probs._parents == (*parts, *head)
        assert np.array_equal(probs.data, ad.masked_softmax(logits, np.ones(7)))


@pytest.mark.parametrize("tag", md.VARIANT_TAGS)
def test_gradients_reach_every_parameter(tag):
    m = build(tag, seed=13)
    audio, text = toy_inputs()
    probs, _ = m.forward(audio, text=None if tag in md.AUDIO_ONLY_TAGS else text)
    # distinct weights per class, so no softmax gradient cancels to zero
    weighted_sum((probs, np.arange(1.0, 8.0))).backward()
    for name, p in m.named_parameters().items():
        assert p.grad is not None, name
        # forget-gate bias starts saturated enough that a zero grad would hide bugs
        if "head" in name or name.endswith(".c"):
            assert np.any(p.grad != 0.0), name


def test_state_round_trip_preserves_forward():
    m1 = build("mha_at", seed=14)
    audio, text = toy_inputs()
    p1, _ = m1.forward(audio, text=text)
    m2 = build("mha_at", seed=99)
    m2.load_state(m1.state())
    p2, _ = m2.forward(audio, text=text)
    np.testing.assert_array_equal(p1.data, p2.data)


def test_load_state_validates():
    m = build("audio_bre")
    state = m.state()
    bad = dict(state)
    bad.pop("model.audio_bre.head.W1")
    with pytest.raises(DataError, match="missing"):
        m.load_state(bad)
    bad = dict(state)
    bad["model.audio_bre.rogue"] = np.zeros(3)
    with pytest.raises(DataError):
        m.load_state(bad)
    bad = dict(state)
    bad["model.audio_bre.head.W1"] = np.zeros((2, 2))
    with pytest.raises(DataError, match="shape"):
        m.load_state(bad)


# ------------------------------------------------------------ serialization


def test_save_load_model_round_trip(tmp_path):
    m = build("para_bre_att", seed=15)
    cfg = FeatureConfig(n_mels=8, n_fft=256, hop=128, audio_t_max=6, text_t_max=4)
    path = tmp_path / "m.ambi"
    md.save_model(path, m, cfg, embedding_path=None)
    m2, cfg2, meta = md.load_model(path)
    assert cfg2 == cfg
    assert meta["variant"] == "para_bre_att"
    audio, text = toy_inputs()
    p1, _ = m.forward(audio, text=text)
    p2, _ = m2.forward(audio, text=text)
    np.testing.assert_array_equal(p1.data, p2.data)
    sidecar = tmp_path / "m.ambi.json"  # a leading BOM is skipped, as in every text file read
    sidecar.write_bytes(b"\xef\xbb\xbf" + sidecar.read_bytes())
    assert md.load_model(path)[2] == meta


def test_load_model_rejects_missing_or_bad_sidecar(tmp_path):
    m = build("audio_bre")
    cfg = FeatureConfig(n_mels=8, n_fft=256, hop=128)
    path = tmp_path / "m.ambi"
    md.save_model(path, m, cfg)
    (tmp_path / "m.ambi.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError):
        md.load_model(path)
    (tmp_path / "m.ambi.json").unlink()
    with pytest.raises(DataError):
        md.load_model(path)
