import numpy as np
import pytest

from ambispeech import autodiff as ad
from ambispeech import models as md
from ambispeech.errors import ConfigError, DataError, ModalityError, ShapeError
from ambispeech.features import FeatureConfig, end_align


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
    m.zero_like()
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
    np.testing.assert_array_equal(aux["text_cross"], [0.0, 0.0, 0.0, 1.0])


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


@pytest.mark.parametrize("tag", md.VARIANT_TAGS)
def test_gradients_reach_every_parameter(tag):
    m = build(tag, seed=13)
    audio, text = toy_inputs()
    probs, _ = m.forward(audio, text=None if tag in md.AUDIO_ONLY_TAGS else text)
    # -mean(log p) over all seven classes: one nll over seven copies of the row
    rows = ad.matmul(np.ones((7, 1)), ad.reshape(probs, (1, 7)))
    ad.nll(rows, np.arange(7)).backward()
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
