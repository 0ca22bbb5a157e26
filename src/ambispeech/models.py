"""The six intent classifiers: an audio-only baseline, attentive and
parallel encoders, two multi-hop variants, and cross-attention.

Every variant maps (audio features, optional text features) to a 7-class
distribution through a shared-head shape: encode, pool, concat, MLP.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint
from .autodiff import Tensor
from .config import check_fields, read_section
from .corpus import INTENT_LABELS
from .encoders import (attend, bre_forward, init_attention, init_bre,
                       self_attentive_pool)
from .errors import ConfigError, DataError, ModalityError, ShapeError
from .features import FeatureConfig, FeatureSequence

Array = np.ndarray

N_CLASSES = len(INTENT_LABELS)

VARIANT_TAGS = ("audio_bre", "audio_bre_att", "para_bre_att", "mha_a", "mha_at", "ca")
AUDIO_ONLY_TAGS = ("audio_bre", "audio_bre_att")
TEXT_MODES = ("none", "sparse", "dense")
_SIDECAR_KEYS = ("variant", "text_mode", "audio_dim", "text_dim", "hidden", "head_hidden",
                 "labels", "features")


@dataclass(frozen=True)
class ModelVariant:
    """Architecture tag plus how the text modality is encoded."""

    tag: str
    text_mode: str = "none"

    def __post_init__(self):
        check_fields(self, {})
        if self.tag not in VARIANT_TAGS:
            raise ConfigError(f"unknown variant {self.tag!r}; expected one of {VARIANT_TAGS}")
        if self.text_mode not in TEXT_MODES:
            raise ConfigError(f"unknown text mode {self.text_mode!r}; expected one of {TEXT_MODES}")
        if self.tag in AUDIO_ONLY_TAGS and self.text_mode != "none":
            raise ConfigError(f"{self.tag} takes no text input; text_mode must be 'none'")
        if self.tag not in AUDIO_ONLY_TAGS and self.text_mode == "none":
            raise ConfigError(f"{self.tag} needs text; text_mode must be 'sparse' or 'dense'")

    @property
    def uses_text(self) -> bool:
        return self.text_mode != "none"

    @classmethod
    def parse(cls, tag, text_mode="none") -> "ModelVariant":
        if type(tag) is str and type(text_mode) is str:
            tag, text_mode = tag.strip().lower().replace("-", "_"), text_mode.strip().lower()
        return cls(tag, text_mode)


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    scale = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-scale, scale, shape), True)


class IntentClassifier:
    """One of the six variants, with its parameters and forward pass.

    forward() accepts batched (B, T, D) arrays with (B, T) masks, or one
    utterance as a FeatureSequence or a (T, D) array with its (T,) mask. It
    is the one place that turns a single utterance into a batch of 1 and
    back, so output rank follows input rank. aux carries the raw logits and
    every attention-weight matrix the variant produces.
    """

    def __init__(self, variant: ModelVariant, audio_dim: int, text_dim: int | None = None,
                 hidden: int = 64, head_hidden: int = 128, seed: int = 0):
        for key, value in (("audio_dim", audio_dim), ("text_dim", text_dim), ("hidden", hidden),
                           ("head_hidden", head_hidden)):
            # type() rather than isinstance(): JSON true must not pass as 1
            if not (type(value) is int and value >= 1 or key == "text_dim" and value is None):
                raise ConfigError(f"{key!r} must be a positive integer, got {value!r}")
        if variant.uses_text and not text_dim:
            raise ConfigError(f"{variant.tag} needs text_dim")
        self.variant = variant
        self.audio_dim = audio_dim
        self.text_dim = text_dim if variant.uses_text else None
        self.hidden = hidden
        self.head_hidden = head_hidden
        self.seed = seed

        rng = np.random.default_rng(seed)
        s = 2 * hidden  # state width of either encoder, also the attention dim
        tag = variant.tag
        self.audio_bre = init_bre(rng, audio_dim, hidden)
        self.audio_att = init_attention(rng, s, s, True) if tag != "audio_bre" else None
        self.text_bre = init_bre(rng, text_dim, hidden) if variant.uses_text else None
        self.text_att = init_attention(rng, s, s, True) if tag == "para_bre_att" else None
        self.text_xatt = init_attention(rng, s, s, False) if tag in ("mha_a", "mha_at", "ca") else None
        self.audio_xatt = init_attention(rng, s, s, False) if tag in ("mha_at", "ca") else None
        head_in = s if tag in AUDIO_ONLY_TAGS else 2 * s
        self.W1 = _uniform(rng, (head_in, head_hidden), head_in)
        self.b1 = Tensor(np.zeros(head_hidden), True)
        self.W2 = _uniform(rng, (head_hidden, N_CLASSES), head_hidden)
        self.b2 = Tensor(np.zeros(N_CLASSES), True)

    # ------------------------------------------------------------- forward

    def _head(self, x: Tensor) -> tuple[Tensor, Tensor]:
        h1 = ad.relu(ad.add(ad.matmul(x, self.W1), self.b1))
        logits = ad.add(ad.matmul(h1, self.W2), self.b2)
        return ad.masked_softmax(logits, np.ones(N_CLASSES)), logits

    def forward(self, audio, audio_mask=None, text=None, text_mask=None) -> tuple[Tensor, dict]:
        a, am, single = _as_batch(audio, audio_mask)
        if self.variant.uses_text:
            if text is None:
                raise ModalityError(f"{self.variant.tag} requires a text input")
            t, tm, _ = _as_batch(text, text_mask)
            if t.shape[0] != a.shape[0]:
                raise ShapeError(f"audio batch {a.shape[0]} != text batch {t.shape[0]}")
        aux: dict[str, Array] = {}
        tag = self.variant.tag

        H_a, f_a = bre_forward(a, self.audio_bre, am)
        if tag == "audio_bre":
            x = f_a
        else:
            w_a, r_a = self_attentive_pool(H_a, am, self.audio_att)
            aux["audio_self"] = w_a.data
            if tag == "audio_bre_att":
                x = r_a
            elif tag == "para_bre_att":
                H_t, _ = bre_forward(t, self.text_bre, tm)
                w_t, r_t = self_attentive_pool(H_t, tm, self.text_att)
                aux["text_self"] = w_t.data
                x = ad.concat_last([r_a, r_t])
            elif tag in ("mha_a", "mha_at"):
                H_t, _ = bre_forward(t, self.text_bre, tm)
                w_t1, r_t1 = attend(H_t, tm, self.text_xatt, r_a)
                aux["text_cross"] = w_t1.data
                if tag == "mha_a":
                    x = ad.concat_last([r_a, r_t1])
                else:
                    w_a2, r_a2 = attend(H_a, am, self.audio_xatt, r_t1)
                    aux["audio_cross"] = w_a2.data
                    x = ad.concat_last([r_t1, r_a2])
            else:  # ca
                H_t, f_t = bre_forward(t, self.text_bre, tm)
                w_tp, r_tp = attend(H_t, tm, self.text_xatt, r_a)
                w_ap, r_ap = attend(H_a, am, self.audio_xatt, f_t)
                aux["text_cross"] = w_tp.data
                aux["audio_cross"] = w_ap.data
                x = ad.concat_last([r_ap, r_tp])

        probs, logits = self._head(x)
        aux["logits"] = logits.data
        if single:
            probs = ad.reshape(probs, (N_CLASSES,))
            aux = {k: v[0] for k, v in aux.items()}
        return probs, aux

    # ---------------------------------------------------------- parameters

    def named_parameters(self) -> dict[str, Tensor]:
        pre = f"model.{self.variant.tag}"
        out: dict[str, Tensor] = {}
        for sub in ("audio_bre", "text_bre", "audio_att", "text_att", "text_xatt", "audio_xatt"):
            params = getattr(self, sub)
            if params is not None:
                out.update(params.named_parameters(f"{pre}.{sub}"))
        out[f"{pre}.head.W1"] = self.W1
        out[f"{pre}.head.b1"] = self.b1
        out[f"{pre}.head.W2"] = self.W2
        out[f"{pre}.head.b2"] = self.b2
        return out

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def num_params(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def state(self) -> dict[str, Array]:
        return {name: t.data for name, t in self.named_parameters().items()}

    def load_state(self, state: dict[str, Array]) -> None:
        own = self.named_parameters()
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise DataError(f"state mismatch: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
        for name, p in own.items():
            new = np.asarray(state[name], dtype=np.float64)
            if new.shape != p.data.shape:
                raise DataError(f"{name}: shape {new.shape} != expected {p.data.shape}")
            p.data = new.copy()
            p.grad = None

    def zero_like(self) -> None:
        """Set every parameter to zero (contract tests use this)."""
        for p in self.parameters():
            p.data = np.zeros_like(p.data)


def _as_batch(x, mask) -> tuple[Array, Array, bool]:
    """(data, mask, single): a single utterance becomes a batch of 1."""
    if isinstance(x, FeatureSequence):
        return x.data[None], x.mask[None], True
    data = np.asarray(x, dtype=np.float64)
    if mask is None:
        raise ShapeError("array inputs need an explicit mask")
    m = np.asarray(mask, dtype=np.float64)
    if data.ndim == 2:
        return data[None], m.reshape(1, -1), True
    return data, m, False


# ----------------------------------------------------------- serialization


def save_model(path, model: IntentClassifier, feature_cfg: FeatureConfig,
               embedding_path: str | None = None) -> None:
    """Write parameters (binary) plus a JSON sidecar describing the run."""
    checkpoint.save_params(path, model.state())
    meta = {
        "variant": model.variant.tag,
        "text_mode": model.variant.text_mode,
        "audio_dim": model.audio_dim,
        "text_dim": model.text_dim,
        "hidden": model.hidden,
        "head_hidden": model.head_hidden,
        "labels": list(INTENT_LABELS),
        "features": asdict(feature_cfg),
        "embedding_path": embedding_path,
    }
    checkpoint.write_atomic(f"{path}.json", json.dumps(meta, indent=1).encode("utf-8"))


def load_model(path) -> tuple[IntentClassifier, FeatureConfig, dict]:
    """Rebuild a model from a checkpoint and its sidecar."""
    sidecar = f"{path}.json"
    try:
        with open(sidecar, encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read sidecar {sidecar}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"sidecar {sidecar} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"sidecar {sidecar} must hold a JSON object")
    for key in _SIDECAR_KEYS:
        if key not in meta:
            raise DataError(f"sidecar {sidecar} lacks the key {key!r}")
    for key in ("variant", "text_mode"):
        if not isinstance(meta[key], str):
            raise DataError(f"sidecar {sidecar}: {key!r} must be a string, got {meta[key]!r}")
    if meta["labels"] != list(INTENT_LABELS):
        raise DataError(f"sidecar {sidecar} carries an unknown label order")
    try:  # well-typed values that do not fit together are corrupt state, not config
        variant = ModelVariant(meta["variant"], meta["text_mode"])
        model = IntentClassifier(variant, meta["audio_dim"], meta["text_dim"],
                                 hidden=meta["hidden"], head_hidden=meta["head_hidden"])
        fcfg = FeatureConfig(**read_section("feature", meta["features"], FeatureConfig))
    except ConfigError as exc:
        raise DataError(f"sidecar {sidecar}: {exc}") from exc
    model.load_state(checkpoint.load_params(path))
    return model, fcfg, meta
