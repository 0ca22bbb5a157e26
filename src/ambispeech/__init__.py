"""Intent classification for prosodically ambiguous Korean speech.

Reverse-mode autodiff over numpy, bidirectional recurrent encoders with
additive attention, six model variants from audio-only to cross-attended
multimodal, and a synthetic corpus generator for controlled experiments.
"""

from .autodiff import REGISTERED_OPS, Tensor, gradient_check, masked_softmax
from .checkpoint import load_params, save_params
from .corpus import (INTENT_LABELS, Example, IntentLabel, UtteranceRecord,
                     featurize_corpus, load_embedding_table, load_manifest,
                     save_embedding_table, write_manifest)
from .encoders import (AttentionParams, BREParams, attend, bre_forward,
                       init_attention, init_bre, self_attentive_pool)
from .errors import (ConfigError, DataError, DegenerateMaskError,
                     EmptyInputError, LabelError, ManifestError,
                     ModalityError, NonFiniteError, ShapeError)
from .features import (AudioSignal, EmbeddingTable, FeatureConfig,
                       FeatureSequence, audio_features, encode_dense,
                       encode_sparse, end_align, load_feature_sequence,
                       mel_center_frequencies, mel_filterbank,
                       mel_spectrogram, read_wav, rmse_frames,
                       save_feature_sequence, write_wav)
from .hangul import char_row, compose, decompose
from .models import (VARIANT_TAGS, IntentClassifier, ModelVariant,
                     load_model, save_model)
from .synth import SyntheticSpec, generate_synthetic, render_utterance
from .training import (Adam, EpochRecord, EvalReport, TrainConfig,
                       cross_entropy, evaluate, format_report,
                       select_checkpoint, split_records, train)

__version__ = "0.1.0"

__all__ = [
    "Adam", "AttentionParams", "AudioSignal", "BREParams", "ConfigError",
    "DataError", "DegenerateMaskError", "EmbeddingTable", "EmptyInputError",
    "EpochRecord", "EvalReport", "Example", "FeatureConfig",
    "FeatureSequence", "INTENT_LABELS", "IntentClassifier", "IntentLabel",
    "LabelError", "ManifestError", "ModalityError", "ModelVariant",
    "NonFiniteError",
    "REGISTERED_OPS", "ShapeError", "SyntheticSpec", "Tensor", "TrainConfig",
    "UtteranceRecord", "VARIANT_TAGS", "attend", "audio_features",
    "bre_forward", "char_row", "compose", "cross_entropy", "decompose",
    "encode_dense", "encode_sparse",
    "end_align", "evaluate", "featurize_corpus", "format_report",
    "generate_synthetic", "gradient_check", "init_attention", "init_bre",
    "load_embedding_table", "load_feature_sequence", "load_manifest",
    "load_model", "load_params", "masked_softmax", "mel_center_frequencies",
    "mel_filterbank", "mel_spectrogram", "read_wav", "render_utterance",
    "rmse_frames",
    "save_embedding_table", "save_feature_sequence", "save_model",
    "save_params", "select_checkpoint", "self_attentive_pool",
    "split_records", "train", "write_manifest", "write_wav",
]
