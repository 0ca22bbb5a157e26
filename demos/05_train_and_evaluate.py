"""
Training two variants on one corpus
===================================

A compact end-to-end run: generate a corpus whose scripts are ambiguous
between question types, featurize it, then train an audio-only model and
a multimodal one under identical settings. The audio-only model can
solve this corpus (the contours differ), just more slowly; swapping the
script mix toward statement/command pairs is what breaks it.
"""

import tempfile

from ambispeech import (FeatureConfig, IntentClassifier, ModelVariant,
                        SyntheticSpec, TrainConfig, evaluate, featurize_corpus,
                        generate_synthetic, load_manifest, select_checkpoint,
                        split_records, train)
from ambispeech.corpus import Example

spec = SyntheticSpec(n_scripts=24, variants_per_script=2, seed=3,
                     script_types=("ynwh", "rqrc"))
fcfg = FeatureConfig(n_mels=16, n_fft=512, hop=256)
tcfg = TrainConfig(max_epochs=25, batch_size=8, seed=3, split_ratio=0.75)

with tempfile.TemporaryDirectory() as out_dir:
    manifest, _ = generate_synthetic(spec, out_dir)
    examples, resolved = featurize_corpus(load_manifest(manifest), fcfg, "sparse",
                                          base_dir=out_dir)

print(f"{len(examples)} examples, audio dim {resolved.audio_dim}, "
      f"text dim {examples[0].text.dim}")
train_set, test_set = split_records(examples, tcfg.split_ratio, tcfg.seed)
print(f"split: {len(train_set)} train / {len(test_set)} test (per speaker)")

for tag in ("audio_bre", "mha_a"):
    text_mode = "none" if tag == "audio_bre" else "sparse"
    if text_mode == "none":
        ex_tr = [Example(e.id, e.audio, None, e.label, e.speaker, e.transcript)
                 for e in train_set]
        ex_te = [Example(e.id, e.audio, None, e.label, e.speaker, e.transcript)
                 for e in test_set]
    else:
        ex_tr, ex_te = train_set, test_set
    model = IntentClassifier(ModelVariant.parse(tag, text_mode),
                             audio_dim=resolved.audio_dim,
                             text_dim=examples[0].text.dim if text_mode != "none" else None,
                             hidden=16, head_hidden=32, seed=tcfg.seed)
    records = train(model, ex_tr, ex_te, tcfg)
    best = select_checkpoint(records)
    model.load_state(best.checkpoint)
    report = evaluate(model, ex_te)
    print(f"{tag:10s} epoch {best.epoch:2d}/{tcfg.max_epochs}: "
          f"accuracy {report.accuracy:.3f}, macro F1 {report.macro_f1:.3f}")
