"""
Reading the attention weights
=============================

Every model variant beyond the plain encoder exposes its attention
distributions, one weight per valid frame or character. This run trains
briefly on rhetorical question/command pairs, then dumps where the model
looks, in the audio per label and in the text per character. Weights
always cover exactly the valid span; padded rows get none.
"""

import tempfile

import numpy as np

from ambispeech import (FeatureConfig, IntentClassifier, ModelVariant,
                        SyntheticSpec, TrainConfig, featurize_corpus,
                        generate_synthetic, load_manifest, train)

spec = SyntheticSpec(n_scripts=16, variants_per_script=2, seed=11,
                     script_types=("rqrc",))
fcfg = FeatureConfig(n_mels=16, n_fft=512, hop=256)
tcfg = TrainConfig(max_epochs=30, batch_size=8, seed=11)

with tempfile.TemporaryDirectory() as out_dir:
    manifest, _ = generate_synthetic(spec, out_dir)
    examples, resolved = featurize_corpus(load_manifest(manifest), fcfg, "sparse",
                                          base_dir=out_dir)

model = IntentClassifier(ModelVariant.parse("mha_a", "sparse"),
                         audio_dim=resolved.audio_dim,
                         text_dim=examples[0].text.dim,
                         hidden=16, head_hidden=32, seed=11)
records = train(model, examples, examples, tcfg)
print(f"train accuracy after {tcfg.max_epochs} epochs: {records[-1].accuracy:.3f}")

# Forward one example of each label from the same script and dump the
# attention over audio frames in coarse thirds.
by_label = {}
for e in examples:
    if e.transcript == examples[0].transcript:
        by_label[e.label] = e

for label, e in sorted(by_label.items()):
    probs, aux = model.forward(e.audio, text=e.text)
    w = aux["audio_self"]
    thirds = [w[i * len(w) // 3:(i + 1) * len(w) // 3].sum() for i in range(3)]
    name = ["S", "YN", "WH", "RQ", "C", "R", "RC"][label]
    print(f"label {name}: predicted p({name}) = {probs.data[label]:.3f}, "
          f"audio attention by thirds = "
          f"{' / '.join(f'{t:.2f}' for t in thirds)}")

# Text attention rows align one-to-one with transcript characters.
e = examples[0]
probs, aux = model.forward(e.audio, text=e.text)
wt = aux["text_cross"]
top = np.argsort(wt)[::-1][:3]
chars = list(e.transcript)
print(f"transcript: {e.transcript!r}")
print("most attended characters:",
      ", ".join(f"{chars[i]!r} ({wt[i]:.2f})" for i in sorted(top)))
