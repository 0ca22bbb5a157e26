"""The three workloads: inputs, unit operations, bulk passes, CLI runs, checks.

Every workload reaches ambispeech through its public calls or its CLI:
in-process through `cli.main`, and as a fresh interpreter through
`python -m ambispeech.cli`. All inputs come from the seed. Each workload
builds its inputs under the directory given to `setup` and writes nothing
anywhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np

import checks
from ambispeech import cli, corpus, features, models, synth, training
from ambispeech.corpus import IntentLabel, UtteranceRecord
from ambispeech.features import FeatureConfig
from ambispeech.models import IntentClassifier, ModelVariant

VARIANT = ("ca", "sparse")
FEATURES = FeatureConfig()  # the CLI's defaults: 16 kHz, n_fft 1024, hop 256, 128 mels


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`ambispeech <argv>` in this process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue()


class ChildCLI:
    """`python -m ambispeech.cli` in a fresh interpreter on the checkout's src/."""

    def __init__(self, src: str):
        self.env = dict(os.environ, PYTHONPATH=src)

    def run(self, argv: list[str]) -> tuple[int, str, float]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "ambispeech.cli", *map(str, argv)],
                              env=self.env, capture_output=True, text=True, timeout=120)
        ms = (time.perf_counter() - t0) * 1e3
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout, ms


def dir_bytes(*paths: str) -> int:
    total = 0
    for top in paths:
        for base, _, files in os.walk(top):
            total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


FEATURIZE_COUNTS = re.compile(r"featurized (\d+)/(\d+) records \(computed (\d+), reused (\d+)\)")


def featurize_counts(stdout: str) -> tuple[int, int, int]:
    """(records featurized, computed, reused) from featurize's summary line."""
    m = FEATURIZE_COUNTS.search(stdout)
    if m is None:
        raise RuntimeError(f"featurize printed no summary: {stdout!r}")
    return int(m.group(1)), int(m.group(3)), int(m.group(4))


# --------------------------------------------------------------- long tail

SHORT_SYLLABLES = (2, 3, 3, 4, 4, 5)
LONG_SYLLABLES = (32, 36, 40)
LONG_EVERY = 16  # one utterance in 16 is ten times longer than the rest


def longtail_corpus(out_dir: str, seed: int, n: int) -> tuple[str, list[UtteranceRecord]]:
    """Render n utterances whose lengths follow a fixed long-tailed schedule.

    The schedule (which index is long, how many syllables each has) does not
    depend on the seed; the seed picks syllables, intents, speakers and the
    rendering jitter. The longest utterance, which sets audio_t_max, is
    therefore always one of 40 syllables.
    """
    os.makedirs(os.path.join(out_dir, "wav"), exist_ok=True)
    rng = np.random.default_rng([seed, 2718])
    labels = list(IntentLabel)
    records = []
    for i in range(n):
        if i % LONG_EVERY == LONG_EVERY - 1:
            k = LONG_SYLLABLES[(i // LONG_EVERY) % len(LONG_SYLLABLES)]
        else:
            k = SHORT_SYLLABLES[i % len(SHORT_SYLLABLES)]
        sylls = [synth.DEFAULT_SYLLABARY[j]
                 for j in rng.integers(0, len(synth.DEFAULT_SYLLABARY), k)]
        words = ["".join(sylls[w : w + 5]) for w in range(0, k, 5)]
        transcript = " ".join(words)
        label = labels[int(rng.integers(0, len(labels)))]
        speaker = "mf"[int(rng.integers(0, 2))]
        signal = synth.render_utterance(transcript, synth.DEFAULT_CONTOURS[label.name], speaker,
                                        np.random.default_rng([seed, 31337, i]))
        rel = os.path.join("wav", f"lt{i:04d}.wav")
        features.write_wav(os.path.join(out_dir, rel), signal)
        records.append(UtteranceRecord(f"lt{i:04d}", rel, transcript, label, speaker))
    manifest = os.path.join(out_dir, "manifest.tsv")
    corpus.write_manifest(manifest, records)
    return manifest, records


# --------------------------------------------------------------- workloads


class Workload:
    """One workload. `setup` builds every input under one directory; the
    runner then takes turns between `op_chunk`, `bulk_pass` and `cli_run`
    until the time is up, and calls `check` once at the end."""

    name = ""
    CHUNK = 1  # unit ops per turn
    MIN_OPS = 100  # so that ten ops lie beyond the 90th percentile

    def __init__(self, seed: int, child: ChildCLI):
        self.seed = seed
        self.child = child
        self.failures: list[str] = []  # check failures seen during the run

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def setup(self, root: str) -> None:
        raise NotImplementedError

    def op(self, item) -> bool:
        """One unit operation on `item`, an entry of self.order; True if it worked."""
        raise NotImplementedError

    def op_chunk(self) -> tuple[list[float], int]:
        """Latencies (ms) of the next CHUNK ops, cycling through self.order,
        and how many of them failed."""
        lat, failed = [], 0
        for _ in range(self.CHUNK):
            item = self.order[self.next_op % len(self.order)]
            self.next_op += 1
            t0 = time.perf_counter()
            ok = self.op(item)
            lat.append((time.perf_counter() - t0) * 1e3)
            failed += not ok
        return lat, failed

    def bulk_pass(self) -> tuple[int, bool, float]:
        """One bulk pass: records processed, success, and its seconds."""
        raise NotImplementedError

    def cli_run(self) -> tuple[float, bool]:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def output_dirs(self) -> list[str]:
        raise NotImplementedError


class Train(Workload):
    """`ambispeech train` for ca with sparse text on the default synthetic corpus."""

    name = "train"
    SCRIPTS = 80  # 160 records
    EPOCHS = 8  # per bulk pass
    BATCH = 64
    CLI_SCRIPTS = 8
    CLI_EPOCHS = 2

    def setup(self, root: str) -> None:
        self.root = root
        spec = synth.SyntheticSpec(n_scripts=self.SCRIPTS, seed=self.seed)
        self.corpus_dir = os.path.join(root, "corpus")
        self.manifest, records = synth.generate_synthetic(spec, self.corpus_dir)
        self.wav0 = os.path.join(self.corpus_dir, records[0].audio)
        self.cache = os.path.join(root, "cache")
        rc, out = run_cli(["featurize", "--manifest", self.manifest, "--cache-dir", self.cache])
        self.expect(rc == 0, f"set-up featurize exited {rc}")
        examples, fcfg = corpus.featurize_corpus(records, FEATURES, VARIANT[1],
                                                 base_dir=self.corpus_dir)
        self.fcfg = fcfg
        self.train_set, _ = training.split_records(examples, 0.9, self.seed)
        self.model = IntentClassifier(ModelVariant(*VARIANT), fcfg.audio_dim,
                                      examples[0].text.dim, seed=self.seed)
        self.opt = training.Adam(self.model.parameters())
        ts = self.train_set
        self.arrays = [np.stack([e.audio.data for e in ts]), np.stack([e.audio.mask for e in ts]),
                       np.stack([e.text.data for e in ts]), np.stack([e.text.mask for e in ts])]
        self.labels = np.array([e.label for e in self.train_set])
        rng = np.random.default_rng([self.seed, 64])
        self.order = [rng.choice(len(ts), self.BATCH, replace=False) for _ in range(50)]
        self.next_op = 0
        small = synth.SyntheticSpec(n_scripts=self.CLI_SCRIPTS, seed=self.seed)
        self.small_manifest, _ = synth.generate_synthetic(small, os.path.join(root, "small"))
        self.small_cache = os.path.join(root, "small_cache")
        rc, _ = run_cli(["featurize", "--manifest", self.small_manifest,
                         "--cache-dir", self.small_cache])
        self.expect(rc == 0, f"set-up featurize of the CLI corpus exited {rc}")
        self.out = None
        self.passes = 0

    def op(self, idx) -> bool:
        """One optimisation step on a full batch: forward, loss, backward, Adam."""
        probs, _ = self.model.forward(*(a[idx] for a in self.arrays))
        loss = training.cross_entropy(probs, self.labels[idx])
        self.opt.zero_grad()
        loss.backward()
        self.opt.step()
        return bool(np.isfinite(loss.item()))

    def train_argv(self, manifest, cache, out, epochs) -> list:
        return ["train", "--manifest", manifest, "--cache-dir", cache, "--out", out,
                "--variant", VARIANT[0], "--text-mode", VARIANT[1], "--epochs", epochs,
                "--seed", self.seed]

    def bulk_pass(self):
        if self.out is not None:
            shutil.rmtree(self.out)
        self.passes += 1
        self.out = os.path.join(self.root, f"run{self.passes}")
        t0 = time.perf_counter()
        rc, _ = run_cli(self.train_argv(self.manifest, self.cache, self.out, self.EPOCHS))
        return len(self.train_set) * self.EPOCHS, rc == 0, time.perf_counter() - t0

    def cli_run(self):
        out = os.path.join(self.root, "cli_run")
        rc, _, ms = self.child.run(self.train_argv(self.small_manifest, self.small_cache,
                                                   out, self.CLI_EPOCHS))
        shutil.rmtree(out, ignore_errors=True)
        return ms, rc == 0

    def check(self) -> None:
        log = os.path.join(self.out, "log.csv")
        self.expect(os.path.isfile(log), "the last train pass wrote no log.csv")
        if not os.path.isfile(log):
            return
        with open(log, encoding="utf-8") as fh:
            rows = checks.parse_log_csv(fh.read())
        self.expect(len(rows) == self.EPOCHS, f"log.csv has {len(rows)} epochs")
        self.expect(rows[-1][3] < rows[0][3],
                    f"last epoch loss {rows[-1][3]} is not below the first {rows[0][3]}")
        with open(os.path.join(self.out, "report.txt"), encoding="utf-8") as fh:
            values, _ = checks.parse_report(fh.read())
        chosen = int(values["selected_epoch"])
        self.expect(chosen == checks.select_epoch(rows),
                    f"selected_epoch {chosen} != top-5/top-5 rule {checks.select_epoch(rows)}")
        self.check_gradient()

    def check_gradient(self, entries: int = 8, eps: float = 1e-6) -> None:
        """Central differences of the ca loss against backward() on one batch."""
        model = IntentClassifier(ModelVariant(*VARIANT), self.fcfg.audio_dim,
                                 self.arrays[2].shape[2], seed=self.seed)
        batch = [a[: self.BATCH] for a in self.arrays]
        labels = self.labels[: self.BATCH]

        def loss():
            probs, _ = model.forward(*batch)
            return training.cross_entropy(probs, labels)

        params = model.named_parameters()
        loss().backward()
        rng = np.random.default_rng([self.seed, 99])
        names = sorted(params)
        for name in rng.choice(names, entries, replace=False):
            p = params[name]
            k = int(rng.integers(0, p.data.size))
            analytic = float(p.grad.ravel()[k])
            flat = p.data.reshape(-1)
            orig = flat[k]
            flat[k] = orig + eps
            up = loss().item()
            flat[k] = orig - eps
            down = loss().item()
            flat[k] = orig
            numeric = (up - down) / (2 * eps)
            self.expect(abs(analytic - numeric) <= 1e-7 + 1e-4 * abs(analytic),
                        f"gradient of {name}[{k}]: backward {analytic:.10g}, "
                        f"central difference {numeric:.10g}")

    def output_dirs(self):
        return [self.out, self.cache]


class Featurize(Workload):
    """`ambispeech featurize` into an empty cache, over a larger corpus."""

    name = "featurize"
    SCRIPTS = 240  # 480 records
    CLI_RECORDS = 32
    SAMPLE = 6  # records checked against the reference front end
    CHUNK = 48

    def setup(self, root: str) -> None:
        self.root = root
        spec = synth.SyntheticSpec(n_scripts=self.SCRIPTS, seed=self.seed)
        self.corpus_dir = os.path.join(root, "corpus")
        self.manifest, self.records = synth.generate_synthetic(spec, self.corpus_dir)
        # beside the full manifest, so that the relative WAV paths resolve
        self.small_manifest = os.path.join(self.corpus_dir, "small.tsv")
        corpus.write_manifest(self.small_manifest, self.records[: self.CLI_RECORDS])
        self.wavs = [os.path.join(self.corpus_dir, r.audio) for r in self.records]
        self.wav0 = self.wavs[0]
        self.order = np.random.default_rng([self.seed, 5]).permutation(len(self.records))
        self.next_op = 0
        self.ops_cache = os.path.join(root, "ops_cache")
        os.makedirs(self.ops_cache)
        features.read_wav(self.wavs[0])  # the first read pays for its imports
        self.cache = None
        self.passes = 0
        self.counts: list[tuple[int, int, int]] = []

    def op(self, i) -> bool:
        """One record, from its WAV to a written cache record."""
        mat = features.audio_frame_matrix(features.read_wav(self.wavs[i]), FEATURES)
        features.save_feature_sequence(os.path.join(self.ops_cache, f"{i}.ambf"),
                                       features.end_align(mat))
        return True

    def bulk_pass(self):
        if self.cache is not None:
            shutil.rmtree(self.cache)
        self.passes += 1
        self.cache = os.path.join(self.root, f"cache{self.passes}")
        t0 = time.perf_counter()
        rc, out = run_cli(["featurize", "--manifest", self.manifest, "--cache-dir", self.cache])
        seconds = time.perf_counter() - t0
        self.counts.append(featurize_counts(out))
        return len(self.records), rc == 0, seconds

    def cli_run(self):
        cache = os.path.join(self.root, "cli_cache")
        rc, out, ms = self.child.run(["featurize", "--manifest", self.small_manifest,
                                      "--cache-dir", cache])
        shutil.rmtree(cache, ignore_errors=True)
        self.expect(rc != 0 or featurize_counts(out) == (self.CLI_RECORDS, self.CLI_RECORDS, 0),
                    f"child featurize into an empty cache printed {out.strip()!r}")
        return ms, rc == 0

    def check(self) -> None:
        n = len(self.records)
        for got in self.counts:
            self.expect(got == (n, n, 0), f"featurize into an empty cache printed {got}, "
                                          f"expected computed {n}, reused 0")
        names = os.listdir(self.cache)
        self.expect(len(names) == n, f"cache holds {len(names)} records for {n} WAVs")
        for name in names:
            _, mask = checks.read_feature_record(os.path.join(self.cache, name))
            self.expect(bool(np.all(mask == 1.0)), f"cache record {name} carries padding")
        rng = np.random.default_rng([self.seed, 17])
        for i in rng.choice(n, self.SAMPLE, replace=False):
            self.check_record(int(i))
        self.check_mel_peaks(rng)

    def check_record(self, i: int) -> None:
        """Record i's entry in the last pass's cache matches the reference
        log-mel + RMS. The entry's name comes from featurizing record i alone
        into an empty cache, where the one file written must be its own."""
        rid = self.records[i].id
        manifest = os.path.join(self.corpus_dir, "one.tsv")  # beside the WAVs
        corpus.write_manifest(manifest, [self.records[i]])
        alone = os.path.join(self.root, "one_cache")
        rc, out = run_cli(["featurize", "--manifest", manifest, "--cache-dir", alone])
        names = os.listdir(alone)
        shutil.rmtree(alone)
        self.expect(rc == 0 and featurize_counts(out) == (1, 1, 0) and len(names) == 1,
                    f"{rid}: featurize alone printed {out.strip()!r} and wrote {names}")
        if len(names) != 1:
            return
        entry = os.path.join(self.cache, names[0])
        self.expect(os.path.isfile(entry), f"{rid}: the cache has no entry {names[0]}")
        if not os.path.isfile(entry):
            return
        data, _ = checks.read_feature_record(entry)
        samples, rate = checks.read_pcm16(self.wavs[i])
        ref = checks.log_mel_rms(samples, rate, FEATURES.n_fft, FEATURES.hop, FEATURES.n_mels)
        err = float(np.max(np.abs(data - ref))) if data.shape == ref.shape else np.inf
        self.expect(err <= 1e-9, f"{rid}: cache entry {names[0]} differs from the reference "
                                 f"log-mel + RMS by {err:.3g} (shapes {data.shape}, {ref.shape})")

    def check_mel_peaks(self, rng, filters: int = 4) -> None:
        """A sine at a mel filter's centre frequency peaks in that filter."""
        edges = checks.mel_edges(FEATURES.sample_rate, FEATURES.n_mels)
        bin_hz = FEATURES.sample_rate / FEATURES.n_fft
        # filters at least four FFT bins wide, so one bin cannot straddle two
        wide = [j for j in range(FEATURES.n_mels) if edges[j + 1] - edges[j] >= 4 * bin_hz]
        t = np.arange(FEATURES.sample_rate // 2) / FEATURES.sample_rate
        for j in rng.choice(wide, filters, replace=False):
            sine = features.AudioSignal(0.5 * np.sin(2 * np.pi * edges[j + 1] * t),
                                        FEATURES.sample_rate)
            mat = features.audio_frame_matrix(sine, FEATURES)
            peak = int(np.argmax(mat[mat.shape[0] // 2, : FEATURES.n_mels]))
            self.expect(peak == j, f"a sine at {edges[j + 1]:.1f} Hz peaks in mel filter "
                                   f"{peak}, not {j}")

    def output_dirs(self):
        return [self.cache]


class InferLongtail(Workload):
    """Inference with a saved ca model on a long-tailed corpus."""

    name = "infer_longtail"
    RECORDS = 160
    SAMPLE = 8  # utterances checked against the reference forward
    CHUNK = LONG_EVERY  # each chunk holds exactly one long utterance
    MIN_OPS = RECORDS  # every utterance is classified at least once

    def setup(self, root: str) -> None:
        self.root = root
        self.corpus_dir = os.path.join(root, "corpus")
        self.manifest, self.records = longtail_corpus(self.corpus_dir, self.seed, self.RECORDS)
        self.wavs = [os.path.join(self.corpus_dir, r.audio) for r in self.records]
        self.wav0 = self.wavs[0]
        self.cache = os.path.join(root, "cache")
        rc, out = run_cli(["featurize", "--manifest", self.manifest, "--cache-dir", self.cache])
        n = len(self.records)
        self.expect(rc == 0 and featurize_counts(out) == (n, n, 0),
                    f"set-up featurize printed {out.strip()!r}")
        longest = max(self.wavs, key=os.path.getsize)
        t_max = features.audio_frame_matrix(features.read_wav(longest), FEATURES).shape[0]
        text_t_max = max(len(r.transcript.strip()) for r in self.records)
        fcfg = FeatureConfig(audio_t_max=t_max, text_t_max=text_t_max)
        model = IntentClassifier(ModelVariant(*VARIANT), fcfg.audio_dim,
                                 features.encode_sparse("가").dim, seed=self.seed)
        self.model_path = os.path.join(root, "model", "ca.ambi")
        os.makedirs(os.path.dirname(self.model_path))
        models.save_model(self.model_path, model, fcfg)
        self.model, self.fcfg, _ = models.load_model(self.model_path)
        rng = np.random.default_rng([self.seed, 3])
        blocks = rng.permutation(n // LONG_EVERY) * LONG_EVERY
        self.order = [int(b + j) for b in blocks for j in rng.permutation(LONG_EVERY)]
        self.next_op = 0
        self.probs: dict[int, np.ndarray] = {}
        self.cached = sorted(os.listdir(self.cache))
        self.confusions: list[np.ndarray] = []
        self.cli_labels: list[str] = []

    def op(self, i) -> bool:
        """One utterance, from its WAV path to seven probabilities."""
        audio = features.audio_features(features.read_wav(self.wavs[i]), self.fcfg)
        text = features.encode_sparse(self.records[i].transcript, self.fcfg.text_t_max)
        probs, _ = self.model.forward(audio, text=text)
        self.probs[i] = probs.data
        return True

    def bulk_pass(self):
        t0 = time.perf_counter()
        rc, out = run_cli(["eval", "--checkpoint", self.model_path, "--manifest", self.manifest,
                           "--cache-dir", self.cache])
        seconds = time.perf_counter() - t0
        if rc == 0:
            self.confusions.append(checks.parse_report(out)[1])
        return len(self.records), rc == 0, seconds

    def cli_run(self):
        r = self.records[0]
        rc, out, ms = self.child.run(["predict", "--checkpoint", self.model_path,
                                      "--wav", self.wavs[0], "--transcript", r.transcript])
        if rc == 0:
            self.cli_labels.append(json.loads(out)["label"])
        return ms, rc == 0

    def check(self) -> None:
        n = len(self.records)
        self.expect(sorted(os.listdir(self.cache)) == self.cached,
                    "eval over a warm cache changed the cache")
        self.expect(len(self.probs) == n, f"{len(self.probs)} of {n} utterances classified")
        if len(self.probs) < n:
            return
        probs = np.array([self.probs[i] for i in range(n)])
        self.expect(bool(np.all(np.isfinite(probs))), "a probability is not finite")
        self.expect(float(np.max(np.abs(probs.sum(axis=1) - 1.0))) <= 1e-12,
                    "a probability row does not sum to 1")
        labels = probs.argmax(axis=1)
        truth = [int(r.label) for r in self.records]
        single = checks.confusion_of(truth, labels)
        self.expect(bool(self.confusions), "no eval pass printed a confusion matrix")
        self.expect(bool(self.cli_labels), "no predict run printed a label")
        for conf in self.confusions:
            self.expect(np.array_equal(conf, single),
                        "eval's confusion matrix differs from the single-utterance labels")
        first = corpus.INTENT_LABELS[labels[0]]
        self.expect(all(lbl == first for lbl in self.cli_labels),
                    f"predict printed {set(self.cli_labels)}, in-process label is {first}")

        rng = np.random.default_rng([self.seed, 23])
        longs = [i for i in range(n) if i % LONG_EVERY == LONG_EVERY - 1]
        sample = list(rng.choice(longs, 2, replace=False))
        sample += list(rng.choice([i for i in range(n) if i not in longs], self.SAMPLE - 2,
                                  replace=False))
        examples, _ = corpus.featurize_corpus([self.records[i] for i in sample], self.fcfg,
                                              VARIANT[1], base_dir=self.corpus_dir)
        params = {k: t.data for k, t in self.model.named_parameters().items()}
        for i, ex in zip(sample, examples):
            ref = checks.ca_probs(params, ex.audio.data, ex.audio.mask, ex.text.data,
                                  ex.text.mask)
            err = float(np.max(np.abs(ref - self.probs[i])))
            self.expect(err <= 1e-9, f"{self.records[i].id}: probabilities differ from the "
                                     f"reference forward by {err:.3g}")
            report = training.evaluate(self.model, [ex])
            eval_label = int(np.argmax(report.confusion.sum(axis=0)))
            self.expect(eval_label == labels[i], f"{self.records[i].id}: evaluate says "
                                                 f"{eval_label}, single utterance {labels[i]}")

    def output_dirs(self):
        return [self.cache, os.path.dirname(self.model_path)]


WORKLOADS = {w.name: w for w in (Train, Featurize, InferLongtail)}
