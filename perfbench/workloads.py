"""The three workloads, their correctness checks and the measurement loop.

Every workload goes through the library's public entry points only.  A
workload has a set-up step, which builds everything a job needs and is
timed as ``setup_s``, and a job, which is the unit of work that is timed
and checked:

* ``train_short`` / ``train_long``: one ``train_model`` call (one epoch,
  with the dev parse that ``train_model`` runs after each epoch) on one
  slice of the training data, starting from a model freshly loaded from
  the bytes written in set-up.  The slices together cover the training
  set once.  Only ``train_model`` is timed.
* ``parse_docs``: one document, processed as ``conjparse parse`` followed
  by ``conjparse evaluate`` would process it.  The whole job is timed.

A job does its preparation and its checks inside ``unmeasured()``, a
context that a traced run sets to ``Tracer.pause``, so that only the timed
work reaches the per-layer metrics.

The loop cycles through the inputs (slices or documents), so every input
runs many times in a run.  Each repeat must give the same output
fingerprint, and the run is measured over its whole passes.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, ContextManager, Dict, List, Sequence

# Library functions are called through their modules, never bound here by
# name, so that the tracer's wrappers see every call the benchmark makes.
from conjparse import evaluation, parser, training, treebank
from conjparse.model import Hyperparams, Model, Vocabulary
from conjparse.resources import (EmbeddingTable, FeatureResources, LemmaLexicon,
                                 SentimentLexicon)
from conjparse.treebank import LabelInventory, Sentence

from corpus import Lexicon, check_tree, conj_arc_frac, corpus, spread_lengths

DATA = Path(__file__).resolve().parent.parent / "data"

# Same rule as conjparse.evaluation: punctuation tokens are not scored.
PUNCT_POS = frozenset({"``", "''", ":", ",", "."})

# parse_docs uses one model for every seed: the seed only picks documents.
PARSE_MODEL_SEED = 11
# Sentence lengths, and how they fall into slices and documents, are the
# same for every seed: the median slice or document is then equally long
# on every seed, and ``job_ms_p50`` differs between seeds by the words and
# trees alone.  The seed of that fixed order:
LAYOUT_SEED = 11
# Few enough documents that one pass over them takes under a second, so
# that each document repeats many times in a run.
N_DOCS = 20


def load_resources() -> FeatureResources:
    return FeatureResources(
        lemmas=LemmaLexicon.load(DATA / "lemmas.tsv"),
        sentiment=SentimentLexicon.load(DATA / "sentiment_positive.txt",
                                        DATA / "sentiment_negative.txt"),
        embeddings=EmbeddingTable.load(DATA / "embeddings_sample.txt"),
    )


def read_sample() -> List[Sentence]:
    return treebank.read_conll(DATA / "sample_treebank.conllx")


def model_bytes(model: Model) -> bytes:
    buffer = io.BytesIO()
    model.save(buffer)
    return buffer.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# jobs and their checks


@dataclass
class Quality:
    """Token counts behind LAS and conj Rel+Att F1."""

    counted: int = 0
    labeled: int = 0
    conj_tp: int = 0
    conj_gold: int = 0
    conj_pred: int = 0

    def add(self, other: "Quality") -> None:
        for name in vars(self):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def las(self) -> float:
        return 100.0 * self.labeled / self.counted if self.counted else 0.0

    @property
    def conj_f1(self) -> float:
        total = self.conj_gold + self.conj_pred
        return 100.0 * 2 * self.conj_tp / total if total else 0.0


@dataclass
class Job:
    key: int
    seconds: float
    sentences: int
    tokens: int
    fingerprint: Dict[str, object]
    quality: Quality
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def score_parses(gold: Sequence[Sentence], pred: Sequence[Sentence],
                 problems: List[str]) -> tuple:
    """(Quality, invalid tree count) by the benchmark's own count.

    ``pred`` tokens carry predictions in ``pred_head``/``pred_label``, or in
    the gold columns when read back from written CoNLL.
    """
    quality = Quality()
    invalid = 0
    for g_sent, p_sent in zip(gold, pred):
        heads, labels = [], []
        for tok in p_sent:
            heads.append(tok.pred_head if tok.pred_head is not None else tok.gold_head)
            labels.append(tok.pred_label if tok.pred_label is not None else tok.gold_label)
        why = check_tree(heads)
        if why:
            invalid += 1
            problems.append(f"invalid parse ({why})")
        for g_tok, head, label in zip(g_sent, heads, labels):
            if g_tok.gold_label == "punct" or g_tok.pos in PUNCT_POS:
                continue
            quality.counted += 1
            quality.labeled += head == g_tok.gold_head and label == g_tok.gold_label
            quality.conj_gold += g_tok.gold_label == "conj"
            quality.conj_pred += label == "conj"
            quality.conj_tp += (g_tok.gold_label == "conj" and label == "conj"
                                and head == g_tok.gold_head)
    if len(gold) != len(pred):
        invalid += abs(len(gold) - len(pred))
        problems.append("parser returned a different number of sentences")
    return quality, invalid


@dataclass
class TrainState:
    """A model's bytes and the training slices that jobs train it on.

    Key ``k`` trains the model from set-up on ``train[k]`` with dev set
    ``dev[k]``.  The slices keep a job under a quarter second, so every
    slice repeats many times within a run (see ``Run.whole_passes``).
    """

    seed: int
    resources: FeatureResources
    train: List[List[Sentence]]
    dev: List[List[Sentence]]
    model_bytes: bytes
    conj_arc_frac: float
    epochs: int = 1

    @property
    def keys(self) -> int:
        return len(self.train)

    def units(self, key: int) -> int:
        return len(self.train[key]) * self.epochs

    @property
    def fingerprint(self) -> str:
        return sha256(self.model_bytes)


def slices(items: Sequence, count: int) -> List[list]:
    """``items`` cut into ``count`` consecutive slices of near-equal size."""
    bounds = [round(i * len(items) / count) for i in range(count + 1)]
    return [list(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def build_train_state(seed: int, resources: FeatureResources, train, dev,
                      hp: Dict[str, object], n_slices: int) -> TrainState:
    """The model ``conjparse train`` builds before its first epoch."""
    vocab = Vocabulary.from_corpus(train)
    labels = LabelInventory.from_sentences(train)
    model = Model.build(Hyperparams(**hp), vocab, labels,
                        pretrained=resources.embeddings, seed=seed)
    return TrainState(seed, resources, slices(train, n_slices), slices(dev, n_slices),
                      model_bytes(model), conj_arc_frac(list(train) + list(dev)))


def setup_train_short(seed: int, hp: Dict[str, object]) -> TrainState:
    resources = load_resources()
    sample = read_sample()
    # 12 slices of two training sentences and one dev sentence.
    return build_train_state(seed, resources, sample[:24], sample[200:212], hp, 12)


def setup_train_long(seed: int, hp: Dict[str, object]) -> TrainState:
    resources = load_resources()
    lexicon = Lexicon(read_sample(), resources)
    layout = random.Random(LAYOUT_SEED)
    train_lengths, dev_lengths = spread_lengths(8, 40, 100), spread_lengths(8, 40, 100)
    layout.shuffle(train_lengths)
    layout.shuffle(dev_lengths)
    rng = random.Random(seed)
    train = corpus(rng, lexicon, train_lengths)
    dev = corpus(rng, lexicon, dev_lengths)
    return build_train_state(seed, resources, train, dev, hp, 8)


Unmeasured = Callable[[], ContextManager]


def train_job(state: TrainState, key: int, unmeasured: Unmeasured = nullcontext) -> Job:
    train, dev = state.train[key], state.dev[key]
    with unmeasured():
        model = Model.load(io.BytesIO(state.model_bytes))
    start = perf_counter()
    result = training.train_model(model, train, state.resources,
                                  epochs=state.epochs, seed=state.seed,
                                  dev_sentences=dev)
    seconds = perf_counter() - start
    with unmeasured():
        problems: List[str] = []
        final = result.history[-1]
        if not math.isfinite(final.loss):
            problems.append(f"non-finite epoch loss {final.loss}")
        parsed = parser.parse_corpus(dev, model, state.resources)
        quality, invalid = score_parses(dev, parsed, problems)
        if abs(quality.las - final.dev_las) > 1e-9:
            problems.append(f"train_model reports dev LAS {final.dev_las}, "
                            f"recount gives {quality.las}")
        fingerprint = {
            "conll_sha256": sha256(treebank.write_conll(parsed, use_predicted=True)),
            "final_loss": repr(float(final.loss)),
            "model_sha256": sha256(model_bytes(model)),
        }
        return Job(key, seconds, state.units(key), sum(map(len, train)) * state.epochs,
                   fingerprint, quality, failed=invalid, problems=problems)


@dataclass
class ParseState:
    resources: FeatureResources
    docs: List[bytes]
    doc_sentences: List[int]
    model_bytes: bytes
    conj_arc_frac: float

    @property
    def keys(self) -> int:
        return len(self.docs)

    def units(self, key: int) -> int:
        return self.doc_sentences[key]

    @property
    def fingerprint(self) -> str:
        return sha256(self.model_bytes + b"".join(self.docs))


def setup_parse_docs(seed: int, hp: Dict[str, object]) -> ParseState:
    resources = load_resources()
    sample = read_sample()
    lexicon = Lexicon(sample, resources)
    layout = random.Random(LAYOUT_SEED)
    # 1 to 3 sentences per document; lengths spread by log over 5..100
    # tokens, so short sentences are common and long ones rare but present.
    sizes = [1 + i % 3 for i in range(N_DOCS)]
    layout.shuffle(sizes)
    lengths = spread_lengths(sum(sizes), 5, 100, log=True)
    layout.shuffle(lengths)
    sentences = corpus(random.Random(seed), lexicon, lengths)
    docs, cursor = [], 0
    for size in sizes:
        docs.append(treebank.write_conll(sentences[cursor:cursor + size]))
        cursor += size
    counts: Dict[str, int] = {form: 1 for form, _ in lexicon.words}
    for sentence in sample:
        for tok in sentence:
            counts[tok.form] += 1
    vocab = Vocabulary(["<unk>", "<root>"] + sorted(counts),
                       ["<unk>", "<root>"] + sorted({pos for _, pos in lexicon.words}),
                       counts)
    labels = LabelInventory.from_sentences(sample)
    model = Model.build(Hyperparams(**hp), vocab, labels,
                        pretrained=resources.embeddings, seed=PARSE_MODEL_SEED)
    training.jitter_params(model, seed=PARSE_MODEL_SEED)
    return ParseState(resources, docs, sizes, model_bytes(model),
                      conj_arc_frac(sentences))


def parse_job(state: ParseState, key: int, unmeasured: Unmeasured = nullcontext) -> Job:
    start = perf_counter()
    model = Model.load(io.BytesIO(state.model_bytes))
    gold = treebank.read_conll(state.docs[key])
    parsed = parser.parse_corpus(gold, model, state.resources)
    written = treebank.write_conll(parsed, use_predicted=True)
    pred = treebank.read_conll(written, require_tree=False)
    report = evaluation.evaluate(gold, pred)
    seconds = perf_counter() - start
    with unmeasured():
        problems: List[str] = []
        quality, invalid = score_parses(gold, pred, problems)
        for p_sent, r_sent in zip(parsed, pred):
            if [(t.pred_head, t.pred_label) for t in p_sent] != \
                    [(t.gold_head, t.gold_label) for t in r_sent]:
                problems.append("written CoNLL does not read back as parsed")
        if abs(quality.las - report.las) > 1e-9:
            problems.append(f"evaluate reports LAS {report.las}, "
                            f"recount gives {quality.las}")
        return Job(key, seconds, len(gold), sum(map(len, gold)),
                   {"conll_sha256": sha256(written)}, quality,
                   failed=invalid, problems=problems)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, Dict[str, object]], object]
    job: Callable[[object, int, Unmeasured], Job]
    # Listed in BENCHMARK.json, so that its end-to-end metrics are gated.
    gated: bool = True


WORKLOADS = {
    w.name: w for w in (
        Workload("train_short",
                 "train_model on two-sentence slices of the short sample sentences: "
                 "fixed cost per update (Adam, allocation) dominates",
                 setup_train_short, train_job),
        Workload("train_long",
                 "train_model on single generated 40-100 token sentences: per-token "
                 "cost (BiLSTM backward, oracle) dominates", setup_train_long, train_job),
        Workload("parse_docs",
                 "closed-loop document jobs (load, read, parse, write, evaluate) on "
                 "mixed 5-100 token sentences: no backward pass, no Adam",
                 # Its throughput spread most between runs of the same code,
                 # so BENCHMARK.json leaves it out (see README.md).
                 setup_parse_docs, parse_job, gated=False),
    )
}


# ----------------------------------------------------------------------
# running


class Run:
    """Jobs of one workload and everything the checks found wrong."""

    def __init__(self, workload: Workload, state):
        self.workload = workload
        self.state = state
        self.jobs: List[Job] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        # Context for a job's preparation and checks (see the module doc).
        self.unmeasured: Unmeasured = nullcontext
        self._expected: Dict[int, Dict[str, object]] = {}

    def do(self, key: int) -> None:
        try:
            job = self.workload.job(self.state, key, self.unmeasured)
        except Exception:
            # A job that raises fails all the sentences it held.
            traceback.print_exc(file=sys.stderr)
            units = self.state.units(key)
            self.attempted += units
            self.failed += units
            self.problems.append(f"job {key} raised")
            return
        self.attempted += job.sentences
        self.failed += job.failed
        self.problems.extend(job.problems)
        expected = self._expected.setdefault(key, job.fingerprint)
        if job.fingerprint != expected:
            self.problems.append(f"job {key} is not deterministic: {job.fingerprint} "
                                 f"!= {expected}")
        self.jobs.append(job)

    def loop(self, seconds: float, min_jobs: int) -> List[int]:
        """Cycle through the inputs for about ``seconds``, at least
        ``min_jobs`` times; returns the keys run, in order."""
        done: List[int] = []
        start = perf_counter()
        last = 0.0
        # Stop before a job that would likely end past ``seconds``.
        while len(done) < min_jobs or perf_counter() - start + last < seconds:
            key = len(done) % self.state.keys
            began = perf_counter()
            self.do(key)
            last = perf_counter() - began
            done.append(key)
        return done

    def whole_passes(self) -> List[Job]:
        """The jobs of every whole pass over the inputs but the first, so
        that each input counts equally and first calls are left out.

        On the shared reference machine, a virtual CPU switches between two
        speeds about 1.5x apart, every few tens of milliseconds, and the
        share of slow time drifts over minutes.  A job's time follows the
        share of slow time it met, so a run reports its totals over all
        its jobs, which follow the share over the whole run.
        """
        keys = self.state.keys
        return self.jobs[keys:len(self.jobs) // keys * keys]

    def best_jobs(self) -> List[Job]:
        """The fastest job of each distinct input, in key order."""
        best: Dict[int, Job] = {}
        for job in self.jobs:
            if job.key not in best or job.seconds < best[job.key].seconds:
                best[job.key] = job
        return [best[key] for key in sorted(best)]

    def fingerprints(self) -> List[Dict[str, object]]:
        """The fingerprint of each distinct input, in key order."""
        return [self._expected[key] for key in sorted(self._expected)]

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and bool(self.jobs)


def quantile(values: Sequence[float], q: int) -> float:
    """The q-th percentile by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
