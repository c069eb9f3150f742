"""Tests of the benchmark itself: tracer, generator and correctness checks.

The workloads run here with a tiny model, so the whole file takes seconds.
"""

import inspect
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import conjparse  # noqa: E402
from conjparse import parser, training, transitions, treebank  # noqa: E402

import corpus  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed_wrappers  # noqa: E402

TINY = dict(word_dim=6, pos_dim=3, lstm_dim=5, mlp_dim=6, conj_mlp_dim=5)

# Names bound by ``from ... import`` in a module other than the defining one.
IMPORTED_BY_NAME = [
    (training, "static_oracle", transitions),
    (training, "score_config", parser),
    (training, "greedy_parse", parser),
    (training, "is_projective", treebank),
    (transitions, "is_projective", treebank),
    (parser, "extract_forms", conjparse.conj_features),
    (parser, "legal_mask", transitions),
    (parser, "apply", transitions),
]


def test_wrapped_names_resolve_to_their_wrapper():
    originals = {(m.__name__, n): getattr(m, n) for m, n, _ in IMPORTED_BY_NAME}
    tr = Tracer()
    tr.install()
    try:
        for module, name, home in IMPORTED_BY_NAME:
            bound = getattr(module, name)
            assert bound is getattr(home, name), f"{module.__name__}.{name}"
            assert bound.__wrapped__ is originals[(module.__name__, name)]
        # No conjparse module still holds an unwrapped public layer function.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("conjparse"):
                continue
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not value.__name__.startswith("_")
                        and tracer_module._layer_of(value.__module__)):
                    assert hasattr(value, "__wrapped__"), f"{module_name}.{attr}"
        assert conjparse.train_model is training.train_model
        assert "network.Adam.step" in installed_wrappers()
    finally:
        tr.uninstall()
    assert installed_wrappers() == []
    for module, name, _ in IMPORTED_BY_NAME:
        assert getattr(module, name) is originals[(module.__name__, name)]


def test_paused_calls_are_not_traced():
    sentence = workloads.read_sample()[0]
    tr = Tracer()
    tr.install()
    try:
        with tr.pause():
            treebank.validate_tree(sentence)
            assert training.is_projective(sentence)
        assert tr.calls("treebank.validate_tree") == 0
        assert tr.calls("treebank.is_projective") == 0
        assert tr.top_level_s == 0.0 and tr.paused_s > 0.0
        treebank.is_projective(sentence)
        assert tr.calls("treebank.is_projective") == 1
    finally:
        tr.uninstall()


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")

    seen = []
    job = workloads.train_job

    def checked_job(state, key, unmeasured):
        seen.append(installed_wrappers())
        return job(state, key, unmeasured)

    monkeypatch.setattr(Tracer, "install", refuse)
    monkeypatch.setitem(workloads.WORKLOADS, "train_long", workloads.Workload(
        "train_long", "", workloads.setup_train_long, checked_job))
    result, info = run.run_workload("train_long", 3, 0.0, trace=False, hp=TINY)
    assert result["correct"], info["problems"]
    assert seen and all(names == [] for names in seen)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values() if w.gated]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, layers.unit_of(name),
         "higher" if name in layers.HIGHER_IS_BETTER else "lower")
        for name in layers.PER_LAYER]


def test_every_metric_is_documented():
    readme = (HERE / "README.md").read_text()
    for name in list(layers.PER_LAYER) + list(run.END_TO_END):
        assert f"`{name}`" in readme, name


@pytest.mark.parametrize("name", ["train_short", "train_long", "parse_docs"])
def test_traced_run_is_consistent(name):
    result, info = run.run_workload(name, 5, 0.0, trace=True, hp=TINY)
    assert result["correct"], info["problems"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(values) == set(layers.PER_LAYER)
    self_times = sum(v for k, v in values.items()
                     if k.endswith("_s") and k != "trace.wall_s")
    assert self_times <= values["trace.wall_s"]
    assert 0.0 < values["trace.coverage"] <= 1.0
    assert values["conj_features.extract_calls"] > 0
    assert values["model.conj_score_calls"] > 0
    if name == "parse_docs":
        assert values["network.adam_step_calls"] == 0
        assert values["network.lstm_backward_calls"] == 0
    else:
        assert values["network.adam_step_calls"] > 0
        # The job's model load and its checks (a dev re-parse, written
        # CoNLL, Model.save) stay out of the trace.
        assert values["model.load_s"] == 0
        assert values["parser.parse_corpus_s"] == 0
        assert values["treebank.write_conll_s"] == 0
    assert installed_wrappers() == []


def test_generator_is_seeded_and_makes_valid_conj_trees():
    resources = workloads.load_resources()
    lexicon = corpus.Lexicon(workloads.read_sample(), resources)
    lengths = corpus.spread_lengths(30, 5, 60)
    one = corpus.corpus(random.Random(4), lexicon, lengths)
    two = corpus.corpus(random.Random(4), lexicon, lengths)
    other = corpus.corpus(random.Random(5), lexicon, lengths)
    assert one == two and one != other
    assert [len(s) for s in one] == [len(s) for s in other] == lengths
    for sentence in one:
        treebank.validate_tree(sentence)
        assert treebank.is_projective(sentence)
        assert corpus.check_tree([t.gold_head for t in sentence]) == ""
    assert 0.05 < corpus.conj_arc_frac(one) < 0.2
    forms = {t.form for s in one for t in s}
    assert forms & set(resources.embeddings.words())
    assert forms & (resources.sentiment.positive | resources.sentiment.negative)


def test_input_layout_is_the_same_for_every_seed():
    def lengths(parts):
        return [[len(s) for s in part] for part in parts]

    one = workloads.setup_train_long(1, TINY)
    two = workloads.setup_train_long(2, TINY)
    assert one.fingerprint != two.fingerprint
    assert lengths(one.train + one.dev) == lengths(two.train + two.dev)
    docs = [workloads.setup_parse_docs(seed, TINY).docs for seed in (1, 2)]
    assert docs[0] != docs[1]
    assert (lengths(map(treebank.read_conll, docs[0]))
            == lengths(map(treebank.read_conll, docs[1])))


def test_check_tree_rejects_bad_trees():
    assert corpus.check_tree([2, 0, 2]) == ""
    assert corpus.check_tree([0, 0]) != ""       # two root children
    assert corpus.check_tree([2, 1, 0]) != ""    # cycle
    assert corpus.check_tree([3, 4, 0, 3]) != ""  # crossing arcs


def test_nondeterministic_job_is_caught():
    calls = []
    state = workloads.setup_train_long(2, TINY)

    def flaky_job(state, key, unmeasured):
        job = workloads.train_job(state, key, unmeasured)
        calls.append(job)
        job.fingerprint = dict(job.fingerprint, final_loss=str(len(calls)))
        return job

    check = workloads.Run(workloads.Workload("flaky", "", None, flaky_job), state)
    check.do(0)
    check.do(0)
    assert not check.correct
    assert any("not deterministic" in p for p in check.problems)
