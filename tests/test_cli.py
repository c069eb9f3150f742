import json
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import (
    DATA,
    REPO,
    break_analytic_gradient,
    drop_model_array,
    join_model_file,
    split_model_file,
)
from conjparse import cli
from conjparse.cli import EXIT_DATA, EXIT_MODEL, EXIT_OK, EXIT_OTHER, main
from conjparse.model import MODEL_MAGIC, MODEL_VERSION, Hyperparams, Model, Vocabulary
from conjparse.parser import greedy_parse, parse_corpus
from conjparse.resources import FeatureResources
from conjparse.treebank import (
    LabelInventory,
    Sentence,
    TreeStructureError,
    is_projective,
    read_conll,
    write_conll,
)

TINY_HYPERS = [
    "--hyper", "word_dim=8", "--hyper", "pos_dim=4", "--hyper", "lstm_dim=6",
    "--hyper", "lstm_layers=1", "--hyper", "mlp_dim=10",
    "--hyper", "conj_mlp_dim=6",
]


@pytest.fixture(scope="module")
def train_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "train.conllx"
    sentences = read_conll(DATA / "sample_treebank.conllx")[:12]
    path.write_bytes(write_conll(sentences))
    return path


def _train(tmp_path, train_file, *extra, seed=5, epochs=2, name="model.bin"):
    model_path = tmp_path / name
    code = main([
        "train", "--train", str(train_file), "--model", str(model_path),
        "--seed", str(seed), "--epochs", str(epochs), *TINY_HYPERS, *extra,
    ])
    assert code == EXIT_OK
    return model_path


def test_train_parse_evaluate_pipeline(tmp_path, train_file, capsys):
    model_path = _train(tmp_path, train_file, "--dev", str(train_file))
    captured = capsys.readouterr()
    assert "configuration:" in captured.out
    assert "dev_las=" in captured.out
    assert model_path.exists()

    out_path = tmp_path / "parsed.conllx"
    code = main(["parse", "--model", str(model_path), "--input",
                 str(train_file), "--output", str(out_path)])
    assert code == EXIT_OK
    parsed = read_conll(out_path, require_tree=False)
    assert len(parsed) == 12

    code = main(["evaluate", "--gold", str(train_file), "--pred", str(out_path)])
    assert code == EXIT_OK
    assert "UAS:" in capsys.readouterr().out


def test_evaluate_tsv_flag(tmp_path, train_file, capsys):
    model_path = _train(tmp_path, train_file)
    out_path = tmp_path / "parsed.conllx"
    main(["parse", "--model", str(model_path), "--input", str(train_file),
          "--output", str(out_path)])
    capsys.readouterr()
    assert main(["evaluate", "--gold", str(train_file), "--pred",
                 str(out_path), "--tsv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("uas\t")
    assert "counted_tokens\t" in out


def test_parse_empty_input(tmp_path, train_file):
    model_path = _train(tmp_path, train_file)
    empty = tmp_path / "empty.conllx"
    empty.write_bytes(b"")
    out_path = tmp_path / "out.conllx"
    assert main(["parse", "--model", str(model_path), "--input", str(empty),
                 "--output", str(out_path)]) == EXIT_OK
    assert out_path.read_bytes() == b""


def test_same_seed_bit_identical_models(tmp_path, train_file):
    first = _train(tmp_path, train_file, name="a.bin", seed=9)
    second = _train(tmp_path, train_file, name="b.bin", seed=9)
    assert first.read_bytes() == second.read_bytes()


def test_different_seed_differs(tmp_path, train_file):
    first = _train(tmp_path, train_file, name="a.bin", seed=9)
    second = _train(tmp_path, train_file, name="b.bin", seed=10)
    assert first.read_bytes() != second.read_bytes()


def test_no_conj_features_path_equals_zeroed_conj(tmp_path, train_file):
    model_path = _train(tmp_path, train_file, "--no-conj-features")
    model = Model.load(model_path)
    assert model.hp.use_conj_features is False
    sentences = read_conll(train_file)
    resources = FeatureResources.empty()
    zeroed = Model.load(model_path)
    zeroed.hp.use_conj_features = True
    for key in ("conj.w1", "conj.b1", "conj.w2", "conj.b2"):
        zeroed.params[key][...] = 0.0
    for sentence in sentences[:6]:
        off = greedy_parse(sentence, model, resources)
        zero = greedy_parse(sentence, zeroed, resources)
        assert [t.pred_head for t in off] == [t.pred_head for t in zero]
        assert [t.pred_label for t in off] == [t.pred_label for t in zero]


def test_train_no_single_root_is_saved_in_the_model_header(tmp_path, train_file):
    model_path = _train(tmp_path, train_file, "--no-single-root", epochs=1)
    meta, _ = split_model_file(model_path.read_bytes())
    assert meta["hyperparams"]["single_root"] is False
    default_path = _train(tmp_path, train_file, epochs=1, name="default.bin")
    meta, _ = split_model_file(default_path.read_bytes())
    assert meta["hyperparams"]["single_root"] is True


def test_parse_no_single_root_decodes_without_the_constraint(tmp_path, train_file):
    model_path = _train(tmp_path, train_file, epochs=1)
    out_path = tmp_path / "parsed.conllx"
    assert main(["parse", "--model", str(model_path), "--input", str(train_file),
                 "--output", str(out_path), "--no-single-root"]) == EXIT_OK
    model = Model.load(model_path)
    assert model.hp.single_root is True
    sentences = read_conll(train_file)
    resources = FeatureResources.empty()
    constrained = write_conll(parse_corpus(sentences, model, resources),
                              use_predicted=True)
    model.hp.single_root = False
    lifted = write_conll(parse_corpus(sentences, model, resources),
                         use_predicted=True)
    assert out_path.read_bytes() == lifted
    assert lifted != constrained


def test_train_skips_non_projective(tmp_path, capsys):
    corpus = tmp_path / "np.conllx"
    sentences = read_conll(DATA / "sample_treebank.conllx")
    corpus.write_bytes(write_conll(sentences[:6] + sentences[-3:]))
    model_path = tmp_path / "model.bin"
    code = main(["train", "--train", str(corpus), "--model", str(model_path),
                 "--seed", "1", "--epochs", "1", *TINY_HYPERS])
    assert code == EXIT_OK
    assert "skipped 3 non-projective" in capsys.readouterr().out


def test_config_file_and_flag_precedence(tmp_path, train_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lstm_dim": 4, "mlp_dim": 6}))
    model_path = tmp_path / "model.bin"
    code = main([
        "train", "--train", str(train_file), "--model", str(model_path),
        "--seed", "3", "--epochs", "1", "--config", str(config),
        "--hyper", "mlp_dim=12",
    ])
    assert code == EXIT_OK
    model = Model.load(model_path)
    assert model.hp.lstm_dim == 4       # from config file
    assert model.hp.mlp_dim == 12       # flag wins over config


def test_evaluate_two_systems_emits_diff(tmp_path, train_file, capsys):
    model_path = _train(tmp_path, train_file)
    out_a = tmp_path / "a.conllx"
    out_b = tmp_path / "b.conllx"
    main(["parse", "--model", str(model_path), "--input", str(train_file),
          "--output", str(out_a)])
    main(["parse", "--model", str(model_path), "--input", str(train_file),
          "--output", str(out_b)])
    capsys.readouterr()
    code = main(["evaluate", "--gold", str(train_file), "--pred", str(out_a),
                 "--pred-b", str(out_b), "--lemma-lexicon",
                 str(DATA / "lemmas.tsv")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "A-only 0, B-only 0" in out
    assert "feature" in out


def test_analyze_outputs_and_warning(tmp_path, capsys):
    code = main(["analyze", "--input", str(DATA / "sample_treebank.conllx"),
                 "--label", "conj", "--top", "5"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "all-neutral" in captured.err
    assert "label\ttotal_edges" in captured.out
    assert "head\tmodifier\tcount" in captured.out


def test_analyze_with_one_sentiment_list_warns_once(capsys):
    code = main(["analyze", "--input", str(DATA / "sample_treebank.conllx"),
                 "--sentiment-neg", str(DATA / "sentiment_negative.txt")])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: need both sentiment lists")


@pytest.mark.parametrize("command", [
    ["evaluate", "--gold", "g.conllx", "--pred", "p.conllx"],
    ["analyze", "--input", "g.conllx"],
])
def test_embeddings_flag_only_where_vectors_are_used(command):
    with pytest.raises(SystemExit) as err:
        main([*command, "--embeddings", str(DATA / "embeddings_sample.txt")])
    assert err.value.code == 2


def test_analyze_markdown(tmp_path, capsys):
    code = main(["analyze", "--input", str(DATA / "sample_treebank.conllx"),
                 "--markdown", "--sentiment-pos",
                 str(DATA / "sentiment_positive.txt"), "--sentiment-neg",
                 str(DATA / "sentiment_negative.txt")])
    assert code == EXIT_OK
    assert "| label | edges |" in capsys.readouterr().out


def test_gradcheck_subcommand(capsys):
    assert main(["gradcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gradient check passed" in out
    assert "hinge kink" in out


def test_gradcheck_corrupted_fails(capsys, monkeypatch):
    break_analytic_gradient(monkeypatch, "mlp.w1")
    assert main(["gradcheck"]) == EXIT_OTHER
    assert "gradient check FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [
    ["--step", "nan"], ["--step", "0"], ["--step=-1e-4"], ["--step", "inf"],
    ["--tolerance", "nan"], ["--tolerance", "inf"], ["--tolerance", "0"],
])
def test_gradcheck_bad_step_or_tolerance_is_a_one_line_error(capsys, flags):
    assert main(["gradcheck", *flags]) == EXIT_OTHER
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "positive and finite" in captured.err
    assert "passed" not in captured.out


@pytest.mark.parametrize("epochs", ["0", "-2"])
def test_train_fewer_than_one_epoch_is_a_one_line_error(tmp_path, capsys, epochs):
    # The input does not exist, so a data error would show that it was read.
    args = ["train", "--train", str(tmp_path / "missing.conllx"), "--seed", "1",
            "--epochs", epochs, "--model", str(tmp_path / "model.bin"),
            *TINY_HYPERS]
    assert main(args) == EXIT_OTHER
    captured = capsys.readouterr()
    assert captured.err == f"error: epochs must be at least 1, got {epochs}\n"
    assert captured.out == ""
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("command, seed", [("train", "-1"), ("gradcheck", "-2")])
def test_negative_seed_is_a_one_line_error_before_any_input_is_read(
        tmp_path, capsys, command, seed):
    # The input does not exist, so a data error would show that it was read.
    missing = str(tmp_path / "missing.conllx")
    args = {"train": ["train", "--train", missing,
                      "--model", str(tmp_path / "model.bin"), *TINY_HYPERS],
            "gradcheck": ["gradcheck", "--input", missing]}[command]
    assert main([*args, "--seed", seed]) == EXIT_OTHER
    err = capsys.readouterr().err
    assert err == f"error: --seed must be at least 0, got {seed}\n"
    assert not (tmp_path / "model.bin").exists()


def test_train_with_a_non_finite_loss_is_a_one_line_error(tmp_path, train_file,
                                                          capsys):
    # A learning rate this large makes the parameters overflow after the
    # first update, and the scores and the loss of the next batch with them.
    model_path = tmp_path / "model.bin"
    args = ["train", "--train", str(train_file), "--seed", "1", "--epochs", "2",
            "--model", str(model_path), *TINY_HYPERS,
            "--hyper", "learning_rate=1e308"]
    with np.errstate(all="ignore"):
        assert main(args) == EXIT_OTHER
    err = capsys.readouterr().err
    assert err.startswith("error: epoch 1: training loss is ")
    assert err.endswith(", not a finite number\n") and err.count("\n") == 1
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["train", "parse"])
def test_embeddings_whose_norm_overflows_are_a_one_line_data_error(
        tmp_path, train_file, capsys, command):
    # Finite values, but their squares are not: the similarity feature
    # used to turn NaN, failing training on a NaN loss and parsing with
    # numpy warnings.
    lines = (DATA / "embeddings_sample.txt").read_text().splitlines()
    word = lines[2].split(" ")[0]
    lines[2] = " ".join([word] + ["1e200"] * 16)
    bad = tmp_path / "big.txt"
    bad.write_text("\n".join(lines) + "\n")
    output = tmp_path / "out"
    if command == "train":
        args = ["train", "--train", str(train_file), "--model", str(output),
                "--seed", "1", "--epochs", "1", *TINY_HYPERS]
    else:
        args = ["parse", "--model", str(_train(tmp_path, train_file)),
                "--input", str(train_file), "--output", str(output)]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--embeddings", str(bad)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == f"data error: {bad}, line 3: vector norm overflows\n"
    assert captured.out == ""
    assert not output.exists()


def test_train_that_leaves_non_finite_parameters_saves_no_model(tmp_path, capsys):
    # One sentence and one epoch: the only update overflows parameters and
    # no later loss sees them.  Such a model used to be written, and
    # ``parse`` then refused it with exit 4.  Adam's step is bounded by
    # about its step size, so the overflow comes from the step size itself:
    # learning_rate * sqrt(1 - beta2) / (1 - beta1), about 3e310 here.
    train = tmp_path / "one.conllx"
    train.write_bytes(write_conll(read_conll(DATA / "sample_treebank.conllx")[:1]))
    model_path = tmp_path / "model.bin"
    code = main(["train", "--train", str(train), "--seed", "1", "--epochs", "1",
                 "--model", str(model_path), *TINY_HYPERS,
                 "--hyper", "learning_rate=1e308", "--hyper", "beta1=0.999999"])
    assert code == EXIT_OTHER
    assert capsys.readouterr().err == (
        "error: epoch 1: the updates left parameters that are not finite numbers\n")
    assert not model_path.exists()


@pytest.mark.parametrize("hypers", [TINY_HYPERS, []], ids=["tiny", "default"])
def test_overflowing_training_warns_nothing_before_its_error(hypers, tmp_path,
                                                             train_file, capsys):
    model_path = tmp_path / "model.bin"
    args = ["train", "--train", str(train_file), "--seed", "1", "--epochs", "1",
            "--model", str(model_path), *hypers,
            "--hyper", "learning_rate=1e308"]
    # Recorded warnings are the ones that would reach stderr.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == EXIT_OTHER
    assert [str(warning.message) for warning in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: epoch 1: ") and err.count("\n") == 1
    assert not model_path.exists()


def test_exit_code_bad_lemma_lexicon(tmp_path, train_file, capsys):
    lexicon = tmp_path / "lemmas.tsv"
    lexicon.write_text("said\tverb\tsay\nsays\tVBZ\tsay\n")
    code = main(["train", "--train", str(train_file), "--seed", "1",
                 "--model", str(tmp_path / "model.bin"), *TINY_HYPERS,
                 "--lemma-lexicon", str(lexicon)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert f"{lexicon}, line 2: unknown pos class 'VBZ'" in err
    assert not (tmp_path / "model.bin").exists()


def test_exit_code_missing_data(tmp_path, capsys):
    code = main(["analyze", "--input", str(tmp_path / "missing.conllx")])
    assert code == EXIT_DATA


def test_exit_code_bad_model(tmp_path, train_file, capsys):
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"junk bytes, not a model")
    code = main(["parse", "--model", str(bogus), "--input", str(train_file),
                 "--output", str(tmp_path / "out.conllx")])
    assert code == EXIT_MODEL


@pytest.mark.parametrize("version, meta_len, meta, expected", [
    (2, 2, b"{}", r"unsupported model version 2"),
    (MODEL_VERSION, 3, b"{}", r"truncated model file \(metadata\)"),
    (MODEL_VERSION, 4, b"junk", r"corrupt model metadata: .+"),
], ids=["version", "truncated", "not-json"])
def test_parse_with_a_bad_model_header_is_a_one_line_model_error(
        tmp_path, train_file, capsys, version, meta_len, meta, expected):
    model_path = tmp_path / "model.bin"
    model_path.write_bytes(MODEL_MAGIC + struct.pack("<IQ", version, meta_len) + meta)
    out = tmp_path / "out.conllx"
    capsys.readouterr()
    code = main(["parse", "--model", str(model_path), "--input", str(train_file),
                 "--output", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_MODEL
    assert re.fullmatch(f"model error: {expected}\n", captured.err), captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("config, hyper, key", [
    ({"lstm_dim": "8"}, [], "lstm_dim"),
    ({"lstm_size": 8}, [], "lstm_size"),
    (None, ["--hyper", "lstm_dim=eight"], "lstm_dim"),
    (None, ["--hyper", "use_conj_features=maybe"], "use_conj_features"),
    (None, ["--hyper", "lstm_layers=0"], "lstm_layers"),
    (None, ["--hyper", "mlp_dim=0"], "mlp_dim"),
    ({"learning_rate": 0}, [], "learning_rate"),
    ({"beta2": 1.0}, [], "beta2"),
    (None, ["--hyper", "word_dropout_alpha=-0.5"], "word_dropout_alpha"),
    ({"margin": -1}, [], "margin"),
    (None, ["--hyper", "margin=0"], "margin"),
    (None, ["--hyper", "pretrained_dim=7"], "pretrained_dim"),
    ({"pretrained_dim": 7}, [], "pretrained_dim"),
    (None, ["--hyper", "lstm_dim"], "lstm_dim"),
])
def test_bad_hyperparameter_is_a_one_line_error(tmp_path, train_file, capsys,
                                                config, hyper, key):
    args = ["train", "--train", str(train_file), "--seed", "1",
            "--model", str(tmp_path / "model.bin"), *hyper]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    assert main(args) == EXIT_OTHER
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{key}'" in err
    assert not (tmp_path / "model.bin").exists()


def test_exit_code_model_with_unknown_hyperparameter(tmp_path, train_file, capsys):
    model_path = _train(tmp_path, train_file, epochs=1)
    meta, arrays = split_model_file(model_path.read_bytes())
    meta["hyperparams"]["attention"] = True
    model_path.write_bytes(join_model_file(meta, arrays))
    capsys.readouterr()
    code = main(["parse", "--model", str(model_path), "--input", str(train_file),
                 "--output", str(tmp_path / "out.conllx")])
    assert code == EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and err.count("\n") == 1
    assert "'attention'" in err


@pytest.mark.parametrize("edit, key", [
    (lambda meta: meta["hyperparams"].update(lstm_dim=5), "lstm.0.fwd.w_x"),
    (lambda meta: meta.update(pretrained_words=["w1"]), "pre_emb"),
])
def test_exit_code_model_header_contradicting_its_arrays(tmp_path, train_file,
                                                         capsys, edit, key):
    model_path = _train(tmp_path, train_file, epochs=1)
    meta, arrays = split_model_file(model_path.read_bytes())
    edit(meta)
    model_path.write_bytes(join_model_file(meta, arrays))
    capsys.readouterr()
    code = main(["parse", "--model", str(model_path), "--input", str(train_file),
                 "--output", str(tmp_path / "out.conllx")])
    assert code == EXIT_MODEL
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and err.count("\n") == 1
    assert f"'{key}'" in err


def test_model_with_a_pretrained_dim_but_no_words_is_a_model_error(
        tmp_path, train_file, capsys):
    model_path = _train(tmp_path, train_file, "--embeddings",
                        str(DATA / "embeddings_sample.txt"), epochs=1)
    meta, arrays = split_model_file(model_path.read_bytes())
    arrays = drop_model_array(meta, arrays, "pre_emb")
    meta["pretrained_words"] = None
    model_path.write_bytes(join_model_file(meta, arrays))
    capsys.readouterr()
    code = main(["parse", "--model", str(model_path), "--input", str(train_file),
                 "--output", str(tmp_path / "out.conllx")])
    assert code == EXIT_MODEL
    assert _one_line_error(capsys, "model error: ") == (
        "model error: corrupt model metadata: 'pretrained_dim' 16 without "
        "'pretrained_words'\n")


def test_model_whose_vocabulary_lacks_the_reserved_entries_is_a_model_error(
        tmp_path, capsys):
    # Saved with the form inventory ["<unk>"] and a one-row word table, so
    # the arrays match the header, but the root's row 1 is missing.
    model = Model.build(
        Hyperparams(word_dim=4, pos_dim=2, lstm_dim=3, mlp_dim=4, conj_mlp_dim=3),
        Vocabulary(["<unk>", "<root>"], ["<unk>", "<root>", "NN"], {}),
        LabelInventory(("dep", "root")), seed=1)
    model_path = tmp_path / "model.bin"
    model.save(model_path)
    meta, arrays = split_model_file(model_path.read_bytes())
    arrays = drop_model_array(meta, arrays, "word_emb")
    meta["arrays"].append({"name": "word_emb", "dtype": "float64", "shape": [1, 4]})
    meta["vocab"]["forms"] = ["<unk>"]
    model_path.write_bytes(join_model_file(meta, arrays + np.ones(4).tobytes()))
    input_path = tmp_path / "two.conllx"
    input_path.write_text("1\tdogs\t_\tNN\tNN\t_\t2\tdep\t_\t_\n"
                          "2\tbark\t_\tNN\tNN\t_\t0\troot\t_\t_\n\n")
    capsys.readouterr()
    code = main(["parse", "--model", str(model_path), "--input", str(input_path),
                 "--output", str(tmp_path / "out.conllx")])
    assert code == EXIT_MODEL
    assert _one_line_error(capsys, "model error: ") == (
        "model error: corrupt model metadata: vocabulary forms must start "
        "with <unk>, <root>\n")


def _one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    return err


def test_parse_with_a_directory_as_model_is_a_model_error(tmp_path, train_file,
                                                          capsys):
    code = main(["parse", "--model", str(tmp_path), "--input", str(train_file),
                 "--output", str(tmp_path / "out.conllx")])
    assert code == EXIT_MODEL
    err = _one_line_error(capsys, "model error: ")
    assert err == f"model error: cannot read {tmp_path}: Is a directory\n"
    assert not (tmp_path / "out.conllx").exists()


def test_train_with_a_directory_as_model_fails_before_training(tmp_path,
                                                               train_file, capsys):
    code = main(["train", "--train", str(train_file), "--model", str(tmp_path),
                 "--seed", "1", "--epochs", "1", *TINY_HYPERS])
    assert code == EXIT_MODEL
    assert capsys.readouterr().out == ""  # no configuration, no epoch
    code = main(["train", "--train", str(train_file), "--seed", "1",
                 "--model", str(tmp_path / "missing" / "model.bin")])
    assert code == EXIT_MODEL
    assert _one_line_error(capsys, "model error: ").endswith(
        ": No such file or directory\n")


def test_train_checks_the_model_path_without_leaving_a_file(tmp_path, train_file):
    existing = tmp_path / "old.bin"
    existing.write_bytes(b"kept")
    code = main(["train", "--train", str(train_file), "--seed", "1",
                 "--model", str(existing), "--epochs", "0"])
    assert code == EXIT_OTHER  # fails after the check, before training
    assert existing.read_bytes() == b"kept"
    code = main(["train", "--train", str(train_file), "--seed", "1",
                 "--model", str(tmp_path / "new.bin"), "--epochs", "0"])
    assert code == EXIT_OTHER
    assert not (tmp_path / "new.bin").exists()


def test_train_with_a_model_name_too_long_fails_before_training(tmp_path,
                                                               train_file, capsys):
    # The name itself fits, but the new file beside it, with its
    # ".<pid>.<hex>.tmp" suffix, does not.
    model = tmp_path / ("m" * 250)
    code = main(["train", "--train", str(train_file), "--model", str(model),
                 "--seed", "1", "--epochs", "1", *TINY_HYPERS])
    assert code == EXIT_MODEL
    captured = capsys.readouterr()
    assert captured.err == f"model error: cannot write {model}: File name too long\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def test_parse_with_an_output_name_too_long_fails_before_parsing(
        tmp_path, train_file, capsys, monkeypatch):
    model = _train(tmp_path, train_file)
    parsed = []
    monkeypatch.setattr(cli, "parse_corpus",
                        lambda *args: parsed.append(args) or [])
    directory = tmp_path / "out"
    directory.mkdir()
    output = directory / ("o" * 250)
    capsys.readouterr()
    code = main(["parse", "--model", str(model), "--input", str(train_file),
                 "--output", str(output)])
    assert code == EXIT_DATA
    assert _one_line_error(capsys, "data error: ") == (
        f"data error: [Errno 36] File name too long: {str(output)!r}\n")
    assert parsed == []
    assert os.listdir(directory) == []


# Run from the test's directory by a user that cannot write into ``ro/``.
# Everything it needs is imported first: after ``setuid`` it may not read
# the interpreter's own library.  Exit 99: this user can write there.
_AS_NOBODY = """
import locale, os, sys
import numpy.random
from conjparse import cli
cli.build_arg_parser()
try:
    os.setuid(65534)
except PermissionError:
    sys.exit(99)
try:
    open("ro/probe", "xb").close()
except PermissionError:
    sys.exit(cli.main(sys.argv[1:]))
sys.exit(99)
"""


def test_train_into_a_read_only_directory_fails_before_training(
        tmp_path, train_file, capsys, monkeypatch):
    # The model file can be written, but not the new file beside it.
    (tmp_path / "train.conllx").write_bytes(train_file.read_bytes())
    directory = tmp_path / "ro"
    directory.mkdir()
    model = directory / "model.bin"
    model.write_bytes(b"kept")
    model.chmod(0o666)
    tmp_path.chmod(0o755)
    directory.chmod(0o555)
    argv = ["train", "--train", "train.conllx", "--model", "ro/model.bin",
            "--seed", "1", "--epochs", "1", *TINY_HYPERS]
    try:
        if os.geteuid() == 0:
            env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
            run = subprocess.run([sys.executable, "-c", _AS_NOBODY, *argv],
                                 cwd=tmp_path, env=env, capture_output=True,
                                 text=True, timeout=120)
            code, out, err = run.returncode, run.stdout, run.stderr
        else:
            monkeypatch.chdir(tmp_path)
            try:
                open("ro/probe", "xb").close()
                code = 99
            except PermissionError:
                code = main(argv)
            out, err = capsys.readouterr()
        if code == 99:
            pytest.skip("this user can write into a directory of mode 0o555")
        assert code == EXIT_MODEL, err
        assert err == "model error: cannot write ro/model.bin: Permission denied\n"
        assert out == ""
        assert model.read_bytes() == b"kept"
        assert os.listdir(directory) == ["model.bin"]
    finally:
        directory.chmod(0o755)


@pytest.mark.parametrize("flag", ["--gold", "--pred"])
def test_evaluate_with_a_directory_as_treebank_is_a_data_error(tmp_path,
                                                               train_file,
                                                               capsys, flag):
    paths = {"--gold": str(train_file), "--pred": str(train_file), flag: str(tmp_path)}
    code = main(["evaluate", *[part for item in paths.items() for part in item]])
    assert code == EXIT_DATA
    assert "Is a directory" in _one_line_error(capsys, "data error: ")


def test_train_with_a_directory_as_resource_is_a_data_error(tmp_path, train_file,
                                                            capsys):
    code = main(["train", "--train", str(train_file), "--seed", "1",
                 "--model", str(tmp_path / "model.bin"), *TINY_HYPERS,
                 "--lemma-lexicon", str(tmp_path)])
    assert code == EXIT_DATA
    assert "Is a directory" in _one_line_error(capsys, "data error: ")
    assert not (tmp_path / "model.bin").exists()


def test_train_on_no_projective_sentence_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "np.conllx"
    sentences = [s for s in read_conll(DATA / "sample_treebank.conllx")
                 if not is_projective(s)]
    corpus.write_bytes(write_conll(sentences[:1]))
    model_path = tmp_path / "model.bin"
    code = main(["train", "--train", str(corpus), "--model", str(model_path),
                 "--seed", "1", "--epochs", "1", *TINY_HYPERS])
    assert code == EXIT_DATA
    assert _one_line_error(capsys, "data error: ") == (
        f"data error: {corpus}: no projective sentence to train on "
        "(1 non-projective skipped)\n")
    assert not model_path.exists()


def test_evaluate_prints_nothing_when_the_second_prediction_is_misaligned(
        tmp_path, train_file, capsys):
    short = tmp_path / "short.conllx"
    short.write_bytes(write_conll(read_conll(train_file)[:11]))
    capsys.readouterr()
    assert main(["evaluate", "--gold", str(train_file), "--pred",
                 str(train_file), "--pred-b", str(short)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("data error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_evaluate_with_a_changed_form_is_a_one_line_data_error(tmp_path,
                                                              train_file, capsys):
    sentences = read_conll(train_file)
    form = sentences[0].token(2).form
    changed = Sentence(tuple(
        tok._replace(form=form + "x") if tok.id == 2 else tok
        for tok in sentences[0]))
    pred = tmp_path / "pred.conllx"
    pred.write_bytes(write_conll([changed, *sentences[1:]]))
    capsys.readouterr()
    assert main(["evaluate", "--gold", str(train_file), "--pred",
                 str(pred)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == (f"data error: sentence 0, token 2: form {form!r} "
                            f"vs {form + 'x'!r}\n")
    assert captured.out == ""


@pytest.mark.parametrize("dev", ["empty", "punctuation"])
def test_a_dev_set_with_nothing_to_score_is_a_data_error(tmp_path, train_file,
                                                         capsys, dev):
    # Every epoch would read dev LAS 0, and the first would be kept.
    dev_path = tmp_path / "dev.conllx"
    tokens = (b"" if dev == "empty" else
              b"1\t,\t_\t,\t,\t_\t0\troot\t_\t_\n"
              b"2\t.\t_\tPUNCT\tPUNCT\t_\t1\tpunct\t_\t_\n\n")
    dev_path.write_bytes(tokens)
    model_path = tmp_path / "model.bin"
    code = main(["train", "--train", str(train_file), "--dev", str(dev_path),
                 "--model", str(model_path), "--seed", "1", "--epochs", "3",
                 *TINY_HYPERS])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == (
        f"data error: {dev_path}: the dev set has no token to score (it is "
        "empty or all punctuation), so it cannot select an epoch\n")
    assert captured.out == ""
    assert not model_path.exists()


def test_gradcheck_on_no_projective_sentence_is_a_data_error(tmp_path, capsys):
    corpus = tmp_path / "np.conllx"
    sentences = [s for s in read_conll(DATA / "sample_treebank.conllx")
                 if not is_projective(s)]
    corpus.write_bytes(write_conll(sentences[:2]))
    assert main(["gradcheck", "--input", str(corpus)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == (
        f"data error: {corpus}: no projective sentence to check gradients on "
        "(2 non-projective skipped)\n")
    assert captured.out == ""


def test_model_without_labels_is_a_model_error(tmp_path, train_file, capsys):
    # A model without labels has no arc transitions, so no parse could end.
    model_path = _train(tmp_path, train_file, epochs=1)
    meta, arrays = split_model_file(model_path.read_bytes())
    meta["labels"] = []
    model_path.write_bytes(join_model_file(meta, arrays))
    capsys.readouterr()
    code = main(["parse", "--model", str(model_path), "--input", str(train_file),
                 "--output", str(tmp_path / "out.conllx")])
    assert code == EXIT_MODEL
    assert _one_line_error(capsys, "model error: ") == (
        "model error: corrupt model metadata: 'labels' must be a non-empty "
        "list of strings\n")


@pytest.mark.parametrize("command, flag, source", [
    ("train", "--train", None),
    ("train", "--dev", None),
    ("parse", "--input", None),
    ("evaluate", "--gold", None),
    ("evaluate", "--pred", None),
    ("analyze", "--input", None),
    ("evaluate", "--pred-b", None),
    ("evaluate", "--lemma-lexicon", "lemmas.tsv"),
    ("analyze", "--lemma-lexicon", "lemmas.tsv"),
    ("train", "--embeddings", "embeddings_sample.txt"),
    ("train", "--lemma-lexicon", "lemmas.tsv"),
    ("train", "--sentiment-pos", "sentiment_positive.txt"),
    ("train", "--sentiment-neg", "sentiment_negative.txt"),
    ("train", "--config", None),
])
def test_non_utf8_input_is_a_one_line_data_error(tmp_path, train_file, capsys,
                                                 command, flag, source):
    bad = tmp_path / "bad.txt"
    if flag == "--config":
        good = tmp_path / "config.json"
        good.write_text('{"lstm_dim": 4,\n "mlp_dim": 6}\n')
    else:
        good = DATA / source if source else train_file
    bad.write_bytes(good.read_bytes().replace(b"\n", b"\n\xff", 1))
    output = tmp_path / "out"
    if command == "train":
        base = ["--train", str(train_file), "--model", str(output), "--seed", "1",
                "--epochs", "1", *TINY_HYPERS,
                "--sentiment-pos", str(DATA / "sentiment_positive.txt"),
                "--sentiment-neg", str(DATA / "sentiment_negative.txt")]
    elif command == "parse":
        base = ["--model", str(_train(tmp_path, train_file)),
                "--input", str(train_file), "--output", str(output)]
    elif command == "evaluate":
        base = ["--gold", str(train_file), "--pred", str(train_file)]
        if flag == "--lemma-lexicon":
            # Only the two-system diff reads the lexicons.
            base += ["--pred-b", str(train_file)]
    else:
        base = ["--input", str(train_file)]
    capsys.readouterr()
    # argparse keeps the last value of a repeated flag: the bad file.
    assert main([command, *base, flag, str(bad)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == f"data error: {bad}, line 2: not valid UTF-8\n"
    assert captured.out == ""
    assert not output.exists()


@pytest.mark.parametrize("command, flag", [
    ("evaluate", "--gold"),
    ("evaluate", "--pred"),
    ("evaluate", "--pred-b"),
    ("train", "--train"),
    ("train", "--dev"),
    ("parse", "--input"),
])
def test_a_malformed_treebank_error_names_its_file(tmp_path, train_file, capsys,
                                                   command, flag):
    bad = tmp_path / "bad.conllx"
    bad.write_text("1\tx\n")
    output = tmp_path / "out"
    base = {
        "evaluate": ["--gold", str(train_file), "--pred", str(train_file),
                     "--pred-b", str(train_file)],
        "train": ["--train", str(train_file), "--model", str(output),
                  "--seed", "1", "--epochs", "1", *TINY_HYPERS],
        "parse": ["--input", str(train_file), "--output", str(output)],
    }[command]
    if command == "parse":
        base += ["--model", str(_train(tmp_path, train_file))]
    capsys.readouterr()
    # argparse keeps the last value of a repeated flag: the bad file.
    assert main([command, *base, flag, str(bad)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == (
        f"data error: {bad}, line 1: expected 8-10 columns, got 2\n")
    assert captured.out == ""
    assert not output.exists()


def test_a_tree_error_names_its_file_and_bytes_keep_the_bare_message(tmp_path,
                                                                     capsys):
    cycle = b"1\ta\t_\tNN\tNN\t_\t2\tdep\n2\tb\t_\tNN\tNN\t_\t1\tdep\n"
    bad = tmp_path / "cycle.conllx"
    bad.write_bytes(cycle)
    assert main(["analyze", "--input", str(bad)]) == EXIT_DATA
    assert _one_line_error(capsys, "data error: ") == (
        f"data error: {bad}, sentence 0: no token attached to the root\n")
    with pytest.raises(TreeStructureError) as raised:
        read_conll(cycle)
    assert str(raised.value) == "sentence 0: no token attached to the root"
    assert raised.value.sentence_index == 0


@pytest.mark.parametrize("command", ["train", "parse"])
def test_a_bad_treebank_error_comes_before_any_resource_warning(
        tmp_path, train_file, capsys, command):
    bad = tmp_path / "bad.conllx"
    bad.write_text("1\tx\n")
    output = tmp_path / "out"
    one_list = ["--sentiment-pos", str(DATA / "sentiment_positive.txt")]
    if command == "train":
        args = ["train", "--train", str(bad), "--model", str(output),
                "--seed", "1", "--epochs", "1", *TINY_HYPERS]
    else:
        args = ["parse", "--model", str(_train(tmp_path, train_file)),
                "--input", str(bad), "--output", str(output)]
    capsys.readouterr()
    assert main([*args, *one_list]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == (
        f"data error: {bad}, line 1: expected 8-10 columns, got 2\n")
    assert captured.out == ""
    assert not output.exists()
    # With good inputs the run warns, once, and goes on.
    good = [str(train_file) if part == str(bad) else part for part in args]
    assert main([*good, *one_list]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: need both sentiment lists; using neutral sentiment\n")
    assert output.exists()


def test_exit_code_malformed_treebank(tmp_path, capsys):
    bad = tmp_path / "bad.conllx"
    bad.write_text("1\tword\n\n")
    code = main(["analyze", "--input", str(bad)])
    assert code == EXIT_DATA


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["train"])  # missing required flags
    assert err.value.code == 2


def test_train_with_all_resources(tmp_path, train_file):
    model_path = _train(
        tmp_path, train_file,
        "--embeddings", str(DATA / "embeddings_sample.txt"),
        "--lemma-lexicon", str(DATA / "lemmas.tsv"),
        "--sentiment-pos", str(DATA / "sentiment_positive.txt"),
        "--sentiment-neg", str(DATA / "sentiment_negative.txt"),
    )
    model = Model.load(model_path)
    assert model.hp.pretrained_dim == 16
    assert "pre_emb" in model.params
    assert "pre_emb" not in model.trainable  # frozen by default
    out_path = tmp_path / "parsed.conllx"
    code = main(["parse", "--model", str(model_path), "--input",
                 str(train_file), "--output", str(out_path),
                 "--embeddings", str(DATA / "embeddings_sample.txt")])
    assert code == EXIT_OK


def test_tune_pretrained_flag(tmp_path, train_file):
    model_path = _train(
        tmp_path, train_file, "--tune-pretrained",
        "--embeddings", str(DATA / "embeddings_sample.txt"),
    )
    model = Model.load(model_path)
    assert "pre_emb" in model.trainable


def test_inputs_never_mutated(tmp_path, train_file):
    before = train_file.read_bytes()
    _train(tmp_path, train_file)
    model_path = tmp_path / "model.bin"
    main(["parse", "--model", str(model_path), "--input", str(train_file),
          "--output", str(tmp_path / "out.conllx")])
    assert train_file.read_bytes() == before


def test_two_system_coordination_analysis_workflow(tmp_path, capsys):
    """Full analysis loop through the CLI: train a featured and a plain
    model on coordination data, parse held-out sentences with both, then
    diff the conj attachments and check the features concentrate on the
    featured-only side."""
    from synth import coordination_corpus

    sentences, lexicon = coordination_corpus(108)
    train = tmp_path / "train.conllx"
    test = tmp_path / "test.conllx"
    train.write_bytes(write_conll(sentences[:84]))
    test.write_bytes(write_conll(sentences[84:]))
    lemmas = tmp_path / "lemmas.tsv"
    lemmas.write_text(
        "\n".join("\t".join(entry) for entry in lexicon.items()) + "\n",
        encoding="utf-8",
    )
    hypers = ["--hyper", "word_dim=24", "--hyper", "pos_dim=8",
              "--hyper", "lstm_layers=1", "--hyper", "lstm_dim=24",
              "--hyper", "mlp_dim=32", "--hyper", "conj_mlp_dim=16"]
    outputs = {}
    for name, extra in (("featured", []), ("plain", ["--no-conj-features"])):
        model_path = tmp_path / f"{name}.bin"
        assert main(["train", "--train", str(train), "--model",
                     str(model_path), "--seed", "1", "--epochs", "10",
                     "--lemma-lexicon", str(lemmas), *hypers, *extra]) == EXIT_OK
        out = tmp_path / f"{name}.out.conllx"
        assert main(["parse", "--model", str(model_path), "--input", str(test),
                     "--output", str(out), "--lemma-lexicon", str(lemmas)]
                    ) == EXIT_OK
        outputs[name] = out
    capsys.readouterr()
    assert main(["evaluate", "--gold", str(test),
                 "--pred", str(outputs["featured"]),
                 "--pred-b", str(outputs["plain"]),
                 "--lemma-lexicon", str(lemmas)]) == EXIT_OK
    report = capsys.readouterr().out
    gold = read_conll(test)
    featured_pred = read_conll(outputs["featured"], require_tree=False)
    plain_pred = read_conll(outputs["plain"], require_tree=False)
    resources = FeatureResources(lemmas=lexicon)
    from conjparse.evaluation import conj_diff

    diff = conj_diff(gold, featured_pred, plain_pred, resources)
    assert len(diff.only_a) > len(diff.only_b)
    assert diff.prevalence_a["any_feature"] >= 50.0
    assert "only_a" in report
