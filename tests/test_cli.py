import csv
import json
import math
import os
import re
import shutil

import numpy as np
import pytest

from ouv_classifier import NUM_CLASSES, cli, harness
from ouv_classifier.cli import main
from ouv_classifier.corpus import read_dataset
from ouv_classifier.features import TfidfVocabulary
from ouv_classifier.harness import ExperimentConfig, load_prior
from ouv_classifier.model import (MlpParams, TrainConfig, TrainedModel,
                                  TrainingDiverged, save_checkpoint)
from conftest import edit_head, use_cpus

HEADER = "id_no,name_en,criteria_txt,justification_en,short_description_en\n"
ROMANS = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x"]

WORDS = ["ancient", "walls", "garden", "temple", "harbour", "quarter",
         "bridge", "palace", "valley", "terrace", "mosaic", "chapel"]


def sentence(site, criterion):
    a = WORDS[site % len(WORDS)]
    b = WORDS[(site + criterion) % len(WORDS)]
    return (f"The {a} {b} ensemble shows enduring testimony to living "
            f"traditions across many generations of builders.")


def write_corpus_csv(path, with_sd=True):
    rows = [HEADER]
    for site in range(1, 13):
        crits = [(site % 10) + 1, ((site + 3) % 10) + 1]
        crit_txt = "".join(f"({ROMANS[c - 1]})" for c in crits)
        just = " ".join(
            f"Criterion ({ROMANS[c - 1]}): {sentence(site, c)}"
            for c in crits)
        sd = (f"A renowned {WORDS[site % len(WORDS)]} site of great value."
              if with_sd else "")
        rows.append(f'{site},"Site {site}","{crit_txt}","{just}","{sd}"\n')
    path.write_text("".join(rows), encoding="utf-8")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    csv_path = root / "syndication.csv"
    write_corpus_csv(csv_path)
    data_dir = root / "data"
    assert main(["ingest", str(csv_path), "--out", str(data_dir)]) == 0
    prior_path = root / "prior.json"
    assert main(["prior", str(data_dir), "--out", str(prior_path)]) == 0
    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "baseline": "ngram",
        "grid": {"hidden": [16], "batch_size": [32]},
        "learning_rate": 0.01,
        "seeds": [0, 1],
        "alpha_grid": [0.0, 0.1],
        "variants": ["vanilla", "uniform", "prior"],
        "max_epochs": 2,
        "patience": 2,
        "min_df": 1,
        "dataset_dir": str(data_dir),
        "output_dir": str(root / "runs"),
    }), encoding="utf-8")
    return {"root": root, "csv": csv_path, "data": data_dir,
            "prior": prior_path, "config": config_path,
            "runs": root / "runs"}


def test_ingest_outputs(workspace):
    for name in ("train", "valid", "test", "sd"):
        path = workspace["data"] / f"{name}.jsonl"
        assert path.exists()
        assert path.read_text().strip()
    assert (workspace["data"] / "sites.json").exists()


def test_prior_outputs(workspace):
    payload = json.loads(workspace["prior"].read_text())
    mu = payload["mu"]
    assert len(mu) == 10 and all(len(row) == 11 for row in mu)
    counts = payload["counts"]
    assert len(counts) == 10 and all(len(row) == 10 for row in counts)
    assert workspace["prior"].with_suffix(".csv").exists()


def test_train_and_evaluate(workspace, capsys):
    model_path = workspace["root"] / "single/model.json"
    assert main(["train", "--config", str(workspace["config"]),
                 "--out", str(model_path)]) == 0
    assert model_path.exists()
    assert model_path.with_name("model_featurizer.json").exists()
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model_path),
                 "--split", "valid", "--dataset",
                 str(workspace["data"])]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["top1_accuracy"] <= 1.0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model_path),
                 "--split", "sd", "--dataset", str(workspace["data"])]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["topk_match"] <= 1.0


def test_sweep_then_final_then_report(workspace, capsys):
    assert main(["sweep", "--config", str(workspace["config"])]) == 0
    out = capsys.readouterr().out
    assert "chosen LS:" in out
    assert (workspace["runs"] / "step1_grid/log.json").exists()
    assert (workspace["runs"] / "step2_sweep/sweep.json").exists()

    assert main(["final", "--config", str(workspace["config"])]) == 0
    out = capsys.readouterr().out
    assert "no_ls:" in out and "ls:" in out
    assert (workspace["runs"] / "step3_final/final.json").exists()

    assert main(["report", str(workspace["runs"])]) == 0
    out = capsys.readouterr().out
    assert "chosen LS" in out
    assert (workspace["runs"] / "summary.json").exists()
    assert (workspace["runs"] / "curves.csv").exists()


def test_mine_cli(workspace, capsys):
    final = workspace_runs(workspace, "sweep", "final") / "step3_final"
    model_a, model_b = final / "model_no_ls.json", final / "model_ls.json"
    input_path = workspace["root"] / "mine_input.txt"
    input_path.write_text(
        "The ancient walls ensemble shows enduring testimony here.\n"
        "\n \t\n"
        "A renowned temple site of great value.\n", encoding="utf-8")
    out_path = workspace["root"] / "mined.json"
    assert main(["mine", "--models", str(model_a), str(model_b),
                 "--input", str(input_path),
                 "--confidence", "0", "--iou", "0",
                 "--out", str(out_path)]) == 0
    kept = json.loads(out_path.read_text())
    assert isinstance(kept, list)
    for entry in kept:
        assert entry["iou"] > 0.0
        assert len(entry["predictions_a"]) == 3
    assert capsys.readouterr().err == f"kept {len(kept)} of 2 sentences\n"


@pytest.mark.parametrize("flag,value,message", [
    ("--confidence", "nan", "confidence_threshold must be in [0, 1], got nan"),
    ("--iou", "1.5", "iou_threshold must be in [0, 1], got 1.5"),
])
def test_mine_refuses_a_threshold_outside_0_1(workspace, tmp_path, capsys,
                                              flag, value, message):
    model = str(single_model(workspace))
    input_path = tmp_path / "mine_input.txt"
    input_path.write_text("A renowned temple site.\n", encoding="utf-8")
    out_path = tmp_path / "mined.json"
    capsys.readouterr()
    assert main(["mine", "--models", model, model, "--input",
                 str(input_path), flag, value, "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


def test_mine_writes_the_same_bytes_to_stdout_and_out(workspace, tmp_path,
                                                     capsys):
    final = workspace_runs(workspace, "sweep", "final") / "step3_final"
    models = [str(final / f"model_{label}.json") for label in ("no_ls", "ls")]
    input_path = tmp_path / "input.txt"
    input_path.write_text("The ancient walls ensemble shows testimony.\n"
                          "A renowned temple site of great value.\n",
                          encoding="utf-8")
    args = ["mine", "--models", *models, "--input", str(input_path),
            "--confidence", "0", "--iou", "0"]
    out_path = tmp_path / "mined.json"
    capsys.readouterr()
    assert main(args) == 0
    stdout = capsys.readouterr().out
    assert main(args + ["--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert len(json.loads(stdout)) == 2
    assert stdout.encode("utf-8") == out_path.read_bytes()


def test_mine_loads_a_shared_featurizer_file_once(workspace, tmp_path,
                                                  capsys, monkeypatch):
    """The two models of a run share ``featurizer.json``: ``ouvclf mine``
    reads it once, and writes the stdout, ``--out`` bytes and stderr of
    two separate loads."""
    final = workspace_runs(workspace, "sweep", "final") / "step3_final"
    models = [str(final / f"model_{label}.json") for label in ("no_ls", "ls")]
    input_path = tmp_path / "input.txt"
    input_path.write_text("The ancient walls ensemble shows testimony.\n"
                          "A renowned temple site of great value.\n",
                          encoding="utf-8")
    out_path = tmp_path / "mined.json"
    outputs = []
    for shared in (False, True):
        with monkeypatch.context() as patch:
            loads = []
            load_featurizer, load_predictor = (harness.Featurizer.load,
                                               harness.Predictor.load)
            patch.setattr(harness.Featurizer, "load", staticmethod(
                lambda path: loads.append(path) or load_featurizer(path)))
            if not shared:  # each predictor loads its own featurizer
                patch.setattr(cli.Predictor, "load", staticmethod(
                    lambda path, featurizers=None: load_predictor(path)))
            capsys.readouterr()
            for extra in ([], ["--out", str(out_path)]):
                assert main(["mine", "--models", *models, "--input",
                             str(input_path), "--confidence", "0",
                             "--iou", "0", *extra]) == 0
                outputs.append((*capsys.readouterr(), extra
                                and out_path.read_bytes()))
            assert loads == [(final / "featurizer.json").resolve()] * (
                2 if shared else 4)
    assert outputs[:2] == outputs[2:]
    assert outputs[0][1] == "kept 2 of 2 sentences\n"


def test_final_without_sd_returns_2(workspace, tmp_path, capsys):
    csv_path = tmp_path / "no_sd.csv"
    write_corpus_csv(csv_path, with_sd=False)
    data_dir = tmp_path / "data"
    assert main(["ingest", str(csv_path), "--out", str(data_dir)]) == 0
    runs = tmp_path / "runs"
    copy_steps_1_and_2(workspace, runs)
    config_path = write_config(workspace, tmp_path / "config.json",
                               dataset_dir=str(data_dir), output_dir=str(runs))
    capsys.readouterr()
    assert main(["final", "--config", str(config_path)]) == 2
    assert "SD" in capsys.readouterr().err

    # an empty split is a fatal error for evaluate
    model_path = runs / "step3_final/model_no_ls.json"
    assert main(["evaluate", "--model", str(model_path),
                 "--split", "sd", "--dataset", str(data_dir)]) == 1


def test_report_missing_artifacts(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "missing artifacts" in capsys.readouterr().err


def test_ingest_reports_row_level_errors(tmp_path, capsys):
    csv_path = tmp_path / "syndication.csv"
    write_corpus_csv(csv_path)
    with open(csv_path, "a", encoding="utf-8") as fh:
        fh.write(',"No id","(i)","Criterion (i): text.","desc"\n')
    capsys.readouterr()
    assert main(["ingest", str(csv_path), "--out",
                 str(tmp_path / "data")]) == 0
    out, err = capsys.readouterr()
    assert err == "1 row-level errors:\n  line 14: empty site id\n"
    assert out.startswith("train=") and out.endswith(" sites=12\n")


def test_ingest_names_a_csv_that_is_not_utf8(tmp_path, capsys):
    csv_path = tmp_path / "syndication.csv"
    write_corpus_csv(csv_path)
    text = csv_path.read_text(encoding="utf-8").replace("Site 3", "Site é")
    csv_path.write_bytes(text.encode("latin-1"))
    capsys.readouterr()
    assert main(["ingest", str(csv_path), "--out",
                 str(tmp_path / "data")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {csv_path}: 'utf-8' codec can't decode byte 0xe9 in "
        "position ")
    assert not (tmp_path / "data").exists()


def test_ingest_names_a_field_over_the_csv_limit(tmp_path, capsys):
    """A 200,000-character justification is over ``csv``'s field limit,
    which stays at its default: the file and the line are named."""
    csv_path = tmp_path / "syndication.csv"
    write_corpus_csv(csv_path)
    with open(csv_path, "a", encoding="utf-8") as fh:
        fh.write('13,"Site 13","(i)","' + "x" * 200_000 + '","desc"\n')
    capsys.readouterr()
    assert main(["ingest", str(csv_path), "--out",
                 str(tmp_path / "data")]) == 1
    assert capsys.readouterr().err == (
        f"error: {csv_path}: line 14: field larger than field limit "
        "(131072)\n")
    assert not (tmp_path / "data").exists()


def test_a_config_integer_too_large_for_a_float_is_named(workspace, tmp_path,
                                                        capsys):
    config_path = write_config(workspace, tmp_path / "config.json",
                               learning_rate=10 ** 400,
                               output_dir=str(tmp_path / "runs"))
    capsys.readouterr()
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config_path}: key 'learning_rate' is an integer too large "
        "for a float\n")
    assert not (tmp_path / "runs").exists()
    # an integer field takes any integer, with no float conversion
    write_config(workspace, config_path, seeds=[0, 10 ** 400],
                 grid_seed=10 ** 400)
    config = ExperimentConfig.from_json(config_path)
    assert config.train_config({}, config.smoothing, 10 ** 400).seed == (
        10 ** 400)


def test_ingest_missing_file(tmp_path):
    assert main(["ingest", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out")]) == 1


def test_train_missing_config(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1


def test_load_prior_fallback_equals_prior_command(workspace):
    written = json.loads(workspace["prior"].read_text())["mu"]
    derived = load_prior(ExperimentConfig(dataset_dir=str(workspace["data"])))
    np.testing.assert_array_equal(derived, np.asarray(written))


def test_train_honours_setting_and_smoothing(workspace, tmp_path):
    config = json.loads(workspace["config"].read_text())
    config.update(setting={"hidden": 8, "dropout": 0.2},
                  smoothing={"variant": "prior", "alpha": 0.1})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(config_path),
                 "--out", str(model_path)]) == 0
    saved = json.loads(model_path.read_bytes().split(b"\n", 1)[0])["config"]
    assert saved["hidden"] == 8 and saved["dropout"] == 0.2
    assert saved["smoothing"] == {"variant": "prior", "alpha": 0.1}
    assert saved["learning_rate"] == 0.01
    assert saved["seed"] == ExperimentConfig().grid_seed


@pytest.mark.parametrize("command", ["train", "sweep", "final"])
def test_unknown_config_key_is_fatal(workspace, tmp_path, capsys, command):
    config = json.loads(workspace["config"].read_text())
    config["learning_rte"] = config.pop("learning_rate")
    config["output_dir"] = str(tmp_path / "runs")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(config_path)]) == 1
    assert "'learning_rte'" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_a_config_that_is_not_json_is_named(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"baseline": "ngram",}', encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: Expecting property name enclosed in double quotes: "
        "line 1 column 22 (char 21)\n")


@pytest.mark.parametrize("command", ["train", "sweep", "final"])
def test_a_config_with_a_prior_file_is_refused(workspace, tmp_path, capsys,
                                               monkeypatch, command):
    """μ comes only from ``dataset_dir/sites.json``: a ``prior_path`` key
    is an unknown key, refused before the dataset is read."""
    calls = []
    monkeypatch.setattr(cli, "read_dataset",
                        lambda *args, **kwargs: calls.append(args))
    config_path = write_config(workspace, tmp_path / "config.json",
                               prior_path=str(workspace["prior"]),
                               output_dir=str(tmp_path / "runs"))
    capsys.readouterr()
    assert main([command, "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config_path}: unknown key(s) 'prior_path'\n")
    assert calls == []
    assert not (tmp_path / "runs").exists()


def test_train_coerces_setting_types(workspace, tmp_path):
    config = json.loads(workspace["config"].read_text())
    config.update(setting={"hidden": 8.0, "l2": 0, "learning_rate": 1})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(config_path),
                 "--out", str(model_path)]) == 0
    text = model_path.read_bytes().split(b"\n", 1)[0].decode()
    assert '"hidden":8,' in text and '"l2":0.0,' in text
    assert '"learning_rate":1.0,' in text


@pytest.mark.parametrize("setting, key, value", [
    ({"hidden": 16.5}, "hidden", "16.5"),
    ({"hidden": 16, "batch_size": 64.9}, "batch_size", "64.9"),
    ({"hidden": math.inf}, "hidden", "inf"),
    ({"batch_size": math.nan}, "batch_size", "nan"),
])
def test_train_rejects_a_non_integer_int_setting(workspace, tmp_path, capsys,
                                                 setting, key, value):
    config = json.loads(workspace["config"].read_text())
    config.update(setting=setting)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    model_path = tmp_path / "model.json"
    capsys.readouterr()
    assert main(["train", "--config", str(config_path),
                 "--out", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: setting {key!r} must be an integer, got {value}\n"
    assert not model_path.exists()


def test_smoothing_key_typo_is_fatal(workspace, tmp_path, capsys):
    config = json.loads(workspace["config"].read_text())
    config.update(smoothing={"varient": "prior", "alpha": 0.1},
                  output_dir=str(tmp_path / "runs"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'smoothing.varient'" in err
    assert not (tmp_path / "runs").exists()


def test_non_object_config_is_fatal(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("5", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON object" in err


@pytest.mark.parametrize("failing", ["json", "csv"])
def test_prior_failed_write_keeps_old_files(workspace, tmp_path, monkeypatch,
                                            capsys, failing):
    out = tmp_path / "prior.json"
    assert main(["prior", str(workspace["data"]), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    if failing == "json":
        def dump_partial(obj, fh, **kwargs):
            fh.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_partial)
    else:
        class FailingWriter:
            def __init__(self, fh):
                self.fh = fh

            def writerow(self, row):
                self.fh.write("partial\r\n")
                raise OSError("disk full")

        monkeypatch.setattr(csv, "writer", FailingWriter)
    capsys.readouterr()
    assert main(["prior", str(workspace["data"]), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_mine_failed_write_keeps_old_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.Predictor, "load",
                        staticmethod(lambda path, featurizers=None: None))
    input_path = tmp_path / "input.txt"
    input_path.write_text("one line\n", encoding="utf-8")
    out = tmp_path / "mined.json"
    args = ["mine", "--models", "a.json", "b.json", "--input",
            str(input_path), "--out", str(out)]
    monkeypatch.setattr(cli, "mine", lambda texts, a, b, **kw: [{"k": 1}])
    assert main(args) == 0
    before = out.read_bytes()
    # fails after the first entry is in the temp file
    monkeypatch.setattr(cli, "mine",
                        lambda texts, a, b, **kw: [{"k": 1}, object()])
    with pytest.raises(TypeError):
        main(args)
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.txt",
                                                          "mined.json"]


@pytest.mark.parametrize("key,value,name", [
    ("smoothing", 5, "smoothing is int, not a JSON object"),
    ("setting", 5, "'setting'"),
    ("grid", 5, "'grid'"),
    ("grid", {"hidden": 16}, "'grid.hidden'"),
    ("grid", {"hidden": ["16"]}, r"'grid.hidden\[0\]'"),
    ("setting", {"hidden": "8"}, "'setting.hidden'"),
    ("smoothing", {"variant": "prior", "alpha": "0.1"}, "'smoothing.alpha'"),
    ("seeds", [0, 1.5], r"'seeds\[1\]'"),
    ("max_epochs", 2.0, "'max_epochs'"),
    ("patience", True, "'patience'"),
])
def test_config_value_of_wrong_json_type_is_fatal(workspace, tmp_path,
                                                  capsys, key, value, name):
    config = json.loads(workspace["config"].read_text())
    config.update({key: value, "output_dir": str(tmp_path / "runs")})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert re.search(name, err)
    assert not (tmp_path / "runs").exists()


def test_integers_load_where_floats_are_expected(workspace, tmp_path):
    config = json.loads(workspace["config"].read_text())
    config.update(learning_rate=1, alpha_grid=[0, 1],
                  grid={"hidden": [16], "learning_rate": [1], "l2": [0]},
                  smoothing={"variant": "uniform", "alpha": 1})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    loaded = ExperimentConfig.from_json(config_path)
    assert loaded.grid == {"hidden": [16], "learning_rate": [1], "l2": [0]}
    assert main(["train", "--config", str(config_path),
                 "--out", str(tmp_path / "model.json")]) == 0


def test_mine_rejects_an_old_featurizer_file(workspace, tmp_path, capsys):
    final = workspace_runs(workspace, "sweep", "final") / "step3_final"
    for name in ("model_no_ls.json", "model_ls.json"):
        shutil.copy(final / name, tmp_path / name)
    head, body = (final / "featurizer.json").read_bytes().split(b"\n", 1)
    featurizer = json.loads(head)
    featurizer["idf"] = np.frombuffer(body, "<f8").tolist()  # float lists
    (tmp_path / "featurizer.json").write_text(json.dumps(featurizer),
                                              encoding="utf-8")
    input_path = tmp_path / "input.txt"
    input_path.write_text("The ancient walls ensemble.\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["mine", "--models", str(tmp_path / "model_no_ls.json"),
                 str(tmp_path / "model_ls.json"),
                 "--input", str(input_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(tmp_path / "featurizer.json") in err and "rebuild it" in err
    # a featurizer file given as a checkpoint names the missing key
    assert main(["mine", "--models", str(final / "featurizer.json"),
                 str(final / "featurizer.json"),
                 "--input", str(input_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'config'" in err


@pytest.mark.parametrize("command", ["evaluate", "mine"])
def test_a_boe_featurizer_without_unk_is_named(workspace, tmp_path, capsys,
                                               command):
    """The file is refused when it is loaded, not at the first transform,
    whose ``"<unk>"`` lookup would raise a ``KeyError`` traceback."""
    train = workspace["data"] / "train.jsonl"
    tokens = sorted({token for line in train.read_text(
        encoding="utf-8").splitlines() for token in json.loads(line)["tokens"]})
    emb = tmp_path / "vectors.txt"
    emb.write_text("".join(f"{token} {i % 3} 1 {i % 5}\n"
                           for i, token in enumerate(tokens)), encoding="utf-8")
    model = tmp_path / "model.json"
    config = write_config(workspace, tmp_path / "config.json", baseline="boe",
                          embeddings_path=str(emb),
                          output_dir=str(tmp_path / "runs"))
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    featurizer_path = tmp_path / "model_featurizer.json"
    edit_head(featurizer_path, lambda payload: payload["tokens"].__setitem__(
        payload["tokens"].index("<unk>"), "unk"))
    input_path = tmp_path / "input.txt"
    input_path.write_text("The ancient walls ensemble.\n", encoding="utf-8")
    args = {"evaluate": ["evaluate", "--model", str(model), "--split",
                         "valid", "--dataset", str(workspace["data"])],
            "mine": ["mine", "--models", str(model), str(model),
                     "--input", str(input_path)]}
    capsys.readouterr()
    assert main(args[command]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {featurizer_path}: not a featurizer file of this version "
        "(no '<unk>' token)")


def test_evaluate_rejects_a_malformed_checkpoint(workspace, tmp_path, capsys):
    params = MlpParams(W1=np.zeros((5, 3)), b1=np.zeros(3),
                       W2=np.zeros((NUM_CLASSES, 3)), b2=np.zeros(NUM_CLASSES))
    path = tmp_path / "model.json"
    save_checkpoint(TrainedModel(params=params, featurizer_ref="f.json",
                                 config=TrainConfig(), best_epoch=1,
                                 history=[]), path)
    edit_head(path, lambda payload: payload["params"].pop("b2"))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(path), "--split", "valid",
                 "--dataset", str(workspace["data"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: params hold")


@pytest.mark.parametrize("key,value", [("hidden", "x"), ("k", [3]),
                                       ("best_epoch", "one")])
def test_evaluate_rejects_a_checkpoint_value_of_wrong_type(workspace, tmp_path,
                                                           capsys, key,
                                                           value):
    path = tmp_path / "model.json"
    shutil.copy(single_model(workspace), path)
    edit_head(path, lambda payload: (
        payload if key == "best_epoch" else payload["config"]).update(
            {key: value}))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(path), "--split", "valid",
                 "--dataset", str(workspace["data"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and key in err


@pytest.mark.parametrize("artifact,key", [
    ("step1_grid/log.json", "best"),
    ("step2_sweep/sweep.json", "chosen_variant"),
    ("step2_sweep/sweep.json", "chosen_alpha"),
])
def test_final_names_a_malformed_artifact(workspace, tmp_path, capsys,
                                          artifact, key):
    runs = tmp_path / "runs"
    copy_steps_1_and_2(workspace, runs)
    payload = json.loads((runs / artifact).read_text())
    del payload[key]
    (runs / artifact).write_text(json.dumps(payload))
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(runs))
    capsys.readouterr()
    assert main(["final", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {runs / artifact}: ")
    assert repr(key) in err
    assert not (runs / "step3_final").exists()


@pytest.mark.parametrize("key,value,message", [
    ("chosen_variant", "bogus", "unknown chosen_variant 'bogus'"),
    ("chosen_variant", "none", "unknown chosen_variant 'none'"),
    ("chosen_alpha", -0.5, "alpha must be non-negative"),
])
def test_final_names_a_bad_chosen_smoothing(workspace, tmp_path, capsys, key,
                                            value, message):
    runs = tmp_path / "runs"
    copy_steps_1_and_2(workspace, runs)
    sweep = runs / "step2_sweep/sweep.json"
    payload = json.loads(sweep.read_text())
    payload[key] = value
    sweep.write_text(json.dumps(payload))
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(runs))
    capsys.readouterr()
    assert main(["final", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {sweep}: {message}\n"
    assert not (runs / "step3_final").exists()


def test_evaluate_names_a_checkpoint_config_value_out_of_range(workspace,
                                                               tmp_path,
                                                               capsys):
    path = tmp_path / "model.json"
    shutil.copy(single_model(workspace), path)
    edit_head(path, lambda payload: payload["config"].update(patience=0))
    capsys.readouterr()
    assert main(["evaluate", "--model", str(path), "--split", "valid",
                 "--dataset", str(workspace["data"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'config': patience")


@pytest.mark.parametrize("artifact,key", [
    ("step1_grid/log.json", "best"),
    ("step2_sweep/sweep.json", "cells"),
    ("step2_sweep/sweep.json", "chosen_alpha"),
    ("step3_final/final.json", "baseline"),
    ("step3_final/final.json", "rows"),
    ("step3_final/final.json", "rows.ls.val_topk"),
    ("step2_sweep/sweep.json", "cells.0.mean_top1"),
    ("step3_final/final.json", "rows.ls=[1]"),
    ("step3_final/final.json", 'rows.ls.val_top1="x"'),
])
def test_report_names_a_malformed_artifact(workspace, tmp_path, capsys,
                                           artifact, key):
    """``key`` is a dotted path into the artifact. Its last part is
    deleted, and the error names the file and that key; or, with
    ``=<JSON>``, it is set to that value of the wrong type, and the error
    names the file and says so."""
    runs = tmp_path / "runs"
    workspace_runs(workspace, "sweep", "final")
    for rel in ("step1_grid/log.json", "step2_sweep/sweep.json",
                "step3_final/final.json"):
        (runs / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(workspace["runs"] / rel, runs / rel)
    payload = json.loads((runs / artifact).read_text())
    key, _, value = key.partition("=")
    *parents, key = key.split(".")
    inner = payload
    for part in parents:
        inner = inner[int(part) if isinstance(inner, list) else part]
    if value:
        inner[key] = json.loads(value)
    else:
        del inner[key]
    (runs / artifact).write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", str(runs)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {runs / artifact}: ")
    assert ("wrong type" if value else repr(key)) in err
    assert not (runs / "summary.json").exists()


@pytest.mark.parametrize("k", ["0", "-1", "12"])
@pytest.mark.parametrize("split", ["valid", "sd"])
def test_evaluate_rejects_k_outside_one_to_eleven(workspace, capsys, k,
                                                  split):
    model_path = single_model(workspace)
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model_path), "--split", split,
                 "--dataset", str(workspace["data"]), "--k", k]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: k must be in 1..11, got {k}\n"
    assert captured.out == ""


def test_evaluate_rejects_k_before_loading_the_model(workspace, tmp_path,
                                                     capsys):
    missing = tmp_path / "no-such-model.json"
    capsys.readouterr()
    assert main(["evaluate", "--model", str(missing), "--split", "valid",
                 "--dataset", str(workspace["data"]), "--k", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: k must be in 1..11, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_config_k_outside_one_to_eleven_trains_nothing(workspace, tmp_path,
                                                       capsys, monkeypatch,
                                                       command):
    calls = []
    monkeypatch.setattr(harness, "train",
                        lambda *args, **kwargs: calls.append(args))
    config = json.loads(workspace["config"].read_text())
    config.update(k=0, output_dir=str(tmp_path / "runs"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == "error: k must be in 1..11, got 0\n"
    assert calls == []
    assert not (tmp_path / "runs").exists()
    with pytest.raises(ValueError, match="k must be in 1..11, got 0"):
        ExperimentConfig(k=0)


def single_model(workspace):
    """The ``ouvclf train`` checkpoint of the workspace config."""
    model_path = workspace["root"] / "single/model.json"
    if not model_path.exists():
        assert main(["train", "--config", str(workspace["config"]),
                     "--out", str(model_path)]) == 0
    return model_path


def write_config(workspace, path, **changes):
    """The workspace config with ``changes``, written to ``path``."""
    config = json.loads(workspace["config"].read_text())
    config.update(changes)
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def workspace_runs(workspace, *commands):
    """The workspace config's output directory after each of ``commands``
    (``"sweep"``, ``"final"``), which runs only if no earlier test has
    written its artifact."""
    for command in commands:
        artifact = harness.STEP_ARTIFACTS[command][0]
        if not (workspace["runs"] / artifact).exists():
            assert main([command, "--config", str(workspace["config"])]) == 0
    return workspace["runs"]


def copy_steps_1_and_2(workspace, runs):
    """Copy the workspace sweep's step 1 and 2 artifacts into ``runs``,
    running the sweep first if no earlier test has."""
    workspace_runs(workspace, "sweep")
    for rel in ("step1_grid/log.json", "step2_sweep/sweep.json"):
        (runs / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(workspace["runs"] / rel, runs / rel)


@pytest.mark.parametrize("command", ["train", "sweep", "final", "evaluate"])
def test_missing_dataset_dir_is_named(workspace, tmp_path, capsys, command):
    missing = tmp_path / "dataa"
    runs = tmp_path / "runs"
    if command == "evaluate":
        args = ["--model", str(single_model(workspace)), "--split", "valid",
                "--dataset", str(missing)]
    else:
        if command == "final":
            copy_steps_1_and_2(workspace, runs)
        args = ["--config", str(write_config(
            workspace, tmp_path / "config.json", dataset_dir=str(missing),
            output_dir=str(runs)))]
    capsys.readouterr()
    assert main([command, *args]) == 1
    assert capsys.readouterr().err == (
        f"error: {missing}: no such dataset directory\n")
    assert not (runs / "step3_final").exists()


@pytest.mark.parametrize("command", ["mine", "prior", "evaluate"])
def test_a_directory_where_a_file_is_expected_is_an_error(workspace, tmp_path,
                                                          capsys, command):
    model = str(single_model(workspace))
    args = {"mine": ["mine", "--models", model, model,
                     "--input", str(tmp_path)],
            "prior": ["prior", str(workspace["data"]),
                      "--out", str(tmp_path)],
            "evaluate": ["evaluate", "--model", str(tmp_path), "--split",
                         "valid", "--dataset", str(workspace["data"])]}
    capsys.readouterr()
    assert main(args[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value, message", [
    ("variants", ["vanila"], "unknown variant 'vanila'"),
    ("seeds", [0], "the sweep requires at least two seeds"),
    ("seeds", [0, 1, 0], "seeds: 0 is repeated"),
    ("alpha_grid", [-0.1], "alpha must be non-negative"),
    ("grid", {}, "grid must be non-empty"),
    ("grid", {"hidden": [16], "batch_size": []}, "grid must be non-empty"),
    ("grid", {"hiden": [16]}, "unknown setting key 'hiden'"),
    ("setting", {"batchsize": 64}, "unknown setting key 'batchsize'"),
    ("max_epochs", 0, "max_epochs must be >= 1"),
    ("patience", 0, "patience must be >= 1, got 0"),
    ("grid", {"hidden": [16], "dropout": [0.2, 1.5]},
     "dropout must be in [0, 1), got 1.5"),
    ("grid", {"hidden": [0]}, "hidden must be >= 1, got 0"),
    ("seeds", [-1, 0], "seeds: seed must be >= 0, got -1"),
    ("learning_rate", math.nan, "learning_rate must be finite and >= 0, "
     "got nan"),
    ("setting", {"learning_rate": math.inf},
     "learning_rate must be finite and >= 0, got inf"),
    ("grid", {"hidden": [16], "l2": [0.0, -1]},
     "l2 must be finite and >= 0, got -1.0"),
    ("smoothing", {"variant": "prior", "alpha": math.inf},
     "smoothing: alpha must be finite, got inf"),
    ("alpha_grid", [math.inf], "alpha_grid: alpha must be finite, got inf"),
    ("alpha_grid", [math.nan], "alpha_grid: alpha must be finite, got nan"),
    ("variants", [], "variants must be non-empty"),
    ("alpha_grid", [], "alpha_grid must be non-empty"),
    ("variants", ["prior", "uniform", "prior"],
     "variants: 'prior' is repeated"),
    ("alpha_grid", [0.1, 0.0, 0.1], "alpha_grid: 0.1 is repeated"),
    ("baseline", "bert", "unknown baseline 'bert'"),
    ("baseline", "boe", "BoE baseline requires embeddings_path"),
    ("min_df", 0, "min_df must be >= 1, got 0"),
], ids=["variant", "one-seed", "repeated-seed", "negative-alpha",
        "empty-grid", "empty-grid-list", "grid-key", "setting-key",
        "zero-epochs", "zero-patience", "grid-dropout", "grid-zero-hidden",
        "negative-seed", "nan-learning-rate", "setting-infinite-learning-rate",
        "grid-negative-l2", "infinite-smoothing-alpha", "infinite-alpha",
        "nan-alpha", "no-variants", "no-alphas", "repeated-variant",
        "repeated-alpha", "unknown-baseline", "boe-without-embeddings",
        "zero-min-df"])
@pytest.mark.parametrize("command", ["sweep", "train", "final"])
def test_bad_config_value_fails_before_training(workspace, tmp_path, capsys,
                                                monkeypatch, command, key,
                                                value, message):
    runs = tmp_path / "runs"
    if command != "train":  # a rerun must leave steps 1 and 2 as they are
        copy_steps_1_and_2(workspace, runs)
    calls = []
    for module, name in ((harness, "train"), (cli, "read_dataset")):
        monkeypatch.setattr(module, name,
                            lambda *args, **kwargs: calls.append(args))
    before = {path: path.is_file() and path.read_bytes()
              for path in runs.rglob("*")}
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(runs), **{key: value})
    capsys.readouterr()
    assert main([command, "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert calls == []
    assert {path: path.is_file() and path.read_bytes()
            for path in runs.rglob("*")} == before


@pytest.mark.parametrize("command", ["evaluate", "mine"])
def test_a_checkpoint_beside_another_runs_featurizer_is_named(
        workspace, tmp_path, capsys, command):
    """The checkpoint's input size and its featurizer's dimension are
    compared when it loads, before the dataset or the input is read."""
    source = single_model(workspace)
    model = tmp_path / "model.json"
    shutil.copy(source, model)
    featurizer = harness.Featurizer.load(
        source.with_name("model_featurizer.json"))
    index = featurizer.vocab.gram_to_index
    grams = sorted(index, key=index.get)[:5]
    other = tmp_path / "model_featurizer.json"
    harness.Featurizer("ngram", vocab=TfidfVocabulary(
        dict(zip(grams, range(5))), featurizer.vocab.idf[:5])).save(other)
    missing = tmp_path / "missing"
    args = {"evaluate": ["evaluate", "--model", str(model), "--split",
                         "valid", "--dataset", str(missing)],
            "mine": ["mine", "--models", str(model), str(model),
                     "--input", str(missing)]}
    capsys.readouterr()
    assert main(args[command]) == 1
    assert capsys.readouterr().err == (
        f"error: {model} takes {featurizer.dimension} input features but "
        f"its featurizer {other.resolve()} gives 5; they come from "
        "different runs\n")


def test_failed_final_keeps_step3_and_rerun_writes_its_bytes(
        workspace, tmp_path, capsys, monkeypatch):
    def final(runs, **changes):
        config_path = write_config(workspace, tmp_path / f"{runs.name}.json",
                                   output_dir=str(runs), **changes)
        return main(["final", "--config", str(config_path)])

    def step3(runs):
        return {p.name: p.read_bytes()
                for p in sorted((runs / "step3_final").iterdir())}

    runs, fresh = tmp_path / "runs", tmp_path / "fresh"
    copy_steps_1_and_2(workspace, runs)
    copy_steps_1_and_2(workspace, fresh)
    assert final(runs) == 0
    before = step3(runs)
    # another featurizer and other models, so a stray write would show
    changes = {"min_df": 2, "max_epochs": 3}
    use_cpus(monkeypatch, 1)
    real_train = harness.train
    calls = []

    def diverge_on_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise TrainingDiverged("diverged in the second training")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", diverge_on_second)
    capsys.readouterr()
    assert final(runs, **changes) == 1
    assert capsys.readouterr().err == (
        "error: diverged in the second training\n")
    assert len(calls) == 2
    assert step3(runs) == before
    monkeypatch.setattr(harness, "train", real_train)
    assert final(runs, **changes) == 0
    assert final(fresh, **changes) == 0
    assert step3(runs) == step3(fresh)
    assert step3(runs).keys() == before.keys()
    assert all(step3(runs)[name] != before[name] for name in before)


def test_final_with_an_empty_test_split_leaves_step3_as_it_was(
        workspace, tmp_path, capsys, monkeypatch):
    runs, data = tmp_path / "runs", tmp_path / "data"
    copy_steps_1_and_2(workspace, runs)
    assert main(["final", "--config", str(write_config(
        workspace, tmp_path / "config.json", output_dir=str(runs)))]) == 0
    before = {p.name: p.read_bytes() for p in (runs / "step3_final").iterdir()}
    shutil.copytree(workspace["data"], data)
    (data / "test.jsonl").unlink()
    calls = []
    monkeypatch.setattr(harness, "train",
                        lambda *args, **kwargs: calls.append(args))
    capsys.readouterr()
    assert main(["final", "--config", str(write_config(
        workspace, tmp_path / "config.json", output_dir=str(runs),
        dataset_dir=str(data)))]) == 1
    assert capsys.readouterr().err == (
        "error: the 'test' split is empty; the final step scores the test "
        "split\n")
    assert calls == []
    assert {p.name: p.read_bytes()
            for p in (runs / "step3_final").iterdir()} == before


def test_failed_train_creates_no_file_or_directory(workspace, tmp_path,
                                                   capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise TrainingDiverged("diverged")

    monkeypatch.setattr(harness, "train", diverge)
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(tmp_path / "runs"))
    for extra in ([], ["--out", str(tmp_path / "models/model.json")]):
        capsys.readouterr()
        assert main(["train", "--config", str(config_path), *extra]) == 1
        assert capsys.readouterr().err == "error: diverged\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_a_worker_that_dies_is_an_error_and_writes_nothing(
        workspace, tmp_path, capsys, monkeypatch):
    parent = os.getpid()

    def die(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("trained in the test process")
        os._exit(1)

    monkeypatch.setattr(harness, "train", die)
    use_cpus(monkeypatch, 2)
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(tmp_path / "runs"),
                               grid={"hidden": [8, 16], "batch_size": [32]})
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_final_and_report_refuse_a_grid_and_sweep_of_two_runs(
        workspace, tmp_path, capsys, monkeypatch):
    """A sweep rerun with another grid whose every smoothed training
    diverges writes a new ``log.json`` beside the old ``sweep.json``;
    ``final`` and ``report`` then name both files and write nothing."""
    runs = tmp_path / "runs"
    copy_steps_1_and_2(workspace, runs)
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(runs))
    assert main(["final", "--config", str(config_path)]) == 0
    assert main(["report", str(runs)]) == 0
    real_train = harness.train
    calls = []

    def diverge_when_smoothed(*args, **kwargs):
        calls.append(args)
        if args[5].smoothing.variant != "none":
            raise TrainingDiverged("diverged")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", diverge_when_smoothed)
    sweep_bytes = (runs / "step2_sweep/sweep.json").read_bytes()
    other = write_config(workspace, tmp_path / "other.json",
                         output_dir=str(runs),
                         grid={"hidden": [8], "batch_size": [64]})
    capsys.readouterr()
    assert main(["sweep", "--config", str(other)]) == 1
    assert "no sweep cell completed" in capsys.readouterr().err
    assert (runs / "step2_sweep/sweep.json").read_bytes() == sweep_bytes
    before = {p: p.read_bytes() for p in sorted(runs.rglob("*"))
              if p.is_file()}
    calls.clear()
    grid_path, sweep_path = (runs / "step1_grid/log.json",
                             runs / "step2_sweep/sweep.json")
    for argv in (["final", "--config", str(config_path)],
                 ["report", str(runs)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sweep_path} holds setting ")
        assert f"but {grid_path} holds best setting " in err
    assert calls == []
    assert {p: p.read_bytes() for p in sorted(runs.rglob("*"))
            if p.is_file()} == before


# ids kept from when each command also ran without ``prior_path``, so
# results compare across versions of the suite
@pytest.mark.parametrize("command", ["train", "sweep", "final", "evaluate"],
                         ids=["train-missing0", "sweep-missing2",
                              "final-missing4", "evaluate-None"])
def test_config_without_dataset_dir_names_the_field(workspace, tmp_path,
                                                    capsys, monkeypatch,
                                                    command):
    runs = tmp_path / "runs"
    if command == "evaluate":
        args = ["--model", str(single_model(workspace)), "--split", "valid",
                "--dataset", ""]
    else:
        if command == "final":
            copy_steps_1_and_2(workspace, runs)
        config = json.loads(workspace["config"].read_text())
        del config["dataset_dir"]
        config["output_dir"] = str(runs)
        (tmp_path / "config.json").write_text(json.dumps(config),
                                              encoding="utf-8")
        args = ["--config", "config.json"]
    monkeypatch.chdir(tmp_path)  # not read as the current directory
    capsys.readouterr()
    assert main([command, *args]) == 1
    assert capsys.readouterr().err == (
        "error: no dataset directory given (empty 'dataset_dir' or "
        "--dataset)\n")
    assert not (runs / "step3_final").exists()


def test_report_refuses_a_final_of_an_earlier_grid(workspace, tmp_path,
                                                    capsys):
    """A successful sweep rerun with another grid leaves the old
    ``final.json`` beside the new ``log.json``; ``report`` names both."""
    runs = tmp_path / "runs"
    first, second = (write_config(workspace, tmp_path / f"{name}.json",
                                  output_dir=str(runs),
                                  grid={"hidden": [hidden],
                                        "batch_size": [batch]})
                     for name, hidden, batch in (("first", 8, 32),
                                                 ("second", 6, 16)))
    assert main(["sweep", "--config", str(first)]) == 0
    assert main(["final", "--config", str(first)]) == 0
    assert main(["sweep", "--config", str(second)]) == 0
    capsys.readouterr()
    assert main(["report", str(runs)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {runs / 'step3_final/final.json'} holds "
                          "setting {'batch_size': 32, 'hidden': 8} but "
                          f"{runs / 'step1_grid/log.json'} holds best "
                          "setting {'batch_size': 16, 'hidden': 6}")
    assert "rerun `ouvclf final`" in err
    assert not (runs / "summary.json").exists()
    assert main(["final", "--config", str(second)]) == 0
    assert main(["report", str(runs)]) == 0


@pytest.mark.parametrize("split", ["train", "valid"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_missing_training_split_is_named_before_training(
        workspace, tmp_path, capsys, monkeypatch, command, split):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    (data / f"{split}.jsonl").unlink()
    calls = []
    monkeypatch.setattr(harness, "train",
                        lambda *args, **kwargs: calls.append(args))
    config_path = write_config(workspace, tmp_path / "config.json",
                               dataset_dir=str(data),
                               output_dir=str(tmp_path / "runs"))
    capsys.readouterr()
    assert main([command, "--config", str(config_path)]) == 1
    err = capsys.readouterr().err  # the n-gram fit names an empty train
    assert err.startswith("error:") and split in err and "empty" in err
    assert calls == []
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["prior", "train"])
def test_a_sites_entry_without_criteria_is_named(workspace, tmp_path, capsys,
                                                 command):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    sites = json.loads((data / "sites.json").read_text(encoding="utf-8"))
    del sites[1]["criteria"]
    (data / "sites.json").write_text(json.dumps(sites), encoding="utf-8")
    args = {"prior": ["prior", str(data), "--out",
                      str(tmp_path / "prior.json")],
            "train": ["train", "--config", str(write_config(
                workspace, tmp_path / "config.json", dataset_dir=str(data),
                output_dir=str(tmp_path / "runs")))]}
    capsys.readouterr()
    assert main(args[command]) == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'sites.json'}: not a sites file "
        "(missing key 'criteria')\n")


@pytest.mark.parametrize("criteria", [[0, 3], [11], "ab", [True]])
@pytest.mark.parametrize("command", ["prior", "sweep"])
def test_a_sites_entry_with_bad_criteria_is_named(workspace, tmp_path, capsys,
                                                  command, criteria):
    """Criterion 0 would count as criterion 10 and 11 would be an
    ``IndexError``: only integers 1-10 are read."""
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    sites = json.loads((data / "sites.json").read_text(encoding="utf-8"))
    sites[1]["criteria"] = criteria
    (data / "sites.json").write_text(json.dumps(sites), encoding="utf-8")
    args = {"prior": ["prior", str(data), "--out",
                      str(tmp_path / "prior.json")],
            "sweep": ["sweep", "--config", str(write_config(
                workspace, tmp_path / "config.json", dataset_dir=str(data),
                output_dir=str(tmp_path / "runs")))]}
    capsys.readouterr()
    assert main(args[command]) == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'sites.json'}: not a sites file (site "
        f"{sites[1]['site_id']!r}: criteria {criteria!r} is not a list of "
        "integers 1-10)\n")
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "prior.json").exists()


def test_a_truncated_dataset_line_is_named(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "train.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1][:lines[1].index("]") + 1] + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    config_path = write_config(workspace, tmp_path / "config.json",
                               dataset_dir=str(data),
                               output_dir=str(tmp_path / "runs"))
    capsys.readouterr()
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: Expecting ',' delimiter\n")


def test_a_dataset_line_without_criteria_is_named(workspace, tmp_path,
                                                  capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "train.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[2])
    del record["criteria"]
    lines[2] = json.dumps(record) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    config_path = write_config(workspace, tmp_path / "config.json",
                               dataset_dir=str(data),
                               output_dir=str(tmp_path / "runs"))
    capsys.readouterr()
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: not a dataset file (missing key 'criteria')\n")


def test_a_dataset_of_the_earlier_form_says_to_rebuild_it(workspace, tmp_path,
                                                          capsys):
    """A line that holds the label rows, as dataset lines did before they
    held the site's criteria, names the file and the command that rebuilds
    it, both from ``read_dataset`` and from ``ouvclf sweep``."""
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "train.jsonl"
    path.write_text(
        '{"tokens": ["a", "b"], "sentence_label": 2, '
        '"one_hot": [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], '
        '"parental": [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2], '
        '"site_id": 7, "split": "train"}\n', encoding="utf-8")
    message = (f"{path}: not a dataset file of this version (line 1 holds "
               "'parental'); rebuild it with `ouvclf ingest`")
    with pytest.raises(ValueError) as excinfo:
        read_dataset(data)
    assert str(excinfo.value) == message
    config_path = write_config(workspace, tmp_path / "config.json",
                               dataset_dir=str(data),
                               output_dir=str(tmp_path / "runs"))
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("split, key, value, detail", [
    ("train", "tokens", [1, 2], "tokens [1, 2] is not a list of strings"),
    ("train", "criteria", [0], "criteria [0] is not a list of integers 1-10"),
    ("valid", "sentence_label", "x",
     "sentence_label 'x' is not an integer 1-10 or null"),
], ids=["int-tokens", "zero-criteria", "str-label"])
def test_a_bad_dataset_value_is_named_before_training(
        workspace, tmp_path, capsys, monkeypatch, split, key, value, detail):
    """Each of these would end ``ouvclf sweep`` otherwise: a ``TypeError``
    traceback, or criterion 0 read as the Others column of the parental
    label."""
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / f"{split}.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), key: value}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    calls = []
    monkeypatch.setattr(harness, "train",
                        lambda *args, **kwargs: calls.append(args))
    config_path = write_config(workspace, tmp_path / "config.json",
                               dataset_dir=str(data),
                               output_dir=str(tmp_path / "runs"))
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not a dataset file (line 2: ")
    assert detail in err
    assert calls == []
    assert not (tmp_path / "runs").exists()
