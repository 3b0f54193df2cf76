import contextlib
import csv
import io
import json
import math
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ouv_classifier import NUM_CLASSES, cli, corpus, harness
from ouv_classifier.cli import main
from ouv_classifier.corpus import read_dataset
from ouv_classifier.features import TfidfVocabulary
from ouv_classifier.harness import ExperimentConfig, load_prior
from ouv_classifier.labels import MAX_ALPHA
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


def write_corpus_csv(path, with_sd=True, n_sites=12):
    rows = [HEADER]
    for site in range(1, n_sites + 1):
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


def test_train_writes_the_featurizer_beside_the_model(workspace, tmp_path):
    out = tmp_path / "new/dir"
    assert main(["train", "--config", str(workspace["config"]),
                 "--out", str(out / "m.json")]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["m.json",
                                                     "m_featurizer.json"]
    predictor = harness.Predictor.load(out / "m.json")
    assert predictor.model.featurizer_ref == "m_featurizer.json"
    assert predictor.featurizer_path == (out / "m_featurizer.json").resolve()


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
    # the final models were trained on the sweep's featurizer
    assert (workspace["runs"] / "step3_final/featurizer.json").read_bytes() \
        == (workspace["runs"] / "step1_grid/featurizer.json").read_bytes()

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


GRID_LOG, SWEEP, FINAL = (rel for rel, _ in harness.STEP_ARTIFACTS.values())


@pytest.mark.parametrize("command,present", [
    ("final", []), ("final", [GRID_LOG]), ("final", [SWEEP]),
    ("report", [GRID_LOG]), ("report", [SWEEP, FINAL]),
    ("report", [GRID_LOG, FINAL]), ("report", [GRID_LOG, SWEEP])])
def test_final_and_report_refuse_an_incomplete_run(workspace, tmp_path,
                                                   capsys, command, present):
    """``final`` without ``log.json``, ``sweep.json`` or the sweep's
    featurizer and ``report`` without any step artifact exit 1 with one
    ``error:`` line naming the run directory and every missing file, and
    write nothing."""
    source = workspace_runs(workspace, "sweep", "final")
    runs = tmp_path / "runs"
    for rel in present:
        (runs / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(source / rel, runs / rel)
    if command == "final":
        args = ["--config", str(write_config(
            workspace, tmp_path / "config.json", output_dir=str(runs)))]
    else:
        args = [str(runs)]
    before = {p: p.read_bytes() if p.is_file() else None
              for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert main([command, *args]) == 1
    read = ((GRID_LOG, SWEEP, harness.GRID_FEATURIZER) if command == "final"
            else (GRID_LOG, SWEEP, FINAL))
    assert capsys.readouterr().err == (
        f"error: {runs}: missing artifacts: "
        + ", ".join(rel for rel in read if rel not in present) + "\n")
    assert {p: p.read_bytes() if p.is_file() else None
            for p in tmp_path.rglob("*")} == before


def test_prior_refuses_an_out_that_is_its_csv_twin(workspace, tmp_path,
                                                   capsys):
    """``--out prior.csv`` would stage the JSON and the CSV under one name:
    it is refused before the dataset is read, and the earlier prior files
    keep their bytes."""
    assert main(["prior", str(workspace["data"]),
                 "--out", str(tmp_path / "prior.json")]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    out = tmp_path / "prior.csv"
    capsys.readouterr()
    assert main(["prior", str(tmp_path / "no_dataset"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --out {out} is the path of its CSV twin; give the JSON "
        f"path, such as {tmp_path / 'prior.json'}\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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


# one mutation of a clean syndication CSV; those of WHOLE_FILE_MUTATIONS
# make ``parse_syndication`` refuse the file
INGEST_MUTATIONS = ["extra-field", "missing-field", "site-id", "long-field",
                    "not-utf8", "nul", "unterminated-quote", "empty",
                    "header-only"]
WHOLE_FILE_MUTATIONS = {"long-field", "not-utf8", "empty"}
SITE_IDS = [b"inf", b"-inf", b"nan", b"1e400", b"1.7", b"x", b""]


@settings(max_examples=200, deadline=None)
@given(mutation=st.sampled_from(INGEST_MUTATIONS), data=st.data())
def test_ingest_of_a_mutated_csv_exits_0_or_1_with_an_error_line(mutation,
                                                                 data):
    """``ouvclf ingest`` of ``write_corpus_csv``'s file after one mutation,
    to one drawn data row or at one drawn byte, lets no exception escape:
    it exits 0, or 1 with a last stderr line that starts with ``error: ``
    and names the CSV where the whole file is refused. The budget: 200
    examples, about 1.2 s under ``-X dev``."""
    with tempfile.TemporaryDirectory() as root:
        csv_path = Path(root) / "syndication.csv"
        write_corpus_csv(csv_path)
        header, *rows = csv_path.read_bytes().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(rows) - 1))
        # no field of ``write_corpus_csv`` holds a comma
        fields = rows[i].rstrip(b"\n").split(b",")
        if mutation == "extra-field":
            fields.append(b"extra")
        elif mutation == "missing-field":
            fields.pop()
        elif mutation == "site-id":
            fields[0] = data.draw(st.sampled_from(SITE_IDS))
        elif mutation == "long-field":
            fields[data.draw(st.integers(0, len(fields) - 1))] = (
                b'"' + b"x" * 200_000 + b'"')
        elif mutation == "unterminated-quote":
            fields[-1] = fields[-1][:-1]  # the rest of the file is quoted
        rows[i] = b",".join(fields) + b"\n"
        text = header + b"".join(rows)
        if mutation in ("not-utf8", "nul"):
            at = data.draw(st.integers(0, len(text)))
            text = (text[:at] + (b"\xff" if mutation == "not-utf8"
                                 else b"\x00") + text[at:])
        elif mutation in ("empty", "header-only"):
            text = header if mutation == "header-only" else b""
        csv_path.write_bytes(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["ingest", str(csv_path), "--out",
                         str(Path(root) / "data")])
    assert code in (0, 1)
    if mutation in WHOLE_FILE_MUTATIONS:
        assert code == 1
    if code == 1:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith("error: ")
        if mutation in WHOLE_FILE_MUTATIONS:
            assert str(csv_path) in last


# one mutation of a clean ``mine`` input; those of SAME_KEPT_MUTATIONS keep
# what the clean input keeps, and those of REFUSED_MUTATIONS make
# ``read_lines`` refuse the file
MINE_MUTATIONS = ["bom", "crlf", "nul", "long-line", "empty", "not-utf8",
                  "truncated"]
SAME_KEPT_MUTATIONS = {"bom", "crlf"}
REFUSED_MUTATIONS = {"not-utf8", "truncated"}
MINE_INPUT = ("The ancient walls ensemble shows enduring testimony.\n"
              "A renowned temple site of great value, its café façade.\n"
              "\n"
              "The garden terrace of the harbour quarter — a mosaic.\n")


def mine_cli(models, input_path):
    """``ouvclf mine``'s exit code, stdout and stderr on ``input_path``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["mine", "--models", *models, "--input", str(input_path),
                     "--confidence", "0", "--iou", "0"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(mutation=st.sampled_from(MINE_MUTATIONS), data=st.data())
def test_mine_of_a_mutated_input_exits_0_or_1_with_an_error_line(
        workspace, mutation, data):
    """``ouvclf mine`` with the module's final models, on ``MINE_INPUT``
    after one mutation at one drawn place, lets no exception escape: a
    leading byte-order mark or CRLF line ends keep what the clean input
    keeps; a NUL byte, a 200,000-character line or an empty file exit 0
    with a JSON list and ``kept K of N sentences``; a byte that is not
    UTF-8 or a cut inside a character exit 1 with one ``error:`` line
    naming the file. The budget: 100 examples, about 1 s under
    ``-X dev``."""
    final = workspace_runs(workspace, "sweep", "final") / "step3_final"
    models = [str(final / f"model_{label}.json") for label in ("no_ls", "ls")]
    text = MINE_INPUT.encode("utf-8")
    with tempfile.TemporaryDirectory() as root:
        input_path = Path(root) / "input.txt"
        input_path.write_bytes(text)
        clean = mine_cli(models, input_path)
        if mutation == "bom":
            text = b"\xef\xbb\xbf" + text
        elif mutation == "crlf":
            text = text.replace(b"\n", b"\r\n")
        elif mutation in ("nul", "not-utf8"):
            # at a character boundary: not before a continuation byte
            at = data.draw(st.sampled_from([
                i for i in range(len(text) + 1)
                if i == len(text) or text[i] & 0xc0 != 0x80]))
            text = (text[:at] + (b"\x00" if mutation == "nul" else b"\xff")
                    + text[at:])
        elif mutation == "long-line":
            at = data.draw(st.sampled_from(
                [0, *(i + 1 for i, byte in enumerate(text) if byte == 10)]))
            line = (b"walls " * 40_000)[:200_000] + b"\n"
            text = text[:at] + line + text[at:]
        elif mutation == "truncated":
            # after the first byte of one of the multi-byte characters
            text = text[:data.draw(st.sampled_from(
                [i + 1 for i, byte in enumerate(text) if byte >= 0xc0]))]
        else:
            text = b""
        input_path.write_bytes(text)
        code, out, err = mine_cli(models, input_path)
    assert "Traceback" not in err
    if mutation in REFUSED_MUTATIONS:
        assert code == 1 and out == ""
        assert err.startswith(f"error: {input_path}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        return
    assert code == 0
    kept = json.loads(out)
    assert isinstance(kept, list)
    assert re.fullmatch(f"kept {len(kept)} of [0-9]+ sentences\n", err)
    if mutation in SAME_KEPT_MUTATIONS:
        assert (code, out, err) == clean


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


def test_a_repeated_grid_value_is_named_before_training(workspace, tmp_path,
                                                       capsys, monkeypatch):
    """16 and 16.0 build the same ``TrainConfig``, so the grid would train
    and log that cell twice."""
    calls = []
    monkeypatch.setattr(harness, "train",
                        lambda *args, **kwargs: calls.append(args))
    config_path = write_config(workspace, tmp_path / "config.json",
                               grid={"hidden": [16, 16.0]},
                               output_dir=str(tmp_path / "runs"))
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config_path}: grid.hidden: 16.0 is repeated\n")
    assert calls == []
    assert not (tmp_path / "runs").exists()


def test_ingest_of_too_few_sentences_writes_nothing(tmp_path, capsys):
    csv_path, out = tmp_path / "one_site.csv", tmp_path / "data"
    write_corpus_csv(csv_path, n_sites=1)
    capsys.readouterr()
    assert main(["ingest", str(csv_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: split 'valid' is empty: 2 sentences were kept and valid and "
        "test each take a tenth\n")
    assert not out.exists()


def test_ingest_refuses_a_negative_seed_before_reading_the_csv(
        tmp_path, capsys, monkeypatch):
    csv_path, out = tmp_path / "corpus.csv", tmp_path / "data"
    write_corpus_csv(csv_path)
    monkeypatch.setattr(cli, "parse_syndication",
                        lambda *args: pytest.fail("the CSV was read"))
    capsys.readouterr()
    assert main(["ingest", str(csv_path), "--out", str(out),
                 "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_ingest_missing_file(tmp_path):
    assert main(["ingest", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "out")]) == 1


def test_train_missing_config(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1


def test_load_prior_fallback_equals_prior_command(workspace):
    written = json.loads(workspace["prior"].read_text())
    counts, mu = load_prior(workspace["data"])
    np.testing.assert_array_equal(counts, np.asarray(written["counts"]))
    np.testing.assert_array_equal(mu, np.asarray(written["mu"]))


# a sites.json change that leaves no prior -> the error it gives
UNUSABLE_SITES = {
    # a cultural-only export: no site is justified under criteria vii-x
    "cultural-only": (lambda sites: [dict(site, criteria=[
        c for c in site["criteria"] if c <= 6] or [1]) for site in sites],
        "criterion 7 never occurs; cannot normalize prior"),
    "no-criteria": (lambda sites: [dict(sites[0], criteria=[]), *sites[1:]],
                    "site 1 has no criteria"),
}


@pytest.mark.parametrize("damage", sorted(UNUSABLE_SITES))
@pytest.mark.parametrize("command", ["prior", "train", "sweep", "final"])
def test_a_sites_file_that_gives_no_prior_is_named(workspace, tmp_path,
                                                   capsys, command, damage):
    """Each command that reads the prior names ``sites.json`` when it gives
    none, and writes nothing."""
    data, runs = tmp_path / "data", tmp_path / "runs"
    shutil.copytree(workspace["data"], data)
    sites = data / "sites.json"
    change, message = UNUSABLE_SITES[damage]
    sites.write_text(json.dumps(change(json.loads(sites.read_text()))),
                     encoding="utf-8")
    if command == "final":  # the workspace sweep scored this cell
        choose_cell(workspace, runs, "prior", 0.1)
    # ``train`` smooths with ``prior`` at alpha 0.1, as the sweep's cells do
    config = write_config(workspace, tmp_path / "config.json",
                          dataset_dir=str(data), output_dir=str(runs),
                          smoothing={"variant": "prior", "alpha": 0.1})
    args = {"prior": ["prior", str(data), "--out",
                      str(tmp_path / "out/prior.json")],
            "train": ["train", "--config", str(config)],
            "sweep": ["sweep", "--config", str(config)],
            "final": ["final", "--config", str(config)]}[command]
    before = {p: p.read_bytes() if p.is_file() else None
              for p in tmp_path.rglob("*")}
    capsys.readouterr()
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {sites}: {message}\n"
    assert {p: p.read_bytes() if p.is_file() else None
            for p in tmp_path.rglob("*")} == before


def choose_cell(workspace, runs, variant, alpha):
    """The workspace sweep's steps 1 and 2 in ``runs``, its ``sweep.json``
    choosing the cell of ``variant`` and ``alpha``."""
    copy_steps_1_and_2(workspace, runs)
    sweep = runs / "step2_sweep/sweep.json"
    payload = json.loads(sweep.read_text())
    payload.update(chosen_variant=variant, chosen_alpha=alpha)
    sweep.write_text(json.dumps(payload))


@pytest.mark.parametrize("command, changes", [
    ("train", {}),
    ("train", {"smoothing": {"variant": "prior", "alpha": 0.0}}),
    ("sweep", {"variants": ["vanilla", "uniform"]}),
    ("sweep", {"alpha_grid": [0.0]}),
    ("final", {}),
], ids=["train-none", "train-prior-at-0", "sweep-without-prior",
        "sweep-at-alpha-0", "final-vanilla"])
def test_a_sites_file_without_a_prior_stops_no_training_that_needs_none(
        workspace, tmp_path, capsys, command, changes):
    """A cultural-only ``sites.json`` gives no prior, but only a training
    that smooths with ``prior`` at an alpha above 0 reads it."""
    data, runs = tmp_path / "data", tmp_path / "runs"
    shutil.copytree(workspace["data"], data)
    sites = data / "sites.json"
    change, _ = UNUSABLE_SITES["cultural-only"]
    sites.write_text(json.dumps(change(json.loads(sites.read_text()))),
                     encoding="utf-8")
    if command == "final":
        choose_cell(workspace, runs, "vanilla", 0.1)
    config = write_config(workspace, tmp_path / "config.json",
                          dataset_dir=str(data), output_dir=str(runs),
                          **changes)
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 0
    assert capsys.readouterr().err == ""


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
    assert err == (f"error: {config_path}: setting {key!r} must be an "
                   f"integer, got {value}\n")
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
    """A rerun on a dataset of other sites, which changes both files, whose
    JSON or CSV write fails leaves both byte for byte and no staging
    directory."""
    other = tmp_path / "other"
    other.mkdir()
    sites = json.loads((workspace["data"] / "sites.json").read_text())
    sites.append({"site_id": 99, "name": "extra", "criteria": [1, 6, 10]})
    (other / "sites.json").write_text(json.dumps(sites), encoding="utf-8")
    out = tmp_path / "prior/prior.json"
    out.parent.mkdir()
    assert main(["prior", str(other), "--out", str(out)]) == 0
    changed = {p.name: p.read_bytes() for p in out.parent.iterdir()}
    assert main(["prior", str(workspace["data"]), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.parent.iterdir()}
    assert sorted(before) == ["prior.csv", "prior.json"]
    assert all(changed[name] != before[name] for name in before)
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
    assert main(["prior", str(other), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert {p.name: p.read_bytes() for p in out.parent.iterdir()} == before


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


@pytest.mark.parametrize("out", ["new_dir/kept.json", "kept.json"])
def test_mine_out_makes_its_missing_directories(tmp_path, monkeypatch, out):
    """As ``train --out`` and ``prior --out`` do; a relative ``--out`` is
    written under the working directory."""
    monkeypatch.setattr(cli.Predictor, "load",
                        staticmethod(lambda path, featurizers=None: None))
    monkeypatch.setattr(cli, "mine", lambda texts, a, b, **kw: [{"k": 1}])
    monkeypatch.chdir(tmp_path)
    Path("input.txt").write_text("one line\n", encoding="utf-8")
    assert main(["mine", "--models", "a.json", "b.json", "--input",
                 "input.txt", "--out", out]) == 0
    assert json.loads((tmp_path / out).read_text(encoding="utf-8")) == [
        {"k": 1}]


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
    emb = write_train_vectors(workspace, tmp_path / "vectors.txt")
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


def test_final_featurizes_with_the_sweeps_featurizer(workspace, tmp_path,
                                                     capsys):
    """``ouvclf final`` reads the featurizer ``ouvclf sweep`` wrote, so a
    BoE run needs its embeddings file no longer, and a config of another
    baseline is refused before any training."""
    emb = write_train_vectors(workspace, tmp_path / "vectors.txt")
    runs = tmp_path / "runs"
    config = write_config(workspace, tmp_path / "config.json", baseline="boe",
                          embeddings_path=str(emb), output_dir=str(runs))
    assert main(["sweep", "--config", str(config)]) == 0
    emb.unlink()
    assert main(["final", "--config", str(config)]) == 0
    grid_featurizer = runs / "step1_grid/featurizer.json"
    step3 = {p.name: p.read_bytes() for p in (runs / "step3_final").iterdir()}
    assert step3["featurizer.json"] == grid_featurizer.read_bytes()
    ngram = write_config(workspace, tmp_path / "ngram.json",
                         output_dir=str(runs))
    capsys.readouterr()
    assert main(["final", "--config", str(ngram)]) == 1
    assert capsys.readouterr().err == (
        f"error: {grid_featurizer} holds a 'boe' featurizer but the "
        "config's baseline is 'ngram'; rerun `ouvclf sweep`\n")
    assert {p.name: p.read_bytes()
            for p in (runs / "step3_final").iterdir()} == step3


@pytest.mark.parametrize("damage", ["empty", "missing"])
def test_evaluate_names_an_empty_or_missing_split_file(workspace, tmp_path,
                                                       capsys, damage):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "valid.jsonl"
    if damage == "empty":
        path.write_text("", encoding="utf-8")
    else:
        path.unlink()
    model = str(single_model(workspace))
    capsys.readouterr()
    assert main(["evaluate", "--model", model, "--split", "valid",
                 "--dataset", str(data)]) == 1
    assert capsys.readouterr() == ("", (
        f"error: split 'valid' is empty: {path} is missing or holds no "
        "samples\n"))


def test_evaluate_names_a_checkpoint_without_a_featurizer(workspace, tmp_path,
                                                          capsys):
    """A model as ``train`` returns it names no featurizer file."""
    config = ExperimentConfig.from_json(workspace["config"])
    dataset = read_dataset(workspace["data"])
    featurizer = harness.build_featurizer(config, dataset)
    model = harness.fit(harness.featurize(featurizer, dataset),
                        config.train_config(config.setting, config.smoothing,
                                            config.grid_seed),
                        load_prior(config.dataset_dir)[1])
    assert model.featurizer_ref == ""
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    capsys.readouterr()
    assert main(["evaluate", "--model", str(path), "--split", "valid",
                 "--dataset", str(workspace["data"])]) == 1
    assert capsys.readouterr().err == (
        f"error: {path} has no featurizer reference\n")


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


UNSCORED = ("chosen SmoothingConfig(variant={chosen_variant!r}, "
            "alpha={chosen_alpha!r}) is not a cell the sweep scored")
# ``SmoothingConfig``'s refusal of an alpha above ``MAX_ALPHA``
TOO_LARGE = (f"alpha must be at most {MAX_ALPHA!r} (above it a row's sum "
             "overflows), got {}")


# each id names the key, its value and the fault of the chosen cell
@pytest.mark.parametrize("key,value,message", [
    ("chosen_variant", "bogus", "unknown smoothing variant 'bogus'"),
    ("chosen_variant", "none", UNSCORED),
    ("chosen_alpha", -0.5, "alpha must be non-negative"),
    ("chosen_alpha", 0.3, UNSCORED),
    ("chosen_alpha", 1e308, TOO_LARGE.format(1e308)),
    ("chosen_alpha", 708.0, TOO_LARGE.format(708.0)),
], ids=["chosen_variant-bogus-unknown chosen_variant 'bogus'",
        "chosen_variant-none-unknown chosen_variant 'none'",
        "chosen_alpha--0.5-alpha must be non-negative",
        "chosen_alpha-0.3-a cell the sweep never scored",
        "chosen_alpha-1e+308-a cell the sweep never scored",
        "chosen_alpha-708.0-above the largest alpha"])
def test_final_names_a_bad_chosen_smoothing(workspace, tmp_path, capsys, key,
                                            value, message):
    """A chosen variant and alpha that ``SmoothingConfig`` refuses, or that
    are not those of a cell the sweep scored (its cells hold alpha 0.0 and
    0.1 of each variant), are refused before any training."""
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
    assert capsys.readouterr().err == (
        f"error: {sweep}: {message.format(**payload)}\n")
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


# the JSON files each command reads: run artifacts, or the dataset's
# sites.json; and the changes made to one of them
RUN_JSON_INPUTS = {"report": [GRID_LOG, SWEEP, FINAL],
                   "final": [GRID_LOG, SWEEP, "sites.json"]}
RUN_JSON_CHANGES = ["other-type", "huge-integer", "1e308", "truncated"]
JSON_VALUES = [None, True, 7, 0.5, "", "x", [], [1], {}, {"k": 1}]


def json_places(value, place=()):
    """The key path of ``value`` and of each value nested in it."""
    yield place
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from json_places(item, (*place, key))


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(RUN_JSON_INPUTS)),
       change=st.sampled_from(RUN_JSON_CHANGES), data=st.data())
def test_final_and_report_of_a_changed_json_input_name_it(workspace, command,
                                                          change, data):
    """``ouvclf final`` or ``report`` after one change to one JSON file it
    reads lets no exception escape. The change puts, at one drawn place of
    the file (at a drawn depth), a value of another JSON type, an integer
    too large for a float or 1e308, or cuts the file at one drawn byte. The command exits
    0, 2 (``final`` without SD data), or 1 with one ``error:`` line naming
    the changed file or the run directory. The budget: 300 examples, about
    6 s under ``-X dev``."""
    source = workspace_runs(workspace, "sweep", "final")
    rel = data.draw(st.sampled_from(RUN_JSON_INPUTS[command]))
    with tempfile.TemporaryDirectory() as root:
        runs, dataset = Path(root, "runs"), Path(root, "data")
        for name in (GRID_LOG, SWEEP, FINAL, harness.GRID_FEATURIZER):
            (runs / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source / name, runs / name)
        shutil.copytree(workspace["data"], dataset)
        path = dataset / rel if rel == "sites.json" else runs / rel
        text = path.read_bytes()
        if change == "truncated":
            path.write_bytes(text[:data.draw(st.integers(0, len(text) - 1))])
        else:
            box = [json.loads(text)]  # the value at place () is box[0]
            # a depth first, so the few top-level keys are changed as often
            # as the many nested values of histories and reports
            places = list(json_places(box[0]))
            depth = data.draw(st.integers(0, max(map(len, places))))
            holder, key = box, 0
            for step in data.draw(st.sampled_from(
                    [place for place in places if len(place) == depth])):
                holder, key = holder[key], step
            new = {"huge-integer": 10 ** 400, "1e308": 1e308}.get(change)
            if change == "other-type":
                new = data.draw(st.sampled_from([
                    v for v in JSON_VALUES
                    if type(v) is not type(holder[key])]))
            holder[key] = new
            path.write_text(json.dumps(box[0]), encoding="utf-8")
        config = write_config(workspace, Path(root, "config.json"),
                              dataset_dir=str(dataset), output_dir=str(runs))
        args = (["final", "--config", str(config)] if command == "final"
                else ["report", str(runs)])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(args)
    err = err.getvalue()
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(path) in err or str(runs) in err, err
    else:
        assert code == 0 or (code == 2 and command == "final"), err


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
    assert capsys.readouterr().err == (
        f"error: {config_path}: k must be in 1..11, got 0\n")
    assert calls == []
    assert not (tmp_path / "runs").exists()
    with pytest.raises(ValueError, match="k must be in 1..11, got 0"):
        ExperimentConfig(k=0)


def test_final_without_the_sweeps_featurizer_says_to_rerun_sweep(
        workspace, tmp_path, capsys):
    """A run directory whose ``sweep`` saved no featurizer (one an earlier
    version wrote) is refused before any training, in ``read_run``'s one
    line naming the run directory and the missing file."""
    runs = tmp_path / "runs"
    copy_steps_1_and_2(workspace, runs)
    missing = runs / "step1_grid/featurizer.json"
    missing.unlink()
    config = write_config(workspace, tmp_path / "config.json",
                          output_dir=str(runs))
    capsys.readouterr()
    assert main(["final", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: {runs}: missing artifacts: step1_grid/featurizer.json\n")
    assert not (runs / "step3_final").exists()


@pytest.mark.parametrize("damage,detail", [
    (lambda path: edit_head(path, lambda head: head.update(
        kind=head.pop("type"))),
     "not a featurizer file of this version (missing key 'type')"),
    (lambda path: path.write_bytes(path.read_bytes().split(b"\n")[0]),
     "no line break ends the head, as in a file of an earlier version"),
], ids=["no-type-key", "earlier-form"])
def test_final_with_an_unreadable_sweep_featurizer_says_to_rerun_sweep(
        workspace, tmp_path, capsys, monkeypatch, damage, detail):
    """Only ``ouvclf sweep`` writes ``step1_grid/featurizer.json``, so a
    file there that cannot be read says to rebuild it with that command,
    not with ``ouvclf final``, which only reads it; nothing is trained."""
    runs = tmp_path / "runs"
    copy_steps_1_and_2(workspace, runs)
    path = runs / "step1_grid/featurizer.json"
    damage(path)
    calls = []
    monkeypatch.setattr(harness, "train",
                        lambda *args, **kwargs: calls.append(args))
    config = write_config(workspace, tmp_path / "config.json",
                          output_dir=str(runs))
    capsys.readouterr()
    assert main(["final", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: {detail}; rebuild it with `ouvclf sweep`\n")
    assert calls == []
    assert not (runs / "step3_final").exists()


def single_model(workspace):
    """The ``ouvclf train`` checkpoint of the workspace config."""
    model_path = workspace["root"] / "single/model.json"
    if not model_path.exists():
        assert main(["train", "--config", str(workspace["config"]),
                     "--out", str(model_path)]) == 0
    return model_path


def write_train_vectors(workspace, path):
    """A 3-d embedding file at ``path`` with a line per train token."""
    lines = (workspace["data"] / "train.jsonl").read_text(encoding="utf-8")
    tokens = sorted({token for line in lines.splitlines()
                     for token in json.loads(line)["tokens"]})
    path.write_text("".join(f"{token} {i % 3} 1 {i % 5}\n"
                            for i, token in enumerate(tokens)),
                    encoding="utf-8")
    return path


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
    """Copy the workspace sweep's step 1 and 2 artifacts and its featurizer
    into ``runs``, running the sweep first if no earlier test has."""
    workspace_runs(workspace, "sweep")
    for rel in ("step1_grid/log.json", "step1_grid/featurizer.json",
                "step2_sweep/sweep.json"):
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
    ("grid", {"hidden": [16], "batch_size": []},
     "grid.batch_size must be non-empty"),
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
    ("alpha_grid", [0.1, 1000], "alpha_grid: " + TOO_LARGE.format(1000)),
    ("smoothing", {"variant": "vanilla", "alpha": 708.0},
     "smoothing: " + TOO_LARGE.format(708.0)),
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
        "nan-alpha", "huge-alpha", "huge-smoothing-alpha", "no-variants",
        "no-alphas", "repeated-variant", "repeated-alpha", "unknown-baseline",
        "boe-without-embeddings", "zero-min-df"])
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
    assert err.startswith(f"error: {config_path}: ") and message in err
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
    # other models, so a stray write would show; ``final`` featurizes with
    # the sweep's featurizer, so ``min_df`` changes nothing
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
    assert step3(runs)["featurizer.json"] == before["featurizer.json"]
    assert all(step3(runs)[name] != before[name]
               for name in ("model_ls.json", "model_no_ls.json"))


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
    """A grid search with another grid on the run directory writes a new
    ``log.json`` beside the old ``sweep.json``; ``final`` and ``report``
    then name both files and write nothing."""
    runs = tmp_path / "runs"
    copy_steps_1_and_2(workspace, runs)
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(runs))
    assert main(["final", "--config", str(config_path)]) == 0
    assert main(["report", str(runs)]) == 0
    sweep_bytes = (runs / "step2_sweep/sweep.json").read_bytes()
    other = ExperimentConfig.from_json(write_config(
        workspace, tmp_path / "other.json", output_dir=str(runs),
        grid={"hidden": [8], "batch_size": [64]}))
    dataset = read_dataset(other.dataset_dir)
    harness.run_grid_search(other, dataset,
                            harness.build_featurizer(other, dataset))
    assert (runs / "step2_sweep/sweep.json").read_bytes() == sweep_bytes
    before = {p: p.read_bytes() for p in sorted(runs.rglob("*"))
              if p.is_file()}
    calls = []
    monkeypatch.setattr(harness, "train",
                        lambda *args, **kwargs: calls.append(args))
    grid_path, sweep_path = (runs / "step1_grid/log.json",
                             runs / "step2_sweep/sweep.json")
    capsys.readouterr()
    for argv in (["final", "--config", str(config_path)],
                 ["report", str(runs)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sweep_path} holds setting ")
        assert f"but {grid_path} holds best setting " in err
    assert calls == []
    assert {p: p.read_bytes() for p in sorted(runs.rglob("*"))
            if p.is_file()} == before


def test_a_failed_sweep_rerun_keeps_the_featurizer_of_its_sweep(
        workspace, tmp_path, capsys, monkeypatch):
    """A sweep rerun at another ``min_df``, whose grid keeps its best
    setting and whose every smoothed training diverges, leaves the
    featurizer the kept ``sweep.json`` was swept on, and ``final`` trains
    on that one."""
    runs = tmp_path / "runs"
    copy_steps_1_and_2(workspace, runs)
    before = {rel: (runs / rel).read_bytes()
              for rel in ("step1_grid/featurizer.json",
                          "step2_sweep/sweep.json")}
    real_train = harness.train

    def diverge_when_smoothed(*args, **kwargs):
        if args[5].smoothing.variant != "none":
            raise TrainingDiverged("diverged")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", diverge_when_smoothed)
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(runs), min_df=2)
    config = ExperimentConfig.from_json(config_path)
    rebuilt = tmp_path / "min_df_2.json"
    harness.build_featurizer(config, read_dataset(config.dataset_dir)).save(
        rebuilt)
    assert rebuilt.read_bytes() != before["step1_grid/featurizer.json"]
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        "error: no sweep cell completed at least two seeds\n")
    assert {rel: (runs / rel).read_bytes() for rel in before} == before
    monkeypatch.setattr(harness, "train", real_train)
    assert main(["final", "--config", str(config_path)]) == 0
    assert (runs / "step3_final/featurizer.json").read_bytes() == \
        before["step1_grid/featurizer.json"]


def file_bytes(root):
    """Every file under ``root``: its path relative to ``root``, and its
    bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def fail_when(name, real, recorded):
    """``real``, recording the path, its second argument, of each call;
    a call whose path is named ``name`` raises ``OSError`` instead."""
    def write(obj, path):
        recorded.append(path)
        if path.name == name:
            raise OSError("disk full")
        return real(obj, path)
    return write


def test_a_sweep_rerun_whose_featurizer_save_fails_keeps_all_three_files(
        workspace, tmp_path, capsys, monkeypatch):
    """The sweep's log, featurizer and ``sweep.json`` are staged and move
    together, so a rerun (another ``min_df``, grid seed and alpha grid,
    which changes all three) whose featurizer save fails leaves the
    earlier three byte for byte and no staging directory, and ``final``
    runs on them."""
    runs, fresh = tmp_path / "runs", tmp_path / "fresh"
    copy_steps_1_and_2(workspace, runs)
    before = file_bytes(runs)
    assert list(before) == ["step1_grid/featurizer.json",
                            "step1_grid/log.json", "step2_sweep/sweep.json"]
    changes = {"min_df": 2, "grid_seed": 7, "alpha_grid": [0.0, 0.2]}
    assert main(["sweep", "--config", str(write_config(
        workspace, tmp_path / "fresh.json", output_dir=str(fresh),
        **changes))]) == 0
    assert all(file_bytes(fresh)[rel] != before[rel] for rel in before)
    saved = []
    monkeypatch.setattr(harness.Featurizer, "save", fail_when(
        "featurizer.json", harness.Featurizer.save, saved))
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(runs), **changes)
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert file_bytes(runs) == before
    staging = saved[0].parents[1]
    assert staging.name.startswith(".runs.") and not staging.exists()
    assert not list(tmp_path.rglob(".runs.*"))
    monkeypatch.undo()
    assert main(["final", "--config", str(config_path)]) == 0


def test_a_failed_ingest_rerun_keeps_every_dataset_file(
        workspace, tmp_path, capsys, monkeypatch):
    """A rerun at another seed, which moves sentences between the splits,
    whose ``valid.jsonl`` write fails leaves all five files byte for byte
    (the new train split beside the old valid and test splits would leak
    them into training) and no staging directory."""
    data, fresh = tmp_path / "data", tmp_path / "fresh"
    assert main(["ingest", str(workspace["csv"]), "--out", str(data)]) == 0
    before = file_bytes(data)
    assert list(before) == ["sd.jsonl", "sites.json", "test.jsonl",
                            "train.jsonl", "valid.jsonl"]
    assert main(["ingest", str(workspace["csv"]), "--out", str(fresh),
                 "--seed", "7"]) == 0
    assert all(file_bytes(fresh)[name] != before[name]
               for name in ("train.jsonl", "valid.jsonl", "test.jsonl"))
    written = []
    monkeypatch.setattr(corpus, "write_samples", fail_when(
        "valid.jsonl", corpus.write_samples, written))
    capsys.readouterr()
    assert main(["ingest", str(workspace["csv"]), "--out", str(data),
                 "--seed", "7"]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert [path.name for path in written] == ["train.jsonl", "valid.jsonl"]
    assert file_bytes(data) == before
    staging = written[0].parent
    assert staging.name.startswith(".data.") and not staging.exists()
    assert not list(tmp_path.rglob(".data.*"))


def test_a_failed_train_rerun_keeps_the_model_and_its_featurizer(
        workspace, tmp_path, capsys, monkeypatch):
    """A rerun at another ``min_df`` whose checkpoint write fails leaves
    the earlier checkpoint and featurizer byte for byte, not a new
    featurizer beside the old checkpoint, and no staging directory."""
    out = tmp_path / "models/model.json"

    def train(**changes):
        return main(["train", "--config", str(write_config(
            workspace, tmp_path / "config.json", **changes)),
            "--out", str(out)])

    assert train() == 0
    before = file_bytes(out.parent)
    assert list(before) == ["model.json", "model_featurizer.json"]
    saved = []
    monkeypatch.setattr(cli, "save_checkpoint", fail_when(
        "model.json", cli.save_checkpoint, saved))
    capsys.readouterr()
    assert train(min_df=2) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert file_bytes(out.parent) == before
    staging = saved[0].parent
    assert staging.name.startswith(".models.") and not staging.exists()
    assert not list(tmp_path.rglob(".models.*"))
    monkeypatch.undo()
    assert train(min_df=2) == 0
    assert all(file_bytes(out.parent)[name] != before[name]
               for name in before)


def test_a_sweep_whose_every_grid_training_diverges_writes_no_grid(
        workspace, tmp_path, capsys, monkeypatch):
    def diverge(*args, **kwargs):
        raise TrainingDiverged("diverged")

    monkeypatch.setattr(harness, "train", diverge)
    runs = tmp_path / "runs"
    config_path = write_config(workspace, tmp_path / "config.json",
                               output_dir=str(runs))
    capsys.readouterr()
    assert main(["sweep", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        "error: every grid setting failed to train\n")
    assert not (runs / "step1_grid").exists()


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


def copy_run(source, runs):
    """Copy the three step artifacts of the run at ``source`` into
    ``runs``."""
    for rel, _ in harness.STEP_ARTIFACTS.values():
        (runs / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(source / rel, runs / rel)


@pytest.mark.parametrize("failing", ["summary.json", "summary.txt",
                                     "curves.csv"])
def test_a_failed_report_rerun_keeps_all_three_files(
        workspace, tmp_path, capsys, monkeypatch, failing):
    """``report`` over another run (another grid and grid seed, which
    changes all three files) whose write of ``failing`` fails leaves the
    earlier summary, text and curves byte for byte and no staging
    directory."""
    other = workspace["root"] / "other_runs"
    if not (other / harness.STEP_ARTIFACTS["final"][0]).exists():
        config = write_config(workspace, workspace["root"] / "other.json",
                              output_dir=str(other), grid_seed=7,
                              grid={"hidden": [8], "batch_size": [16]})
        for command in ("sweep", "final"):
            assert main([command, "--config", str(config)]) == 0
    runs = tmp_path / "runs"
    copy_run(workspace_runs(workspace, "sweep", "final"), runs)
    assert main(["report", str(runs)]) == 0
    reported = {name: (runs / name).read_bytes()
                for name in ("summary.json", "summary.txt", "curves.csv")}
    copy_run(other, runs)
    before = file_bytes(runs)
    opened, real_open = [], open

    def open_failing(file, mode="r", *args, **kwargs):
        if "w" in mode:
            opened.append(file)
            if os.path.basename(file).startswith(failing):
                raise OSError("disk full")
        return real_open(file, mode, *args, **kwargs)

    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr("builtins.open", open_failing)
        assert main(["report", str(runs)]) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert file_bytes(runs) == before
    staging = opened[0].parent
    assert staging.name.startswith(".runs.") and not staging.exists()
    assert main(["report", str(runs)]) == 0
    assert all((runs / name).read_bytes() != reported[name]
               for name in reported)


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


def test_report_refuses_a_final_trained_at_another_chosen_cell(
        workspace, tmp_path, capsys):
    """A sweep rerun with another ``alpha_grid`` keeps the best setting but
    chooses another cell, and leaves the old ``final.json``, whose ``ls``
    row was trained at the old one; ``report`` names both files and says
    to rerun ``ouvclf final``. A ``final.json`` without that row's
    ``smoothing`` is named alone."""
    runs = tmp_path / "runs"
    copy_steps_1_and_2(workspace, runs)
    first = write_config(workspace, tmp_path / "first.json",
                         output_dir=str(runs))
    assert main(["final", "--config", str(first)]) == 0
    final_path, sweep_path = runs / FINAL, runs / SWEEP
    trained = json.loads(final_path.read_text())["rows"]["ls"]["smoothing"]
    second = write_config(workspace, tmp_path / "second.json",
                          output_dir=str(runs), variants=["uniform"],
                          alpha_grid=[0.5])
    assert main(["sweep", "--config", str(second)]) == 0
    capsys.readouterr()
    assert main(["report", str(runs)]) == 1
    assert capsys.readouterr().err == (
        f"error: {final_path} holds an ls row trained at {trained} but "
        f"{sweep_path} chose SmoothingConfig(variant='uniform', alpha=0.5):"
        " they come from different runs; rerun `ouvclf final`\n")
    assert not (runs / "summary.json").exists()
    assert main(["final", "--config", str(second)]) == 0
    assert main(["report", str(runs)]) == 0
    payload = json.loads(final_path.read_text())
    for holder, key in ((payload["rows"]["ls"], "smoothing"),
                        (payload["rows"], "ls")):
        del holder[key]
        final_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(runs)]) == 1
        assert capsys.readouterr().err == (
            f"error: {final_path}: a missing key or a value of the wrong "
            f"type (missing key '{key}')\n")


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
                output_dir=str(tmp_path / "runs"),
                smoothing={"variant": "prior", "alpha": 0.1}))]}
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
     "sentence_label 'x' is not an integer 1-10"),
    ("train", "site_id", "x", "site_id 'x' is not an integer"),
    ("valid", "site_id", [1], "site_id [1] is not an integer"),
    ("test", "site_id", True, "site_id True is not an integer"),
    ("sd", "site_id", 1.5, "site_id 1.5 is not an integer"),
    ("train", "site_id", None, "site_id None is not an integer"),
], ids=["int-tokens", "zero-criteria", "str-label", "str-site-id",
        "list-site-id", "bool-site-id", "float-site-id", "null-site-id"])
def test_a_bad_dataset_value_is_named_before_training(
        workspace, tmp_path, capsys, monkeypatch, split, key, value, detail):
    """Each of these would end ``ouvclf sweep`` otherwise: a ``TypeError``
    traceback, or criterion 0 read as the Others column of the parental
    label; a ``site_id`` that is not an integer would read silently."""
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
    assert capsys.readouterr().err == (
        f"error: {path}: not a dataset file (line 2: {detail})\n")
    assert calls == []
    assert not (tmp_path / "runs").exists()
