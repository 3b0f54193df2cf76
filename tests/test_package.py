"""Package-wide structure checks."""

import ast
import builtins
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ouv_classifier
import ouv_classifier.cli
from ouv_classifier import json_fields
from ouv_classifier.cli import main
from ouv_classifier.corpus import (parse_syndication, read_dataset,
                                   read_sites, write_samples)
from ouv_classifier.features import EmbeddingTable, load_embeddings
from ouv_classifier.harness import ExperimentConfig, Featurizer, report
from ouv_classifier.labels import SmoothingConfig
from ouv_classifier.model import MlpParams, TrainConfig, load_checkpoint
from conftest import make_sample
from test_cli import write_corpus_csv

PACKAGE_DIR = Path(ouv_classifier.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"
BENCH_DIR = PYPROJECT.parent / "bench"


def private_imports(source: str) -> list[str]:
    """Leading-underscore names a module imports from its own package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0]
                == "ouv_classifier"):
            found += [f"{'.' * node.level}{node.module or ''}:{alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_detector_sees_relative_and_absolute_imports():
    source = ("from .harness import run_final, _train_once\n"
              "from ouv_classifier.model import _softmax_rows\n"
              "from os import _exit\n")
    assert private_imports(source) == [".harness:_train_once",
                                       "ouv_classifier.model:_softmax_rows"]


def test_no_private_imports_across_modules():
    offenders = {path.name: private_imports(path.read_text(encoding="utf-8"))
                 for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def unused_imports(source: str) -> list[str]:
    """Names a module's imports bind but its code never reads, in import
    order (a ``__future__`` import binds no name)."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_detector_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, json\n"
              "import numpy as np\n"
              "from .model import train, save_checkpoint as save\n"
              "from . import atomic_open\n"
              "def f(x: np.ndarray) -> None:\n"
              "    os.path.join(train(x))\n")
    assert unused_imports(source) == ["json", "save", "atomic_open"]


def test_no_unused_imports():
    offenders = {path.name: unused_imports(path.read_text(encoding="utf-8"))
                 for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def exception_classes(source: str) -> list[str]:
    """Classes a module defines that derive from an exception: a built-in
    one, any base named ``...Error`` or ``...Exception``, or an exception
    class the module defines."""
    known = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    classes = [node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    found = []
    while True:
        new = [node.name for node in classes if node.name not in found
               and any(base in known or base.endswith(("Error", "Exception"))
                       for base in (ast.unparse(b).rsplit(".", 1)[-1]
                                    for b in node.bases))]
        if not new:
            return found
        found += new
        known |= set(new)


def test_detector_sees_exception_classes():
    source = ("import json\n"
              "class Plain:\n    pass\n"
              "class Child(Parent):\n    pass\n"
              "class Parent(KeyboardInterrupt):\n    pass\n"
              "class Bad(json.JSONDecodeError):\n    pass\n"
              "class Mixed(Plain, ValueError):\n    pass\n"
              "def f():\n    class Inner(Exception):\n        pass\n")
    assert sorted(exception_classes(source)) == ["Bad", "Child", "Inner",
                                                 "Mixed", "Parent"]


def test_no_exception_class_but_training_diverged():
    """Bad input is a ``ValueError`` naming the file, an unreadable file an
    ``OSError``, and a step with no usable training a ``RuntimeError``, of
    which ``TrainingDiverged`` is the one subclass; ``ouvclf`` catches
    exactly these three."""
    found = {path.name: exception_classes(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} == {
        "model.py": ["TrainingDiverged"]}


def names_read(source: str) -> set[str]:
    """Names a module's code reads: bare names, attribute names and the
    names it imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
    return found


def unreferenced_public_names(sources: dict[str, str],
                              users: list[str]) -> list[str]:
    """``module.name`` of each public top-level function or class in
    ``sources`` (module name -> source) that no code in ``sources`` or in
    ``users`` reads; its own definition does not count."""
    read = set().union(*map(names_read, [*sources.values(), *users]))
    return [f"{module}.{node.name}"
            for module, source in sources.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_detector_sees_unreferenced_public_names():
    sources = {"labels": ("def used():\n    return 1\n"
                          "def unused():\n    return used()\n"
                          "class Spare:\n    pass\n"
                          "def _private():\n    pass\n"
                          "def for_bench():\n    pass\n"),
               "cli": ("from .labels import used\n"
                       "def main():\n    return used\n")}
    bench = ["from ouv_classifier import labels, cli\n"
             "labels.for_bench()\ncli.main()\n"]
    assert unreferenced_public_names(sources, bench) == ["labels.unused",
                                                         "labels.Spare"]
    assert unreferenced_public_names(sources, []) == [
        "labels.unused", "labels.Spare", "labels.for_bench", "cli.main"]


def test_no_unreferenced_public_names():
    """Every public function and class in the package is used by the
    package or the benchmark (``bench/``), not only by tests."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    bench = [path.read_text(encoding="utf-8")
             for path in sorted(BENCH_DIR.glob("*.py"))]
    assert bench
    assert unreferenced_public_names(sources, bench) == []


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports that are neither the
    standard library nor this package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"ouv_classifier"}


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies`` in ``pyproject.toml``,
    read with a regex because ``tomllib`` is not in Python 3.10."""
    block = re.search(r"^dependencies = \[(.*?)\]", PYPROJECT.read_text(),
                      re.M | re.S).group(1)
    return {name.lower().replace("-", "_")
            for name in re.findall(r'"([A-Za-z0-9_.-]+)', block)}


def test_detector_sees_third_party_imports():
    source = ("import os.path, orjson\n"
              "import numpy as np\n"
              "from scipy import sparse\n"
              "from . import atomic_open\n"
              "from ouv_classifier.model import forward\n"
              "from collections import Counter\n")
    assert third_party_imports(source) == {"orjson", "numpy", "scipy"}


def test_no_undeclared_third_party_imports():
    declared = declared_dependencies()
    offenders = {path.name: sorted(third_party_imports(
                     path.read_text(encoding="utf-8")) - declared)
                 for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_console_script_resolves_to_cli_main():
    """``[project.scripts]`` in ``pyproject.toml``, read with a regex
    that stays inside the section, points ``ouvclf`` at ``cli.main``."""
    target = re.search(r'^\[project\.scripts\]\n(?:[^[\n].*\n)*?'
                       r'ouvclf = "([\w.]+):(\w+)"$',
                       PYPROJECT.read_text(), re.M)
    assert target.groups() == ("ouv_classifier.cli", "main")
    module = importlib.import_module(target.group(1))
    assert getattr(module, target.group(2)) is ouv_classifier.cli.main


def test_cli_module_runs_help():
    """The console script's module runs; CI runs from the source tree and
    never installs the package, so nothing else starts it."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "ouv_classifier.cli", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: ouvclf")


def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise():
    """``import ouv_classifier`` loads no numpy, so ``cli`` can set the BLAS
    thread variables before numpy loads; a value already set is kept."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                         os.environ.get("PYTHONPATH")]))
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    code = ("import os, sys, ouv_classifier\n"
            "print('numpy' in sys.modules)\n"
            "import ouv_classifier.cli\n"
            f"print(*map(os.environ.get, {names!r}))\n")
    env = {key: value for key, value in os.environ.items()
           if key not in names}
    outputs = []
    for preset in ({}, {"OPENBLAS_NUM_THREADS": "4"}):
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60, env={**env, **preset, "PYTHONPATH": path})
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs == ["False\n1 1 1\n", "False\n4 1 1\n"]


def test_ingest_output_does_not_depend_on_string_hashing(tmp_path):
    """``preprocess_many`` builds regex classes from sets of characters,
    whose order follows the process's string-hash seed; the files
    ``ouvclf ingest`` writes must not."""
    csv_path = tmp_path / "syndication.csv"
    write_corpus_csv(csv_path)
    just = " ".join(f"Criterion ({n}): Ürümqi’s façade ❶.5 and ①,2 of the "
                    f"ΟΔΟΣ Château, built {n}1,850 in the 16th century by "
                    "naïve craftsmen." for n in ("i", "iv"))
    with open(csv_path, "a", encoding="utf-8") as fh:
        fh.write(f'13,"Site 13","(i)(iv)","{just}","Déjà vu ❶.❷ site."\n')
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent),
                                         os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"data{seed}"
        result = subprocess.run(
            [sys.executable, "-m", "ouv_classifier.cli", "ingest",
             str(csv_path), "--out", str(out)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
        assert result.returncode == 0, result.stderr
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outputs[0]) == ["sd.jsonl", "sites.json", "test.jsonl",
                                  "train.jsonl", "valid.jsonl"]
    assert outputs[0] == outputs[1]
    assert "❶.5".encode() in b"".join(outputs[0].values())


def test_json_fields_checks_types_and_builds_nested_dataclasses():
    fields = json_fields("f.json", "config", {
        "hidden": 8, "learning_rate": 1,
        "smoothing": {"variant": "prior", "alpha": 1}}, TrainConfig)
    assert fields == {"hidden": 8, "learning_rate": 1,
                      "smoothing": SmoothingConfig("prior", 1)}
    # a field with no default gets the key check only
    assert json_fields("f.json", "params", {"W1": "any"}, MlpParams) == {
        "W1": "any"}


@pytest.mark.parametrize("value, match", [
    (5, "^f.json: config is int, not a JSON object$"),
    ({"hidden": 8, "hiden": 8}, "^f.json: unknown key\\(s\\) 'config.hiden'$"),
    ({"dropout": True}, "'config.dropout' is bool, expected float or int"),
    ({"smoothing": {"alpha": -1}},
     "^f.json: config.smoothing: alpha must be non-negative$"),
])
def test_json_fields_names_the_file_and_key(value, match):
    with pytest.raises(ValueError, match=match):
        json_fields("f.json", "config", value, TrainConfig)


def test_every_config_field_is_named_in_the_readme():
    text = README.read_text(encoding="utf-8")
    undocumented = [f.name for f in dataclasses.fields(ExperimentConfig)
                    if f"`{f.name}`" not in text]
    assert undocumented == []


def test_every_dataset_line_key_is_named_in_the_readme(tmp_path):
    path = tmp_path / "train.jsonl"
    write_samples([make_sample(["wall"], 3)], path)
    text = README.read_text(encoding="utf-8")
    undocumented = [key for key in json.loads(path.read_text("utf-8"))
                    if f"`{key}`" not in text]
    assert undocumented == []


# a JSON value of each type, as ``json`` reads it (NaN and the infinities
# included, as ``json.dump`` writes them)
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))
JSON_OF_TYPE = {
    "null": st.none(), "bool": st.booleans(),
    "number": st.integers() | st.floats(), "string": st.text(max_size=4),
    "array": st.lists(SCALARS, max_size=3),
    "object": st.dictionaries(st.text(max_size=4), SCALARS, max_size=2)}
# the JSON type of each Python type ``json`` reads
JSON_TYPE = {type(None): "null", bool: "bool", int: "number", float: "number",
             str: "string", list: "array", dict: "object"}


def json_paths(value, path=()):
    """The key path of ``value`` and of every value inside it."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from json_paths(item, path + (key,))


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """A tiny run's files, each reader's input: a dataset, its config, a
    run directory after ``ouvclf final`` and a BoE featurizer file."""
    root = tmp_path_factory.mktemp("readers")
    write_corpus_csv(root / "syndication.csv")
    assert main(["ingest", str(root / "syndication.csv"),
                 "--out", str(root / "data")]) == 0
    (root / "config.json").write_text(json.dumps({
        "grid": {"hidden": [4], "batch_size": [64]}, "seeds": [0, 1],
        "alpha_grid": [0.0], "variants": ["vanilla"], "max_epochs": 1,
        "min_df": 1, "dataset_dir": str(root / "data"),
        "output_dir": str(root / "runs"),
        "smoothing": {"variant": "uniform", "alpha": 0.1}}), encoding="utf-8")
    for step in ("sweep", "final"):
        assert main([step, "--config", str(root / "config.json")]) == 0
    Featurizer("boe", table=EmbeddingTable(
        {"wall": 0, "<unk>": 1}, np.array([[0.5, -1.0], [0.25, 0.1]]))).save(
            root / "boe.json")
    return root


def read_dataset_dir(path):
    return read_dataset(path.parent)


def report_run(path):
    return report(path.parents[1])


# each reader: the file it reads, relative to ``run_files``, and the call
# that reads it; the dataset's readers mutate the file's first line
READERS = {
    "config": ("config.json", ExperimentConfig.from_json),
    "train-line": ("data/train.jsonl", read_dataset_dir),
    "sd-line": ("data/sd.jsonl", read_dataset_dir),
    "sites": ("data/sites.json", read_sites),
    "ngram-featurizer": ("runs/step3_final/featurizer.json", Featurizer.load),
    "boe-featurizer": ("boe.json", Featurizer.load),
    "checkpoint": ("runs/step3_final/model_ls.json", load_checkpoint),
    "grid-artifact": ("runs/step1_grid/log.json", report_run),
    "sweep-artifact": ("runs/step2_sweep/sweep.json", report_run),
    "final-artifact": ("runs/step3_final/final.json", report_run),
}
# the readers of a JSON head line then a body of array bytes, as
# ``write_arrays`` writes them
ARRAY_FILES = {"ngram-featurizer", "boe-featurizer", "checkpoint"}


@pytest.mark.parametrize("reader", READERS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_reader_returns_or_names_the_mutated_file(run_files, reader, data):
    """One JSON value of a file, at any key path, takes a value of another
    JSON type, or one key is deleted; or the body of an array file loses
    bytes at its end or gains some. The file's reader returns, or raises
    a ``ValueError`` naming the file, never another error. The budget:
    10 readers x 50 examples, about 4 s under ``-X dev`` with the fixture's
    tiny run."""
    rel, read = READERS[reader]
    path = run_files / rel
    original = path.read_bytes()
    # the JSON mutated (a JSON lines file's first line, an array file's
    # head line, or the whole file) and the bytes after it
    if rel.endswith(".jsonl") or reader in ARRAY_FILES:
        first, body = original.split(b"\n", 1)
        after = b"\n" + body
    else:
        first, after = original, b""
    doc = {"file": json.loads(first)}
    if reader in ARRAY_FILES and data.draw(st.booleans()):
        cut = data.draw(st.integers(-len(after), 16).filter(bool))
        after = after[:cut] if cut < 0 else after + bytes(range(cut))
    else:
        # the file's value under a wrapper, so that the root has a parent
        *parents, key = ("file", *data.draw(st.sampled_from(list(
            json_paths(doc["file"])))))
        inner = doc
        for part in parents:
            inner = inner[part]
        if parents and isinstance(key, str) and data.draw(st.booleans()):
            del inner[key]
        else:
            kinds = sorted(set(JSON_OF_TYPE) - {JSON_TYPE[type(inner[key])]})
            inner[key] = data.draw(st.sampled_from(kinds).flatmap(
                JSON_OF_TYPE.get))
    path.write_bytes(json.dumps(doc["file"]).encode() + after)
    try:
        read(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    finally:
        path.write_bytes(original)


def read_wall_vector(path):
    return load_embeddings(path, {"wall"})


@pytest.mark.parametrize("reader", [*READERS, "csv", "embeddings"])
def test_a_file_that_is_not_utf8_is_named_once(run_files, tmp_path, reader):
    """A Latin-1 byte in any input file, JSON, JSON lines, CSV or embedding
    text, is a ``ValueError`` that names the file once."""
    if reader == "csv":
        path, read = tmp_path / "syndication.csv", parse_syndication
        write_corpus_csv(path)
    elif reader == "embeddings":
        path, read = tmp_path / "vectors.txt", read_wall_vector
        path.write_text("wall 0.5 -1.0\n", encoding="utf-8")
    else:
        path, read = run_files / READERS[reader][0], READERS[reader][1]
    original = path.read_bytes()
    path.write_bytes(original[:10] + "é".encode("latin-1") + original[10:])
    try:
        with pytest.raises(ValueError) as excinfo:
            read(path)
    finally:
        path.write_bytes(original)
    assert str(excinfo.value).startswith(
        f"{path}: 'utf-8' codec can't decode byte 0xe9 in position ")
    assert str(excinfo.value).count(str(path)) == 1
