"""Package-wide structure checks."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ouv_classifier
import ouv_classifier.cli
from ouv_classifier import json_fields
from ouv_classifier.harness import ExperimentConfig
from ouv_classifier.labels import SmoothingConfig
from ouv_classifier.model import MlpParams, TrainConfig
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
