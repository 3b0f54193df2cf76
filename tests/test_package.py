"""Package-wide structure checks."""

import ast
import builtins
import dataclasses
import gc
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
from ouv_classifier import atomic_open, commit_files, gc_paused, json_fields
from ouv_classifier.cli import main
from ouv_classifier.corpus import (build_dataset, build_sd_set,
                                   parse_syndication, read_dataset,
                                   read_sites, write_dataset, write_samples)
from ouv_classifier.features import EmbeddingTable, load_embeddings
from ouv_classifier.harness import ExperimentConfig, Featurizer, mine, report
from ouv_classifier.labels import SmoothingConfig
from ouv_classifier.model import MlpParams, TrainConfig, load_checkpoint
from conftest import StubPredictor, make_sample
from test_cli import mine_cli, write_corpus_csv

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
    exactly these three and ``MemoryError``."""
    found = {path.name: exception_classes(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: classes for name, classes in found.items() if classes} == {
        "model.py": ["TrainingDiverged"]}


def caught_names(handler: ast.ExceptHandler) -> set[str]:
    """The class names an ``except`` clause catches (none for a bare one)."""
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type] if handler.type else [])
    return {ast.unparse(t).rsplit(".", 1)[-1] for t in types}


def blanket_handlers(source: str) -> list[str]:
    """The ``except`` clauses of a module that would swallow a programmer
    error, by line: a bare one, one that names ``Exception``, and one that
    names ``BaseException`` whose body does not end in a bare ``raise``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            names = caught_names(node)
            last = node.body[-1]
            reraises = isinstance(last, ast.Raise) and last.exc is None
            if (node.type is None or "Exception" in names
                    or "BaseException" in names and not reraises):
                found.append(f"line {node.lineno}")
    return found


def test_detector_sees_blanket_handlers():
    source = ("try:\n    pass\nexcept:\n    pass\n"
              "try:\n    pass\nexcept (ValueError, builtins.Exception):\n"
              "    pass\n"
              "try:\n    pass\nexcept BaseException:\n    clean()\n"
              "    raise\n"
              "try:\n    pass\nexcept BaseException as exc:\n"
              "    raise ValueError() from exc\n"
              "try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n")
    assert blanket_handlers(source) == ["line 3", "line 7", "line 16"]


def test_no_blanket_exception_handler():
    """A programmer error propagates as itself: no module catches every
    error, and a ``BaseException`` handler, which cleans up after any
    error, re-raises what it caught."""
    found = {path.name: blanket_handlers(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the errors ``input_error`` rewraps as a ``ValueError`` naming the input
REWRAPPED = {"KeyError", "OverflowError", "TypeError", "ValueError"}


def hand_written_rewraps(source: str) -> list[str]:
    """The ``except`` clauses of a module, by line, that catch an error of
    ``REWRAPPED`` and raise a ``ValueError`` whose f-string formats the
    caught error itself (``{exc}``, not ``{exc.msg}``): the rewrap that
    ``input_error`` makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ExceptHandler) and node.name
                and caught_names(node) & REWRAPPED):
            continue
        raised = [part.value for inner in ast.walk(node)
                  if isinstance(inner, ast.Raise)
                  and isinstance(inner.exc, ast.Call)
                  and ast.unparse(inner.exc.func) == "ValueError"
                  for part in ast.walk(inner.exc)
                  if isinstance(part, ast.FormattedValue)]
        if any(isinstance(value, ast.Name) and value.id == node.name
               for value in raised):
            found.append(f"line {node.lineno}")
    return found


def test_detector_sees_hand_written_rewraps():
    source = ("try:\n    pass\nexcept ValueError as exc:\n"
              "    raise ValueError(f'{key}: {exc}') from exc\n"
              "try:\n    pass\nexcept (KeyError, TypeError) as err:\n"
              "    if err:\n        raise ValueError('a: ' + f'{err}')\n"
              "try:\n    pass\nexcept json.JSONDecodeError as exc:\n"
              "    raise ValueError(f'{path}: {exc.msg}') from exc\n"
              "try:\n    pass\nexcept csv.Error as exc:\n"
              "    raise ValueError(f'{path}: {exc}') from exc\n"
              "try:\n    pass\nexcept ValueError as exc:\n"
              "    errors.append(f'line 1: {exc}')\n"
              "try:\n    pass\nexcept OverflowError:\n"
              "    raise ValueError(f'{key} is too large') from None\n"
              "try:\n    pass\nexcept builtins.OverflowError as exc:\n"
              "    raise RuntimeError(f'{exc}') from exc\n")
    assert hand_written_rewraps(source) == ["line 3", "line 7"]


def test_input_error_is_the_one_rewrap():
    """A bad value is named by ``input_error``, in ``__init__.py``: no
    other module catches an error and re-raises its text behind a name of
    its own."""
    found = {path.name: hand_written_rewraps(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


# the calls that move a file over another, or make or remove a place to
# stage one
PLACING_CALLS = {"os.replace", "os.rename", "os.renames", "shutil.move",
                 "tempfile.mkdtemp", "tempfile.mkstemp", "shutil.rmtree"}


def placing_calls(source: str) -> list[str]:
    """The calls of ``PLACING_CALLS`` a module makes, by line, named
    through their module (under any alias) or imported from it, and the
    ``Path`` moves: any ``.rename(...)``, and a ``.replace(...)`` of one
    argument, as ``Path.replace`` takes (``str.replace`` takes two)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name: alias.name
                             for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            imported.update({alias.asname or alias.name:
                             f"{node.module}.{alias.name}"
                             for alias in node.names})
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        head, dot, rest = name.partition(".")
        method = getattr(node.func, "attr", None)
        if (imported.get(head, head) + dot + rest in PLACING_CALLS
                or method == "rename"
                or method == "replace"
                and len(node.args) + len(node.keywords) == 1):
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detector_sees_file_placing_calls():
    source = ("import os, shutil\n"
              "import shutil as sh\n"
              "from tempfile import mkdtemp as make, mkstemp\n"
              "from os import rename\n"
              "os.replace(a, b)\n"
              "staging = make()\n"
              "shutil.rmtree(staging)\n"
              "mkstemp()\n"
              "name.replace('a', 'b')\n"
              "os.remove(a)\n"
              "os.rename(a, b)\n"
              "shutil.move(a, b)\n"
              "Path(a).replace(b)\n"
              "path.rename(target=b)\n"
              "sh.rmtree(a)\n"
              "rename(a, b)\n"
              "dataclasses.replace(config, output_dir=b)\n")
    assert placing_calls(source) == [
        "line 5: os.replace", "line 6: make", "line 7: shutil.rmtree",
        "line 8: mkstemp", "line 11: os.rename", "line 12: shutil.move",
        "line 13: Path(a).replace", "line 14: path.rename",
        "line 15: sh.rmtree", "line 16: rename"]


def test_only_the_package_root_places_files():
    """``commit_files``, in ``__init__.py``, is the one way a file is put
    in place (``atomic_open`` is its one-file form): no other module moves
    a file over another or makes or removes a staging directory."""
    found = {path.name: placing_calls(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}


BUILDERS = ("grid_log", "sweep_result")
IMPURE_NAMES = {"train", "fit", "training_record", "run_trainings",
                "featurize", "write_artifact", "open"}


def impure_uses(source: str) -> dict[str, list[str]]:
    """For each of ``BUILDERS`` that ``source`` defines at its top level,
    by line, each ``IMPURE_NAMES`` name its body calls or passes on, bare
    or as an attribute (``fit(...)``, ``harness.train(...)``,
    ``path.open()``, ``partial(training_record, ...)``)."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in BUILDERS:
            uses = sorted((inner.lineno, name) for inner in ast.walk(node)
                          if (name := getattr(inner, "id", getattr(
                              inner, "attr", None))) in IMPURE_NAMES)
            found[node.name] = [f"line {line}: {name}" for line, name in uses]
    return found


def test_detector_sees_impure_uses():
    source = ("def grid_log(settings, records, seed):\n"
              "    fitted, trainer = fit_all(records), model.trainer\n"
              "    task = partial(training_record, data)\n"
              "    with Path(seed).open() as fh, open(seed) as gh:\n"
              "        return harness.train(x), fit(y)\n"
              "def run_grid_search(config):\n"
              "    return train(config), write_artifact(config)\n"
              "def sweep_result(jobs, records):\n"
              "    return [featurize(job) for job in jobs]\n")
    assert impure_uses(source) == {
        "grid_log": ["line 3: training_record", "line 4: open",
                     "line 4: open", "line 5: fit", "line 5: train"],
        "sweep_result": ["line 9: featurize"]}
    harness = (PACKAGE_DIR / "harness.py").read_text(encoding="utf-8")
    pure = "    return {\"log\": log, \"best\": best, \"seed\": seed}\n"
    assert harness.count(pure) == 1
    mutant = harness.replace(pure, "    write_artifact(\"runs\", \"grid\", "
                                   "log)\n" + pure)
    line = harness[:harness.index(pure)].count("\n") + 1
    assert impure_uses(mutant)["grid_log"] == [f"line {line}: write_artifact"]


def test_the_artifact_builders_train_nothing_and_touch_no_file():
    """``grid_log`` and ``sweep_result`` turn a step's jobs and records
    into its artifact and nothing else: they train, featurize, write and
    open nothing, so a stored list of records rebuilds the artifact."""
    source = (PACKAGE_DIR / "harness.py").read_text(encoding="utf-8")
    assert impure_uses(source) == {name: [] for name in BUILDERS}


class TestCommitFiles:
    @pytest.fixture
    def moves(self, monkeypatch):
        """The ``(source, destination)`` of each ``os.replace``, in order."""
        done, real_replace = [], os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: done.append(
            (Path(src), Path(dst))) or real_replace(src, dst))
        return done

    def test_last_is_moved_after_the_others(self, tmp_path, moves):
        with commit_files(tmp_path, "a.txt") as staging:
            for name in ("a.txt", "b.json", "sub/c.json"):
                (staging / name).parent.mkdir(exist_ok=True)
                (staging / name).write_text(name, encoding="utf-8")
        assert [dst.relative_to(tmp_path) for _, dst in moves] == [
            Path("b.json"), Path("sub/c.json"), Path("a.txt")]
        assert (tmp_path / "sub/c.json").read_text("utf-8") == "sub/c.json"

    def test_files_land_under_a_target_that_does_not_exist_yet(self,
                                                               tmp_path):
        target = tmp_path / "new/run"
        with commit_files(target, "x.json") as staging:
            assert staging.parent == tmp_path  # the nearest existing one
            (staging / "deeper/sub").mkdir(parents=True)
            (staging / "deeper/sub/y.txt").write_bytes(b"y")
            (staging / "x.json").write_bytes(b"x")
        assert sorted(str(path.relative_to(tmp_path))
                      for path in tmp_path.rglob("*") if path.is_file()) == [
            "new/run/deeper/sub/y.txt", "new/run/x.json"]
        assert (target / "deeper/sub/y.txt").read_bytes() == b"y"

    def test_a_block_that_raises_changes_nothing(self, tmp_path, moves):
        (tmp_path / "a.json").write_bytes(b"old\x00bytes")
        with pytest.raises(KeyError):
            with commit_files(tmp_path, "a.json") as staging:
                (staging / "a.json").write_bytes(b"new")
                (staging / "b.json").write_bytes(b"new")
                raise KeyError("failed")
        assert moves == []
        assert list(tmp_path.iterdir()) == [tmp_path / "a.json"]
        assert (tmp_path / "a.json").read_bytes() == b"old\x00bytes"

    @pytest.mark.parametrize("mode, data", [("w", "new ✓"), ("wb", b"new")])
    def test_atomic_open_keeps_the_old_bytes_when_its_block_raises(
            self, tmp_path, mode, data):
        path = tmp_path / "kept.json"
        path.write_bytes(b"old")
        with pytest.raises(OSError, match="disk full"):
            with atomic_open(path, mode) as fh:
                fh.write(data)
                fh.flush()
                raise OSError("disk full")
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"old"
        with atomic_open(path, mode) as fh:
            fh.write(data)
        assert path.read_bytes() == (data if mode == "wb"
                                     else data.encode("utf-8"))

    def test_a_nested_atomic_open_is_moved_once_by_the_outer_loop(
            self, tmp_path, moves):
        target = tmp_path / "final"
        with commit_files(target, "final.json") as staging:
            with atomic_open(staging / "model.json", "wb") as fh:
                fh.write(b"model")
            assert moves[0][1] == staging / "model.json"
            assert not (target / "model.json").exists()
            (staging / "final.json").write_bytes(b"final")
        assert [dst for _, dst in moves] == [
            staging / "model.json", target / "model.json",
            target / "final.json"]
        assert moves[1][0] == staging / "model.json"
        assert (target / "model.json").read_bytes() == b"model"
        assert sorted(path.name for path in tmp_path.rglob("*")) == [
            "final", "final.json", "model.json"]


class TestGcPaused:
    """The bulk builders run with the cyclic collector off. It is on again
    after each, whether it returned or raised, unless the caller had
    turned it off; what they build holds no cycle."""

    @pytest.fixture
    def sites(self, tmp_path):
        write_corpus_csv(tmp_path / "syndication.csv")
        return parse_syndication(tmp_path / "syndication.csv")[0]

    @pytest.fixture
    def bad_dir(self, tmp_path):
        (tmp_path / "bad").mkdir()
        (tmp_path / "bad/train.jsonl").write_text("not json\n",
                                                  encoding="utf-8")
        return tmp_path / "bad"

    @pytest.mark.parametrize("name", ["build_dataset", "build_sd_set",
                                      "write_dataset", "read_dataset",
                                      "mine"])
    def test_each_leaves_the_collector_on_and_no_garbage(
            self, sites, tmp_path, canned_proba, name):
        dataset = build_dataset(sites)
        dataset.sd = build_sd_set(sites)
        write_dataset(dataset, tmp_path / "data")
        stub = StubPredictor({"site": [(1, 0.5), (2, 0.3), (3, 0.2)]})
        call = {"build_dataset": lambda: build_dataset(sites),
                "build_sd_set": lambda: build_sd_set(sites),
                "write_dataset": lambda: write_dataset(dataset,
                                                       tmp_path / "out"),
                "read_dataset": lambda: read_dataset(tmp_path / "data"),
                "mine": lambda: mine(["Site one.", "Site two."], stub,
                                     stub)}[name]
        gc.collect()
        call()
        assert gc.isenabled()
        assert gc.collect() == 0

    def test_the_collector_is_on_again_after_a_raise(self, bad_dir):
        with pytest.raises(ValueError, match="train.jsonl: line 1"):
            read_dataset(bad_dir)
        assert gc.isenabled()

    def test_a_collector_the_caller_turned_off_stays_off(self, sites,
                                                         bad_dir):
        gc.disable()
        try:
            build_sd_set(sites)
            assert not gc.isenabled()
            gc_paused(build_sd_set)(sites)
            assert not gc.isenabled()
            with pytest.raises(ValueError, match="line 1"):
                read_dataset(bad_dir)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_nested_call_leaves_the_collector_to_the_outer_one(self, sites):
        outer = gc_paused(lambda: (build_sd_set(sites), gc.isenabled()))
        samples, on_inside = outer()
        assert samples and not on_inside
        assert gc.isenabled()


def test_cli_main_catches_only_the_error_contract():
    """``ouvclf`` turns bad input (``ValueError``), an unreadable file
    (``OSError``), an allocation too large for the machine
    (``MemoryError``) and a step with no usable training
    (``RuntimeError``) into ``error: `` and exit 1, in one handler; the
    reader that owns an input turns its other faults into one of these."""
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text(encoding="utf-8"))
    main_def, = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "main"]
    handlers = [node for node in ast.walk(main_def)
                if isinstance(node, ast.ExceptHandler)]
    assert [caught_names(h) for h in handlers] == [
        {"OSError", "MemoryError", "ValueError", "RuntimeError"}]


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


# the ``Sample`` fields that only the benchmark's hand-built sample sets,
# after the four a dataset line holds
BENCH_ONLY_FIELDS = {"one_hot", "split"}
LINE_FIELDS = 4


def sample_field_uses(source: str) -> list[str]:
    """By line, each call of a module that passes a ``BENCH_ONLY_FIELDS``
    keyword, or more than ``LINE_FIELDS`` positional values to ``Sample``
    (directly or through ``map``), each ``.one_hot`` it reads or writes and
    each ``.split`` it writes, and each use of the name ``Sample`` outside
    ``make_samples`` other than in an annotation or an import."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        parts = [getattr(node, "annotation", None),
                 getattr(node, "returns", None)]
        if isinstance(node, ast.FunctionDef) and node.name == "make_samples":
            parts.append(node)
        allowed |= {id(inner) for part in parts if part is not None
                    for inner in ast.walk(part)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            found += [(node.lineno, f"{keyword.arg}=")
                      for keyword in node.keywords
                      if keyword.arg in BENCH_ONLY_FIELDS]
            callee, args = node.func, node.args
            if ast.unparse(callee) == "map" and args:
                callee, *args = args
            if (ast.unparse(callee).endswith("Sample")
                    and len(args) > LINE_FIELDS):
                found.append((node.lineno, f"{len(args)} columns"))
        if isinstance(node, ast.Attribute) and (
                node.attr == "one_hot" or node.attr == "split"
                and isinstance(node.ctx, ast.Store)):
            found.append((node.lineno, f".{node.attr}"))
        name = getattr(node, "id", getattr(node, "attr", None))
        if name == "Sample" and id(node) not in allowed:
            found.append((node.lineno, name))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_detector_sees_sample_field_uses():
    source = ("from .corpus import Sample\n"
              "def make_samples(a, b):\n    return list(map(Sample, a, b))\n"
              "def f(samples: list[Sample], x) -> Sample:\n"
              "    y: Sample = samples[0]\n"
              "    s = Sample(tokens=[], split='sd')\n"
              "    s.split = 'train'\n"
              "    return s.one_hot, x.split(), dataset.split('sd')\n"
              "rows = map(corpus.Sample, samples)\n"
              "dataclasses.replace(s, one_hot=None)\n"
              "def make_samples(a, b, c, d, e):\n"
              "    return list(map(Sample, a, b, c, d, e))\n")
    assert sample_field_uses(source) == [
        "line 6: Sample", "line 6: split=", "line 7: .split",
        "line 8: .one_hot", "line 9: Sample", "line 10: one_hot=",
        "line 12: 5 columns"]
    corpus = (PACKAGE_DIR / "corpus.py").read_text(encoding="utf-8")
    built = "return make_samples(*zip(*kept)) if kept else []"
    assert corpus.count(built) == 1
    mutant = corpus.replace(built, "return [Sample(*f, split='sd') "
                                   "for f in zip(*kept)]")
    line = corpus[:corpus.index(built)].count("\n") + 1
    assert sample_field_uses(mutant) == [f"line {line}: Sample",
                                         f"line {line}: split="]


def test_the_package_sets_no_bench_only_sample_field():
    """No package code passes ``one_hot=`` or ``split=``, reads or writes
    ``.one_hot`` or writes ``.split``, and ``make_samples`` is the one
    place that builds a ``Sample``, so the two fields go with their two
    lines in the class once the benchmark stops passing them."""
    found = {path.name: sample_field_uses(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}


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
    """The README's list of a dataset line's keys is the keys of a written
    line, in order: a key it lacks or one no line holds fails."""
    path = tmp_path / "train.jsonl"
    write_samples([make_sample(["wall"], 3)], path)
    listed = re.search(r"A dataset line holds each fact once:\s+`\{(.*?)\}`",
                       README.read_text(encoding="utf-8"), re.DOTALL)
    assert listed is not None
    assert re.findall(r'"(\w+)"', listed[1]) == \
        list(json.loads(path.read_text("utf-8")))


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


def mine_output(path):
    """``ouvclf mine``'s exit code, stdout and stderr on the input file at
    ``path`` with the final models of the ``run_files`` run beside it."""
    final = path.parent / "runs/step3_final"
    return mine_cli([str(final / f"model_{label}.json")
                     for label in ("no_ls", "ls")], path)


# each text reader that ``run_files`` holds no file for: the file's text and
# the call that reads it
TEXT_READERS = {
    "csv": (None, parse_syndication),
    "embeddings": ("wall 0.5 -1.0\nhall 0.25 0.1\n",
                   lambda path: load_embeddings(path, {"wall", "hall"})),
    "embeddings-with-count": ("2 2\nwall 0.5 -1.0\nhall 0.25 0.1\n",
                              lambda path: load_embeddings(path, {"wall"})),
    "mine-input": ("the ancient walls ensemble shows enduring testimony\n"
                   "a renowned temple site of great value\n", mine_output),
}


@pytest.mark.parametrize("reader", [
    *(reader for reader in READERS if reader not in ARRAY_FILES),
    *TEXT_READERS])
def test_a_leading_byte_order_mark_reads_as_none(run_files, reader):
    """A UTF-8 byte-order mark at the start of a text input, as Excel's
    "CSV UTF-8" writes one, gives what the file gives without it: the same
    value, or the same exit code and output."""
    if reader in TEXT_READERS:
        text, read = TEXT_READERS[reader]
        path = run_files / f"{reader}.txt"
        if text is None:
            write_corpus_csv(path)
        else:
            path.write_text(text, encoding="utf-8")
    else:
        rel, read = READERS[reader]
        path = run_files / rel
    original = path.read_bytes()
    plain = repr(read(path))
    path.write_bytes(b"\xef\xbb\xbf" + original)
    try:
        assert repr(read(path)) == plain
    finally:
        path.write_bytes(original)
