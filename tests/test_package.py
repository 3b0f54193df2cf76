"""Package-wide structure checks."""

import ast
from pathlib import Path

import ouv_classifier

PACKAGE_DIR = Path(ouv_classifier.__file__).parent


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
