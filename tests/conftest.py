import gc
import json
import multiprocessing
import os
import re

import numpy as np
import pytest
from hypothesis import settings

from ouv_classifier import NUM_CLASSES, harness
from ouv_classifier.corpus import Dataset, Sample, SiteRecord

# selected with --hypothesis-profile=ci: a failure prints the blob that
# reproduces it, and tests with no @settings of their own run 200 examples
settings.register_profile("ci", print_blob=True, max_examples=200)
# selected with --hypothesis-profile=deep, as the weekly CI job runs the
# text-rule properties: every selected property runs this many examples,
# its own max_examples raised to it (below) and with no deadline
DEEP_EXAMPLES = 20_000
settings.register_profile("deep", print_blob=True, deadline=None,
                          max_examples=DEEP_EXAMPLES)


def pytest_collection_modifyitems(items):
    """Under the ``deep`` profile, raise each property's ``@settings``
    budget, which a profile does not override, to the profile's."""
    if settings.default.max_examples != DEEP_EXAMPLES:
        return
    for item in items:
        test = getattr(item, "function", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None:
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=DEEP_EXAMPLES)


def edit_head(path, edit) -> None:
    """Apply ``edit`` to the JSON head line of the checkpoint or featurizer
    file at ``path``, in place, keeping its body of array bytes."""
    head, body = path.read_bytes().split(b"\n", 1)
    value = json.loads(head)
    edit(value)
    path.write_bytes(json.dumps(value).encode() + b"\n" + body)


def make_one_hot(criterion):
    """The one-hot row of ``criterion``, as ``soft_targets`` builds it."""
    return np.eye(NUM_CLASSES)[criterion - 1]


def make_sample(tokens, criterion, parental_criteria=None, site_id=1):
    return Sample(tokens=list(tokens), sentence_label=criterion,
                  parental=list(parental_criteria or [criterion]),
                  site_id=site_id)


def make_separable_dataset(n_train=300, n_valid=60, n_classes=3, seed=7,
                           n_test=0):
    """Toy corpus with class-exclusive vocabularies; linearly separable."""
    rng = np.random.default_rng(seed)
    vocab = {c: [f"c{c}w{i}" for i in range(10)]
             for c in range(1, n_classes + 1)}
    dataset = Dataset()
    for split, count in (("train", n_train), ("valid", n_valid),
                         ("test", n_test)):
        for j in range(count):
            criterion = (j % n_classes) + 1
            length = int(rng.integers(8, 13))
            tokens = list(rng.choice(vocab[criterion], size=length))
            dataset.split(split).append(
                make_sample(tokens, criterion, site_id=j))
    return dataset


def make_sites(criteria_sets, descriptions=None):
    sites = []
    for i, crits in enumerate(criteria_sets, start=1):
        desc = (descriptions or {}).get(i, "")
        sites.append(SiteRecord(site_id=i, name=f"site {i}",
                                justification={}, short_description=desc,
                                criteria=frozenset(crits)))
    return sites


class StubPredictor:
    """``mine``'s predictor double, for ``predict_proba`` patched to return
    its input (the ``canned_proba`` fixture): its featurizer gives each
    token list the probability row that holds the ``(id, confidence)``
    pairs canned for its first token, and zeros elsewhere."""

    featurizer_path = None
    model = None

    def __init__(self, outputs):
        self.featurizer = self
        self.outputs = outputs

    def transform_token_lists(self, token_lists):
        rows = np.zeros((len(token_lists), NUM_CLASSES))
        for row, tokens in zip(rows, token_lists):
            for c, v in self.outputs[tokens[0]]:
                row[c - 1] = v
        return rows


@pytest.fixture
def canned_proba(monkeypatch):
    monkeypatch.setattr(harness, "predict_proba", lambda model, x: x)


def use_cpus(monkeypatch, count):
    """Let the harness see ``count`` usable CPUs, as ``taskset`` would, so a
    step runs on at most ``count`` processes."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


@pytest.fixture(scope="session")
def toy_dataset():
    return make_separable_dataset()


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test after which a child process of this one still runs, as
    a training worker that outlived its step would; the child is ended."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(10)
    assert left == [], f"processes left running: {left}"


@pytest.fixture(autouse=True)
def no_collector_left_off():
    """Fail a test after which the cyclic garbage collector is off, as a
    ``gc_paused`` function that missed turning it back on would leave it;
    the collector is turned on again."""
    yield
    was_on = gc.isenabled()
    gc.enable()
    assert was_on, "the cyclic garbage collector was left disabled"


# a ``commit_files`` staging directory, ``tempfile.mkdtemp``'s
# ``.<target name>.<8 characters>``
_STAGING_DIR = re.compile(r"^\..*\.[a-z0-9_]{8}$")


@pytest.fixture(autouse=True)
def no_temp_file_left(request):
    """Fail a test that uses ``tmp_path`` after which a staging directory
    of an atomic write is left under it, as a failed write that missed
    its cleanup would leave. ``tmp_path`` is requested here, before the
    test runs, so it is still there when this checks."""
    if "tmp_path" not in request.fixturenames:
        yield
        return
    root = request.getfixturevalue("tmp_path")
    yield
    left = [str(path.relative_to(root)) for path in root.rglob("*")
            if _STAGING_DIR.match(path.name) and path.is_dir()]
    assert left == [], f"staging directories left: {left}"
