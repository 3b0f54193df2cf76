"""Sentence-level classification of World Heritage OUV selection criteria.

The package builds a sentence dataset from the UNESCO syndication export,
derives criterion co-occurrence priors, generates soft training labels,
trains from-scratch n-gram and bag-of-embeddings classifiers, and evaluates
them with multi-class and multi-label metrics.
"""

import dataclasses
import functools
import gc
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

__version__ = "0.1.0"

NUM_CRITERIA = 10
NUM_CLASSES = 11  # ten selection criteria plus the synthetic "Others" class
OTHERS_NOISE = 0.2


def gc_paused(fn):
    """``fn`` run with the cyclic garbage collector off, and on again after
    it returns or raises if it was on at entry: ``fn`` builds acyclic
    objects in bulk, which reference counting frees, and each collection
    would rescan the live generations."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()
    return paused


@contextmanager
def commit_files(target: str | Path, last: str):
    """A staging directory, made in the nearest existing ancestor of the
    directory ``target`` (``target`` included), whose files the block
    writes at their paths relative to ``target``. When the block returns,
    one ``os.replace`` loop moves each file to its path under ``target``,
    ``last`` (such a relative path) after the others. The staging
    directory is removed in any case, so a block that raises changes
    nothing under ``target``; only a failed move is left as a window."""
    anchor = target = Path(target)
    while not anchor.exists():
        anchor = anchor.parent
    staging = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=anchor))
    try:
        yield staging
        names = sorted(path.relative_to(staging)
                       for path in staging.rglob("*") if path.is_file())
        for name in sorted(names, key=lambda name: name == Path(last)):
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            os.replace(staging / name, target / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open ``path`` for writing (``mode`` "w" for UTF-8 text or "wb"): the
    one-file form of ``commit_files``, so readers see the old file or the
    whole new one, never a partial one, and missing directories are
    made."""
    path = Path(path)
    with commit_files(path.parent, path.name) as staging, \
            open(staging / path.name, mode,
                 encoding=None if "b" in mode else "utf-8") as fh:
        yield fh


@contextmanager
def input_error(path, message: str = "{}"):
    """Re-raise a ``KeyError``, ``TypeError`` or ``ValueError`` from the
    block, which checks values from ``path`` (a file, or a config field such
    as ``seeds``), as the one bad-input error: a ``ValueError`` reading
    ``"<path>: "`` and ``message`` with its ``{}`` filled by the error's
    text, which for a ``KeyError`` is ``missing key 'k'``. So is an
    ``OverflowError``, which a JSON integer too large for a float gives."""
    try:
        yield
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: " + message.format(detail)) from exc


def read_lines(path, newline: str | None = None):
    """The lines of the UTF-8 text file at ``path``, without a leading
    byte-order mark (``newline`` as for ``open``; ``csv`` needs ``""``);
    bytes that are not UTF-8 are a ``ValueError`` naming the file. Errors
    raised by the caller between lines pass through as they are."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh, \
            input_error(path):
        yield from fh


def read_json(path, **defaults):
    """The JSON value in the file at ``path``, checked by ``json_keys``
    against ``defaults``; a leading byte-order mark is skipped, and bytes
    that are not UTF-8 or text that is not JSON are a ``ValueError`` naming
    the file."""
    with open(path, encoding="utf-8-sig") as fh, input_error(path):
        value = json.load(fh)
    return json_keys(path, value, **defaults)


def json_keys(path, value, **defaults):
    """``value``, a JSON value read from the file at ``path``: an object
    holding each key of ``defaults`` with a value of its default's JSON
    type, if any are given. Anything else is a ``ValueError`` naming the
    file and the key."""
    missing = [key for key in defaults
               if not isinstance(value, dict) or key not in value]
    if missing:
        raise ValueError(f"{path}: missing key(s) "
                         + ", ".join(map(repr, missing)))
    for key, default in defaults.items():
        check_json_type(path, key, value[key], default)
    return value


def check_json_type(path, name: str, value, default) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` has the JSON
    type of ``default`` (an integer that ``float`` can hold passes for a
    float, a bool never for a number); list items are checked against the
    default's first item."""
    want = (float, int) if type(default) is float else (type(default),)
    if (not isinstance(value, want)
            or isinstance(value, bool) != isinstance(default, bool)):
        raise ValueError(f"{path}: key {name!r} is {type(value).__name__}, "
                         "expected " + " or ".join(t.__name__ for t in want))
    if want[0] is float and type(value) is int:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{path}: key {name!r} is an integer too large "
                             "for a float") from None
    for i, item in enumerate(value if isinstance(default, list) else ()):
        check_json_type(path, f"{name}[{i}]", item, default[0])


def json_fields(path, name: str, value, cls) -> dict:
    """The fields of the dataclass ``cls`` in ``value``, the JSON object at
    ``name`` ("" for the top level) of the file at ``path``. Each key must
    be a field, of its default's JSON type if it has one; a dataclass
    default is read likewise and built. Anything else is a ``ValueError``
    naming the file and the key."""
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {name or 'the file'} is "
                         f"{type(value).__name__}, not a JSON object")
    prefix = f"{name}." if name else ""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = [prefix + key for key in value if key not in fields]
    if unknown:
        raise ValueError(f"{path}: unknown key(s) "
                         + ", ".join(map(repr, unknown)))
    out = dict(value)
    for key, item in value.items():
        f = fields[key]
        default = (f.default if f.default_factory is dataclasses.MISSING
                   else f.default_factory())
        if dataclasses.is_dataclass(default):
            kwargs = json_fields(path, prefix + key, item, type(default))
            with input_error(path, f"{prefix}{key}: {{}}"):
                out[key] = type(default)(**kwargs)
        elif default is not dataclasses.MISSING:
            check_json_type(path, prefix + key, item, default)
    return out
