"""Sentence-level classification of World Heritage OUV selection criteria.

The package builds a sentence dataset from the UNESCO syndication export,
derives criterion co-occurrence priors, generates soft training labels,
trains from-scratch n-gram and bag-of-embeddings classifiers, and evaluates
them with multi-class and multi-label metrics.
"""

import os
from contextlib import contextmanager

__version__ = "0.1.0"

NUM_CRITERIA = 10
NUM_CLASSES = 11  # ten selection criteria plus the synthetic "Others" class
OTHERS_NOISE = 0.2


@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open ``path`` for writing (``mode`` "w" for UTF-8 text or "wb";
    ``newline`` as for ``open``) through a temp file in the same directory,
    moved over ``path`` with ``os.replace`` on success, so readers see the
    old file or the whole new one, never a partial one."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8",
                  newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
