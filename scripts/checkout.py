"""Checkouts of another revision and of this working tree, for the scripts
that compare them (``bench_pairs.py``, ``same_outputs.py``).

Each checkout is a new directory under a base directory (the system's
temporary directory by default), made by ``tempfile.mkdtemp`` with one
prefix, so that any two sit at paths of equal length (the peak RSS a
benchmark pass reports moves with the length of its checkout's path). It is
removed when its block ends. No git worktree is made, and nothing outside
the base directory is written.
"""

from __future__ import annotations

import contextlib
import shutil
import subprocess
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def _new_directory(base):
    """A new empty directory under ``base``, removed when the block ends."""
    if base is not None:
        Path(base).mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="xlma-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextlib.contextmanager
def revision_checkout(rev: str, base=None):
    """The path of ``git archive rev`` extracted into a new directory under
    ``base``, removed when the block ends."""
    with _new_directory(base) as path:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(path)], input=archive, check=True,
                       capture_output=True)
        yield path


@contextlib.contextmanager
def working_tree_copy(base=None):
    """The path of a copy of this working tree's files, tracked or not yet
    added but not ignored, as they are on disk, in a new directory under
    ``base``, removed when the block ends."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], check=True, capture_output=True).stdout
    with _new_directory(base) as path:
        for name in filter(None, listed.decode().split("\0")):
            source = ROOT / name
            if source.is_file():  # a tracked file deleted on disk is left out
                (path / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, path / name)
        yield path
