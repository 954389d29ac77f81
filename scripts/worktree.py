"""A temporary ``git worktree`` of another revision, for the scripts that
compare it with this working tree (``bench_pairs.py``, ``same_outputs.py``).

The worktree goes beside the repository, outside its tree, at a path exactly
as long as the repository's own (the peak RSS a benchmark pass reports moves
with the length of its checkout's path), and is removed on exit.
"""

from __future__ import annotations

import contextlib
import secrets
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def sibling_directory() -> Path:
    """A new empty directory beside ROOT whose path is as long as ROOT's."""
    while True:
        path = ROOT.parent / secrets.token_hex(len(ROOT.name))[:len(ROOT.name)]
        try:
            path.mkdir()
            return path
        except FileExistsError:
            continue


@contextlib.contextmanager
def revision_checkout(rev: str):
    """The path of a detached worktree of ``rev``, removed when the block ends."""
    path = sibling_directory()
    try:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", str(path), rev],
                       check=True, capture_output=True)
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
                       capture_output=True)
        shutil.rmtree(path, ignore_errors=True)  # if the worktree was never added
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
