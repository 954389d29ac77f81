"""``scripts/checkout.py``: a revision extracted by ``git archive`` and a
copy of the working tree, side by side at paths of equal length."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import checkout  # noqa: E402

pytestmark = pytest.mark.skipif(not (ROOT / ".git").exists(), reason="not a git checkout")


def test_a_revision_is_extracted_under_the_base_and_removed(tmp_path):
    base = tmp_path / "base"
    with checkout.revision_checkout("HEAD", base) as path:
        assert path.parent == base
        committed = subprocess.run(["git", "-C", str(ROOT), "show", "HEAD:pyproject.toml"],
                                   capture_output=True, check=True).stdout
        assert (path / "pyproject.toml").read_bytes() == committed
        assert (path / "src" / "xlma" / "optimizer.py").is_file()
        assert not (path / ".git").exists()
    assert not path.exists() and base.is_dir()


def test_the_working_tree_is_copied_beside_it_at_an_equal_length(tmp_path):
    with (checkout.revision_checkout("HEAD", tmp_path) as parent,
          checkout.working_tree_copy(tmp_path) as change):
        assert parent.parent == change.parent == tmp_path
        assert len(str(parent)) == len(str(change))
        for name in ("src/xlma/optimizer.py", "scripts/checkout.py", "BENCHMARK.json"):
            assert (change / name).read_bytes() == (ROOT / name).read_bytes()
        assert not (change / ".git").exists()
    assert not parent.exists() and not change.exists()
