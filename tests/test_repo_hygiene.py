import pathlib
import shutil
import subprocess

import pytest

from conftest import REPO


def _git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args],
                          capture_output=True, text=True)


def test_no_tracked_file_is_gitignored():
    # Build outputs and logs belong in .gitignore, never in the tree.
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if (top.returncode != 0
            or pathlib.Path(top.stdout.strip()).resolve() != REPO):
        pytest.skip("the checkout is not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout.splitlines() == []
