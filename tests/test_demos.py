"""Every demo script runs to completion and writes nothing into the repository."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bfdarcy

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(bfdarcy.__file__).resolve().parents[1])


def repository_files():
    """Every file under the repository with its modification time, .git aside."""
    files = {}
    for root, dirs, names in os.walk(REPO):
        dirs[:] = [d for d in dirs if d != ".git"]
        for name in names:
            path = os.path.join(root, name)
            files[path] = os.stat(path).st_mtime_ns
    return files


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_and_writes_only_to_its_working_directory(demo, tmp_path):
    before = repository_files()
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert repository_files() == before
