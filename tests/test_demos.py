"""Every demo script runs to completion without writing to stderr."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from .child import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
CLI_TOUR = Path(__file__).resolve().parents[1] / "demos" / "cli_tour.sh"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo, tmp_path):
    env = child_env(TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert list(tmp_path.iterdir()) == []  # nothing left behind, temporary files included


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX shell")
def test_cli_tour_runs_cleanly(tmp_path):
    # `helirad` and `python3` on PATH run this interpreter on this checkout,
    # the way the console script runs an installed helirad
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, module in (("helirad", " -m helirad.cli"), ("python3", "")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}"{module} "$@"\n')
        shim.chmod(0o755)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = child_env(TMPDIR=str(scratch))
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    proc = subprocess.run(["sh", str(CLI_TOUR)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    (out,) = scratch.iterdir()  # the tour's own mktemp -d directory
    names = re.findall(r'--output "\$out/([^"]+)"', CLI_TOUR.read_text())
    assert len(names) == 10
    for name in names:
        data = (out / name).read_bytes()
        manifest = json.loads((out / (name + ".manifest.json")).read_text())
        assert manifest["sha256"] == hashlib.sha256(data).hexdigest(), name
