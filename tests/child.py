"""The environment for a child process that imports the helirad under test."""

import os
from pathlib import Path

import helirad


def child_env(**overrides):
    """This environment with `overrides` and this process's helirad first on PYTHONPATH.

    The child finds the package where this process found it, so a test needs
    no install and no particular working directory.  It raises a
    RuntimeWarning as an error, the suite's own filter (pyproject.toml), so a
    numpy warning fails a child as it fails a test in this process.
    """
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", **overrides}
    src = str(Path(helirad.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
