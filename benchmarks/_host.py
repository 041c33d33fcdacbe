"""The host a benchmark ran on, recorded in every ``BENCH_*.json``.

A timing means little without the machine behind it, so each bench stores
:func:`host_info` under the artifact's ``"host"`` key.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess

import numpy as np

_REPO = pathlib.Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args],
        cwd=_REPO,
        capture_output=True,
        text=True,
        check=True,
        timeout=10,
    ).stdout.strip()


def host_info() -> dict:
    """Available cores, Python/NumPy versions and the checkout's git sha.

    ``git_sha`` is ``"unknown"`` outside a git checkout; ``git_dirty``
    marks numbers measured on uncommitted changes to tracked files (other
    than the ``BENCH_*.json`` artifacts) on top of that sha.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cores = os.cpu_count() or 0
    try:
        sha = _git("rev-parse", "HEAD")
        # The artifacts themselves are rewritten by the benches; a change
        # to them alone does not make a measurement "dirty".
        dirty = bool(
            _git(
                "status", "--porcelain", "--untracked-files=no",
                "--", ".", ":(exclude)BENCH_*.json",
            )
        )
    except (OSError, subprocess.SubprocessError):
        sha, dirty = "unknown", None
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }
