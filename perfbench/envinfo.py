"""Environment block attached to every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

from spec import THREAD_VARS


def blas_threads() -> int | None:
    """Threads in this process, read after a BLAS call has started the pool."""
    import numpy as np

    a = np.ones((256, 256))
    a @ a
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def git_state(root: Path) -> dict:
    """Commit sha and dirty flag, or nulls when the tree is not a git checkout."""
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def environment(root: Path, threads: int | None) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "threads_after_blas": threads,
        "git": git_state(root),
    }
