"""Host fingerprint stamped on every result, and the refusal to compare
results whose hosts differ.

Timings only compare on the same host and settings: core count, BLAS build
and its thread cap, engine threads, default dtype, and the Python and numpy
versions.  The git revision and a digest of the sources are stamped too,
but two revisions are exactly what an A/B comparison sets side by side, so
they are reported, not matched.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from typing import Dict, List

#: fields that must match for two results to be compared
HOST_FIELDS = ("nproc", "blas", "blas_version", "blas_threads",
               "engine_threads", "default_dtype", "python", "numpy")

_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _blas_threads() -> str:
    """Threads the loaded BLAS runs with, asked of the library itself."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "blas" in line.lower()
                            and line.rstrip().endswith(".so")})
    except OSError:
        paths = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return str(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS",
                          os.environ.get("OMP_NUM_THREADS", "unknown"))


def git_revision(root: str) -> str:
    """HEAD of the repository at ``root``; "unknown" outside of one."""
    # git must not climb above ``root``: the benchmark reads only its checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(
        os.path.realpath(root)))
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=root, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def source_digest(root: str) -> str:
    """SHA-256 over the program's sources, which names the code measured
    where there is no git revision (a checkout that is not a repository)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def host_fingerprint(root: str) -> Dict[str, str]:
    """The fingerprint of this process's host and program settings."""
    import numpy as np

    from repro.nn.parallel import get_engine_threads
    from repro.nn.tensor import get_default_dtype

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": str(os.cpu_count()),
        "blas": str(blas.get("name")),
        "blas_version": str(blas.get("version")),
        "blas_threads": _blas_threads(),
        "engine_threads": str(get_engine_threads()),
        "default_dtype": str(np.dtype(get_default_dtype())),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
    }


class FingerprintMismatch(ValueError):
    """Two results come from different hosts or settings."""


def check_comparable(a: Dict[str, str], b: Dict[str, str]) -> None:
    """Raise :class:`FingerprintMismatch` unless ``a`` and ``b`` share a host."""
    differences: List[str] = [
        f"{name}: {a.get(name)!r} != {b.get(name)!r}"
        for name in HOST_FIELDS if a.get(name) != b.get(name)]
    if differences:
        raise FingerprintMismatch(
            "refusing to compare runs from different hosts or settings: "
            + "; ".join(differences))
