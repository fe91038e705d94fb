"""Record of the machine and software a benchmark result was measured on."""
from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

_BLAS_THREAD_FUNCS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info() -> dict:
    """BLAS build string and its current thread count, as numpy loaded it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    info = {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration"),
        "threads": None,
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                if k in os.environ},
    }
    np_dir = Path(np.__file__).resolve().parent
    libs = glob.glob(str(np_dir.parent / "numpy.libs" / "*openblas*"))
    libs += glob.glob(str(np_dir / ".libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for fname in _BLAS_THREAD_FUNCS:
            fn = getattr(lib, fname, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def cpu_quota() -> str | None:
    """The cgroup v2 CPU quota line ("max 100000" when unlimited), read only."""
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(root: Path) -> str:
    """Digest of every file under root (relative path and bytes)."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(root: Path, scene_seeds) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_quota": cpu_quota(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(root),
        "src_sha256": tree_sha256(root / "src"),
        "scene_seeds": list(scene_seeds),
    }
