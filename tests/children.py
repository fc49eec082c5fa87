"""New interpreters for the tests: one that imports this ``jseg`` and the
test modules, and one that also lowers its own address-space limit."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import jseg


def fresh_env(**extra: str) -> dict:
    """The environment of a new interpreter that imports this ``jseg`` and
    the modules of this directory."""
    paths = [str(Path(jseg.__file__).resolve().parent.parent), str(Path(__file__).resolve().parent)]
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")])))


def cap_address_space(limit: int = 3 * 2**30) -> None:
    """Lower this process's own address-space limit; run in the child only."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python argv`` with one OpenBLAS thread under a 3 GiB
    address-space cap.  The cap makes a huge request a ``MemoryError`` in
    the child alone, not work for the OOM killer; no machine setting
    changes."""
    return subprocess.run([sys.executable, *argv], env=fresh_env(OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=cap_address_space, capture_output=True, text=True, timeout=120)
