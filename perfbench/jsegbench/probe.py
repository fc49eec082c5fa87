"""Set-up probe: a fresh interpreter that gets one op ready, then exits.

Usage: ``python probe.py <workload> <seed> <workdir>`` with ``src`` on
``PYTHONPATH``.  It imports ``jseg.cli``, prepares op 0's inputs and
prints ``ready``; the harness times launch to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import jseg.cli  # noqa: E402,F401  (the import is what is being timed)
from jsegbench.workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workdir.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].steps(seed, workdir)
    print("ready", flush=True)
