"""Set-up probe: everything a CLI run pays before its first path.

    python3 perfbench/setup_probe.py CONFIG [--env]

imports ``bsdedensity.cli``, parses CONFIG and builds its ``LampertiMap``.
The caller times the whole process.  With ``--env`` it prints, as one JSON
line, the interpreter, numpy and BLAS this process ran with.
"""

from __future__ import annotations

import json
import sys

import bsdedensity.cli  # noqa: F401  (the import is part of what is timed)
from bsdedensity.config import parse_config
from bsdedensity.lamperti import LampertiMap


def _environment() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "bsdedensity_file": bsdedensity.cli.__file__,
    }


def main(argv: list[str]) -> int:
    problem = parse_config(argv[0]).problem()
    LampertiMap(problem.sigma, problem.b, problem.box)
    if "--env" in argv[1:]:
        print(json.dumps(_environment()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
