"""Names the BLAS kernels a test run uses in pytest's header.

The sha256 pins in ``test_optimizer.py``, ``test_cli.py`` and
``test_problems.py`` hold only under the OpenBLAS kernels they were
recorded with (SkylakeX), and OpenBLAS picks its kernels for the CPU at
run time.  With the core type in the header, a pin failure on another
core explains itself.
"""

import ctypes
import glob
import os

import numpy as np


def _openblas_corename() -> str:
    """Core type of the OpenBLAS in numpy's wheel (``numpy.libs``), or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return (
        f"numpy {np.__version__}, {blas.get('name', 'BLAS')} {blas.get('version', 'unknown')}, "
        f"OpenBLAS core type {_openblas_corename()}"
    )
