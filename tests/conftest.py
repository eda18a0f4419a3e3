"""Shared fixtures."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def child_env():
    """Build the environment of a child Python process that imports this
    checkout's package, with no BLAS thread variable set except those given."""

    def build(**blas_threads):
        env = {key: value for key, value in os.environ.items()
               if key not in BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        env.update(blas_threads)
        return env

    return build
