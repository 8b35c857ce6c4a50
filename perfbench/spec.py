"""Workload table and BLAS thread environment shared by run.py and worker.py.

Kept free of numpy so that run.py can read it without loading BLAS in the
parent process.
"""

from __future__ import annotations

import os

# Every variable through which a BLAS or OpenMP runtime picks its thread
# count. Pinned workloads set all of them to 1; the threaded workload
# removes all of them, which is what a user with a default environment gets.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# kind "design": whole passes over a stratified grid of energy budgets and
# assumed DOAs; one operation is prior + MM design + baseline + its D.
# kind "sweep": repeated `mimowave sweep` runs of one pd_vs_nominal_doa
# config; one operation is one sweep.
WORKLOADS = {
    "design_small": {"kind": "design", "code_length": 20, "strata": 16,
                     "subset": None, "pinned": True},
    "design_long": {"kind": "design", "code_length": 64, "strata": 4,
                    "subset": None, "pinned": True},
    "design_small_threads": {"kind": "design", "code_length": 20,
                             "strata": 16, "subset": (0, 5, 10, 15),
                             "pinned": False},
    "sweep_mc": {"kind": "sweep", "pinned": True},
}


def worker_env(workload: str) -> dict:
    """Process environment for one workload: thread variables pinned or unset."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if WORKLOADS[workload]["pinned"]:
        env.update({name: "1" for name in THREAD_VARS})
    return env
