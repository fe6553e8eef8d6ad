"""Shared fixtures, including the session-wide bank of full-length runs.

The trend-level acceptance criteria need 2000-step runs across mechanisms,
potentials, statistics and seeds. They are computed once per session and
shared, with per-run wall times kept for the runtime criteria.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from phibal import autodiff
from phibal.config import with_seed
from phibal.moe import MoeLayer
from phibal.potentials import default_catalog
from phibal.training import BalanceConfig, TrainConfig, train

SEEDS = (0, 1, 2)


def assert_split_across_threads(threads: dict, caller: int) -> None:
    """``threads`` maps each item of one `autodiff._split` call, keyed in item
    order, to the thread that ran it: the first slice ran on ``caller``, and
    every item after it off the caller's thread."""
    ran = [threads[key] for key in sorted(threads)]
    first = len(ran) // max(1, autodiff._parts(len(ran)))
    assert ran[:first] == [caller] * first and caller not in ran[first:]


def record_group_threads(monkeypatch) -> dict:
    """Patch `MoeLayer._group_forward` to record, by each training forward's
    group's first expert, the thread that ran it; the dict it fills."""
    threads = {}
    group_forward = MoeLayer._group_forward

    def recorded(self, group, *args):
        if args[-1]:  # ``keep``: a training forward, not an eval's
            threads[group[0]] = threading.get_ident()
        return group_forward(self, group, *args)

    monkeypatch.setattr(MoeLayer, "_group_forward", recorded)
    return threads


def _blas_core() -> str:
    """The kernel core the bundled OpenBLAS picked at run time (found as
    `bench/run.py` finds its thread count), or "unknown"; never raises."""
    try:
        import ctypes

        import numpy as np

        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_char_p
                    return fn().decode()
    except Exception:
        pass
    return "unknown"


def build_line() -> str:
    """The numeric build that literal bit pins depend on, as one line: the
    numpy version, its BLAS's name, version and run-time core, and whether
    numpy dispatches AVX-512 code on this CPU. Never raises; what this numpy
    cannot report reads "unknown" (before 1.26 it has no dict form of its
    build config)."""
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except Exception:
        config = {}
    try:
        dep = config["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except Exception:
        blas = "unknown"
    try:
        found = config["SIMD Extensions"]["found"]
    except Exception:
        try:  # the dispatch targets this CPU runs, where numpy 1.x keeps them
            from numpy.core import _multiarray_umath as umath

            found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
        except Exception:
            found = None
    avx512 = "unknown" if found is None else any("AVX512" in f or f == "X86_V4" for f in found)
    return f"numpy {np.__version__}, BLAS {blas} (core {_blas_core()}), AVX-512 dispatch {avx512}"


@pytest.fixture(scope="session")
def numeric_build() -> str:
    """`build_line()`, the message of an assertion against a literal bit pin."""
    return build_line()


def _balance_for(label: str) -> BalanceConfig:
    if label == "st_moe":
        return BalanceConfig(mechanism="st_moe", phi=None)
    if label == "none":
        return BalanceConfig(mechanism="none", phi=None, alpha=0.0)
    if label.startswith("freq:"):
        return BalanceConfig(
            mechanism="phi", phi=label[len("freq:"):], statistic="frequency"
        )
    return BalanceConfig(mechanism="phi", phi=label)


def run_labels() -> list[str]:
    labels = ["none", "st_moe", "freq:neg_shannon"]
    labels += [spec.token() for spec in default_catalog()]
    return labels


def _timed_run(run: tuple[str, int]):
    """(RunRecord, seconds) of one bank run, timed inside the process that runs it."""
    label, seed = run
    cfg = with_seed(TrainConfig(balance=_balance_for(label)), seed)
    started = time.perf_counter()
    record = train(cfg)
    return record, time.perf_counter() - started


@pytest.fixture(scope="session")
def run_bank():
    """{(label, seed): (RunRecord, seconds)} for every full-length run, in
    label-then-seed order. The runs are built across processes, one per
    usable core and no more than there are runs; a run's result does not
    depend on the process that runs it."""
    runs = [(label, seed) for label in run_labels() for seed in SEEDS]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ProcessPoolExecutor(max_workers=max(1, min(cores or 1, len(runs)))) as pool:
        return dict(zip(runs, pool.map(_timed_run, runs)))
