"""Shared fixtures, including the session-wide bank of full-length runs.

The trend-level acceptance criteria need 2000-step runs across mechanisms,
potentials, statistics and seeds. They are computed once per session and
shared, with per-run wall times kept for the runtime criteria.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from phibal.config import with_seed
from phibal.potentials import default_catalog
from phibal.training import BalanceConfig, TrainConfig, train

SEEDS = (0, 1, 2)


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
