"""Sweep planning, CSV emission, and summaries.

A plan is a base config, one sweep axis, and a list of seeds. Every
(value, seed) combination becomes an independent run whose evaluation rows
land in one CSV named by the config hash. The summary is recomputed purely
from the CSV files, so it can always be regenerated after the fact.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .config import ConfigError, config_to_dict, with_seed
from .training import (
    BalanceConfig,
    EvalRow,
    NumericalError,
    RunRecord,
    TrainConfig,
    terminal_metrics,
    train,
)

__all__ = [
    "CSV_SCHEMA",
    "ExperimentPlan",
    "RunOutcome",
    "expand_plan",
    "config_digest",
    "run_csv_path",
    "write_run_csv",
    "read_run_csv",
    "run_plan",
    "summarize_runs",
]

CSV_SCHEMA_VERSION = 1
_HEADER = f"# phibal csv schema v{CSV_SCHEMA_VERSION}"
# The `EvalRow` fields a run CSV holds (all but ``m_hash``), each with the
# parser of its text; `write_run_csv` takes a row's cells by these names.
_ROW_FIELDS = {name: kind for name, kind in get_type_hints(EvalRow).items() if name != "m_hash"}
_row_cells = attrgetter(*_ROW_FIELDS)
# Column -> parser of its text: the row fields, then the config values
# `write_run_csv` appends.
_COLUMNS = {
    **_ROW_FIELDS,
    "mech": str,
    "phi": str,
    "eta": float,
    "batch": int,
    "seed": int,
}
CSV_SCHEMA = tuple(_COLUMNS)

# Sweep axis -> the base config with one value applied. A base whose
# mechanism is not ``phi`` holds no potential, so its ``phi`` run takes the
# default one.
_AXES = {
    "phi": lambda cfg, v: replace(cfg, balance=replace(cfg.balance, mechanism="phi", phi=v)),
    "eta": lambda cfg, v: replace(cfg, balance=replace(cfg.balance, eta=v)),
    "batch": lambda cfg, v: replace(cfg, batch_tokens=v),
    "mechanism": lambda cfg, v: replace(
        cfg, balance=replace(cfg.balance, mechanism=v, phi=cfg.balance.phi or BalanceConfig.phi)
    ),
    "statistic": lambda cfg, v: replace(cfg, balance=replace(cfg.balance, statistic=v)),
}


@dataclass(frozen=True)
class ExperimentPlan:
    base: TrainConfig
    axis: str
    values: tuple
    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise ConfigError(f"sweep axis must be one of {tuple(_AXES)}, got {self.axis!r}")
        if not self.values:
            raise ConfigError("sweep values must be non-empty")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        # A bad value, or two runs that would write one CSV, stops the sweep
        # before any run.
        seen: dict[str, str] = {}
        written = itertools.product(self.values, self.seeds)
        for (value, seed), (_, _, cfg) in zip(written, expand_plan(self)):
            run = f"value {value} seed {seed}"
            first = seen.setdefault(config_digest(cfg), run)
            if first is not run:  # an earlier run built this config
                raise ConfigError(f"sweep {self.axis} {first} and {run} build the same config")


@dataclass(frozen=True)
class RunOutcome:
    label: str
    seed: int
    csv_path: str | None
    error: str | None = None


def _apply_axis(plan: ExperimentPlan, value, seed: int) -> TrainConfig:
    try:
        return with_seed(_AXES[plan.axis](plan.base, value), seed)
    except ValueError as exc:
        raise ConfigError(f"sweep {plan.axis} value {value!r}: {exc}") from exc


def expand_plan(plan: ExperimentPlan) -> list[tuple[str, int, TrainConfig]]:
    """All (label, seed, config) combinations, in plan order. A run's label
    is the value its config holds, as its CSV writes it: ``lp:p=3.0`` is
    labelled ``lp:p=3``."""
    out = []
    for value, seed in itertools.product(plan.values, plan.seeds):
        cfg = _apply_axis(plan, value, seed)
        held = cfg.batch_tokens if plan.axis == "batch" else getattr(cfg.balance, plan.axis)
        out.append((str(held), seed, cfg))
    return out


def config_digest(cfg: TrainConfig) -> str:
    payload = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def run_csv_path(out_dir, cfg: TrainConfig) -> Path:
    return Path(out_dir) / f"run_{config_digest(cfg)}.csv"


# -- CSV ------------------------------------------------------------------------


def _own_temp(path: Path) -> Path:
    """A hidden name beside ``path`` that no other process or thread uses
    at the same time."""
    return path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")


@contextmanager
def _replacing(path: Path):
    """A temp file beside ``path``, renamed over it once the block has written
    it all: ``path`` is never left half written."""
    tmp = _own_temp(path)
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_run_csv(path, cfg: TrainConfig, record: RunRecord) -> None:
    """Write a run's rows in place of ``path``, which is then either absent
    or complete."""
    config = (cfg.balance.mechanism, cfg.balance.phi or "", cfg.balance.eta,
              cfg.batch_tokens, cfg.seed)
    with _replacing(Path(path)) as fh:
        fh.write(_HEADER + "\n")
        writer = csv.writer(fh)  # a float as str(), its shortest round-trip text
        writer.writerow(CSV_SCHEMA)
        for row in record.rows:
            writer.writerow([*_row_cells(row), *config])


def read_run_csv(path) -> list[dict]:
    """A run CSV's rows as dicts of parsed values. Another schema version, a
    row with a missing or extra cell and a cell its column cannot parse are
    refused with a `ConfigError` naming the file (and the line, the column
    and the cell)."""
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\r\n")
        if first != _HEADER:
            raise ConfigError(f"{path}: expected header {_HEADER!r}, found {first!r}")
        reader = csv.reader(fh)
        columns = next(reader, None)
        if tuple(columns or ()) != CSV_SCHEMA:
            raise ConfigError(f"{path}: unexpected columns {columns}")
        rows = []
        for cells in reader:
            if not cells:  # a blank line
                continue
            where = f"{path}: line {reader.line_num + 1}"  # line 1 is the version header
            if len(cells) > len(CSV_SCHEMA):
                extra = cells[len(CSV_SCHEMA)]
                raise ConfigError(f"{where}: extra cell {extra!r} after column {CSV_SCHEMA[-1]!r}")
            row = {}
            for i, (col, parse) in enumerate(_COLUMNS.items()):
                if i == len(cells):
                    raise ConfigError(f"{where}: column {col!r} has no cell")
                try:
                    row[col] = parse(cells[i])
                except ValueError:
                    raise ConfigError(
                        f"{where}: column {col!r} cell {cells[i]!r} does not parse as {parse.__name__}"
                    ) from None
            rows.append(row)
        return rows


# -- plan execution -----------------------------------------------------------------


def _output_dir(out_dir) -> Path:
    """``out_dir``, made with its parents and checked writable by a probe
    file; a `ConfigError` naming it if either fails (an existing file of that
    name, say), so a run can be refused before it trains."""
    out = Path(out_dir)
    probe = _own_temp(out / "write_probe")
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _run_one(job: tuple[str, int, TrainConfig, str]) -> RunOutcome:
    label, seed, cfg, out_dir = job
    path = run_csv_path(out_dir, cfg)
    try:
        record = train(cfg)
        write_run_csv(path, cfg, record)
        return RunOutcome(label=label, seed=seed, csv_path=str(path))
    except NumericalError as exc:
        return RunOutcome(label=label, seed=seed, csv_path=None, error=str(exc))
    except Exception as exc:  # a failed run must not abort its siblings
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return RunOutcome(label=label, seed=seed, csv_path=None, error=detail)


def run_plan(plan: ExperimentPlan, out_dir, jobs: int = 1) -> list[RunOutcome]:
    """Run every combination, write per-run CSVs and a Markdown summary.

    The output directory must be writable before any run starts. A failing
    run (a numerical abort or any other exception) becomes an error row in
    the summary and does not stop its siblings. Results keep plan order
    regardless of scheduling.
    """
    out = _output_dir(out_dir)
    job_inputs = [(label, seed, cfg, str(out)) for label, seed, cfg in expand_plan(plan)]
    if jobs > 1 and len(job_inputs) > 1:
        # Imported here: a serial sweep never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # No more workers than runs: the pool forks all of them at once.
        with ProcessPoolExecutor(max_workers=min(jobs, len(job_inputs))) as pool:
            outcomes = list(pool.map(_run_one, job_inputs))
    else:
        outcomes = [_run_one(job) for job in job_inputs]

    summary = summarize_runs(plan.axis, outcomes)
    with _replacing(out / "summary.md") as fh:
        fh.write(summary)
    return outcomes


# -- summaries ------------------------------------------------------------------------


def _mean_halfwidth(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    half = 1.96 * float(arr.std(ddof=1)) / arr.size**0.5
    return mean, half


def summarize_runs(axis: str, outcomes: list[RunOutcome]) -> str:
    """Markdown summary per sweep value: mean +/- 95% half-width over seeds.

    Derived entirely from the run CSVs so it can be recomputed offline.
    """
    by_label: dict[str, list[dict]] = {}  # terminal metrics; labels in first-seen order
    failures = []
    for oc in outcomes:
        metrics = by_label.setdefault(oc.label, [])
        if oc.error is not None:
            failures.append(f"- `{oc.label}` seed {oc.seed}: ERROR {oc.error}")
        else:
            metrics.append(terminal_metrics(read_run_csv(oc.csv_path)))

    groups = []
    for label, metrics in by_label.items():
        if metrics:
            mv_mean, mv_half = _mean_halfwidth([m["max_vio"] for m in metrics])
            loss_mean, loss_half = _mean_halfwidth([m["task_loss"] for m in metrics])
            acc_mean, _ = _mean_halfwidth([m["accuracy"] for m in metrics])
            groups.append((label, len(metrics), mv_mean, mv_half, loss_mean, loss_half, acc_mean))

    if axis == "phi":
        groups.sort(key=lambda g: g[2])

    lines = [
        f"# Sweep summary: axis `{axis}`",
        "",
        "| value | runs | terminal max_vio | terminal task_loss | terminal accuracy |",
        "|---|---|---|---|---|",
    ]
    for label, n, mv, mvh, loss, lossh, acc in groups:
        lines.append(
            f"| `{label}` | {n} | {mv:.4f} ± {mvh:.4f} | {loss:.4f} ± {lossh:.4f} | {acc:.4f} |"
        )
    if failures:
        lines += ["", "## Failed runs", ""] + failures
    lines.append("")
    return "\n".join(lines)
