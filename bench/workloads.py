"""The four benchmark workloads.

Each workload is a closed loop run by one caller in one process: the next
unit of work starts only after the previous one returned, and sweeps run
with ``jobs=1``. A workload exposes

* ``build()``: import the phibal modules it uses and build its configs or
  plans from the seed. This is what ``setup_s`` times, in fresh processes.
* ``run(key)``: one unit of work on input ``key`` (``0 <= key < keys``). The
  benchmark times it; nothing else is timed.
* ``check(key, data)``: verify the unit's outputs; returns a ``UnitResult``.

The library is imported inside the methods, never at module level, so that
importing this file costs nothing and ``setup_s`` covers the import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class UnitResult:
    digest: str
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    final_task_loss: float = math.nan
    final_max_vio: float = math.nan
    layer: dict[str, float] = field(default_factory=dict)


def terminal_metrics(rows) -> tuple[float, float]:
    """(task loss, mean max_vio over layers) at the last eval step of CSV
    rows, as ``RunRecord.terminal_task_loss`` and ``terminal_max_vio`` define
    them."""
    last = max(r["step"] for r in rows)
    final = [r for r in rows if r["step"] == last]
    return final[-1]["task_loss"], math.fsum(r["max_vio"] for r in final) / len(final)


class Workload:
    """Defaults: one input, two units (so the second re-checks the first's
    digest), no warm-up, no extra checks."""

    keys = 1
    min_units = 2
    eval_every: int | None = None

    def warmup(self) -> None:
        pass

    def prepare(self, key: int) -> None:
        pass

    def extra_checks(self, digests: dict[int, str]) -> tuple[list[str], dict[str, float]]:
        return [], {}


def _trainer_op(trainer_cls) -> tuple:
    return (trainer_cls, "step", "training.step", lambda args: args[0].config.batch_tokens)


# -- training -------------------------------------------------------------------


class Train(Workload):
    """Repeated ``Trainer`` runs of one config, ``keys`` seeds derived from
    the workload seed. Re-running a seed must reproduce its digest."""

    def __init__(self, name, seed, out_dir, model, steps, eval_every, batch_tokens,
                 keys, min_units, warmup_steps, resume_check):
        self.name = name
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.model = model
        self.steps = steps
        self.eval_every = eval_every
        self.batch_tokens = batch_tokens
        self.keys = keys
        self.min_units = min_units
        self.warmup_steps = warmup_steps
        self.resume_check = resume_check
        self.ops_per_unit = steps

    def build(self) -> None:
        from phibal.config import with_seed
        from phibal.corpus import CorpusSpec
        from phibal.training import ModelConfig, TrainConfig, Trainer

        base = TrainConfig(
            model=ModelConfig(**self.model),
            corpus=CorpusSpec(n_domains=4, dim=self.model["dim"]),
            batch_tokens=self.batch_tokens,
            steps=self.steps,
            eval_every=self.eval_every,
        )
        self.configs = [with_seed(base, self.seed * self.keys + j) for j in range(self.keys)]
        self.Trainer = Trainer
        Trainer(self.configs[0])  # set-up covers building a Trainer, as every run does

    def op(self):
        return _trainer_op(self.Trainer)

    def warmup(self) -> None:
        from phibal.training import NumericalError

        trainer = self.Trainer(self.configs[0])
        try:
            for _ in range(self.warmup_steps):
                trainer.step()
        except NumericalError:
            pass  # the measured units report it

    def run(self, key: int):
        from phibal.training import NumericalError

        trainer = self.Trainer(self.configs[key])
        non_finite = 0
        try:
            for _ in range(trainer.config.steps):
                if not math.isfinite(trainer.step()):
                    non_finite += 1
        except NumericalError as exc:
            return trainer, non_finite, str(exc)
        return trainer, non_finite, None

    def check(self, key: int, data) -> UnitResult:
        trainer, non_finite, error = data
        attempted = trainer.step_index  # a failing step counts as attempted
        problems = []
        if error is not None:
            problems.append(f"seed {trainer.config.seed}: {error}")
        failed = non_finite + (1 if error is not None else 0)
        if non_finite:
            problems.append(f"seed {trainer.config.seed}: {non_finite} non-finite losses")
        record = trainer.record
        if not record.rows:
            return UnitResult(record.digest(), attempted, failed, problems)
        return UnitResult(record.digest(), attempted, failed, problems,
                          record.terminal_task_loss(), record.terminal_max_vio())

    def extra_checks(self, digests):
        """Resume from a mid-run snapshot file and compare with the
        uninterrupted digest of the same seed."""
        from phibal.training import NumericalError

        if not self.resume_check:
            return [], {}
        cfg = self.configs[0]
        path = self.out_dir / f"{self.name}_snapshot.json"
        try:
            trainer = self.Trainer(cfg)
            for _ in range(cfg.steps // 2):
                trainer.step()
            t0 = perf_counter()
            trainer.save_snapshot(path)
            t1 = perf_counter()
            resumed = self.Trainer.load_snapshot(cfg, path)
            t2 = perf_counter()
            size = path.stat().st_size
            path.unlink()
            while resumed.step_index < cfg.steps:
                resumed.step()
        except NumericalError as exc:
            return [f"seed {cfg.seed}: resume check: {exc}"], {}
        problems = []
        if resumed.record.digest() != digests[0]:
            problems.append(f"seed {cfg.seed}: resumed run digest differs from uninterrupted run")
        return problems, {
            "training.snapshot_ms": (t1 - t0) * 1e3,
            "training.restore_ms": (t2 - t1) * 1e3,
            "training.snapshot_bytes": float(size),
        }


# -- sweep ------------------------------------------------------------------------


class SweepGrid(Workload):
    """``phibal sweep`` run in-process on two plans: the nine-family ``phi``
    axis and the four-value ``mechanism`` axis, two seeds each."""

    steps = 50
    eval_every = 10
    ops_per_unit = 13 * 2 * 50

    def __init__(self, name, seed, out_dir):
        self.name = name
        self.seed = seed
        self.out_dir = Path(out_dir) / name

    def build(self) -> None:
        import yaml

        from phibal import cli
        from phibal.config import parse_config
        from phibal.potentials import default_catalog
        from phibal.training import Trainer

        seeds = [2 * self.seed, 2 * self.seed + 1]
        axes = {
            "phi": [spec.token() for spec in default_catalog()],
            "mechanism": ["phi", "st_moe", "loss_free", "none"],
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.plans = {}
        for axis, values in axes.items():
            path = self.out_dir / f"plan_{axis}.yaml"
            raw = {
                "corpus": {"domains": 4},
                "train": {"steps": self.steps, "eval_every": self.eval_every},
                "sweep": {"axis": axis, "values": values, "seeds": seeds},
            }
            path.write_text(yaml.safe_dump(raw, sort_keys=True))
            self.plans[axis] = (path, parse_config(path))
        self.cli = cli
        self.Trainer = Trainer

    def op(self):
        return _trainer_op(self.Trainer)

    def prepare(self, key: int) -> None:
        for axis in self.plans:
            shutil.rmtree(self.out_dir / axis, ignore_errors=True)

    def run(self, key: int):
        codes = {}
        for axis, (path, _) in self.plans.items():
            with contextlib.redirect_stdout(io.StringIO()):
                codes[axis] = self.cli.main(
                    ["sweep", "--config", str(path), "--out", str(self.out_dir / axis)]
                )
        return codes

    def check(self, key: int, codes) -> UnitResult:
        from phibal.experiments import RunOutcome, config_digest, expand_plan, read_run_csv, summarize_runs

        problems = []
        digest = hashlib.sha256()
        attempted = failed = 0
        losses, vios = [], []
        for axis, (_, plan) in self.plans.items():
            out = self.out_dir / axis
            if codes[axis] != 0:
                problems.append(f"sweep {axis}: exit code {codes[axis]}")
            outcomes = []
            for label, seed, cfg in expand_plan(plan):
                attempted += 1
                path = out / f"run_{config_digest(cfg)}.csv"
                outcomes.append(RunOutcome(label=label, seed=seed, csv_path=str(path)))
                if not path.is_file():
                    failed += 1
                    problems.append(f"sweep {axis}: no CSV for {label} seed {seed}")
                    continue
                rows = read_run_csv(path)
                expected = (cfg.steps // cfg.eval_every) * cfg.model.layers
                if len(rows) != expected:
                    failed += 1
                    problems.append(f"sweep {axis}: {path.name} has {len(rows)} rows, not {expected}")
                    continue
                loss, vio = terminal_metrics(rows)
                losses.append(loss)
                vios.append(vio)
                digest.update(path.read_bytes())
            summary_path = out / "summary.md"
            summary = summary_path.read_text() if summary_path.is_file() else ""
            if "## Failed runs" in summary:
                problems.append(f"sweep {axis}: summary lists failed runs")
            if not problems and summarize_runs(plan.axis, outcomes) != summary:
                problems.append(f"sweep {axis}: summary.md differs from summarize_runs over the CSVs")
            digest.update(summary.encode())
        return UnitResult(
            digest.hexdigest(),
            attempted,
            failed,
            problems,
            _mean(losses),
            _mean(vios),
        )


# -- check suites ------------------------------------------------------------------


GRAD_INSTANCES = 5
# Instances behind final_task_loss / final_max_vio; the suite checks the first
# five. Their losses are heavy-tailed, so final_task_loss is their median; with
# 400 its spread between workload seeds is about 4 %.
FINGERPRINT_INSTANCES = 400


class CheckSuites(Workload):
    """The four ``phibal check`` suites, each called with the workload seed.

    The closed-loop op is ``MoeStack.forward``: the gradient suite's finite
    differences evaluate the model thousands of times per pass."""

    # A floor for the tail percentile: one pass makes 8945 forward calls today.
    ops_per_unit = 8000

    def __init__(self, name, seed, out_dir):
        self.name = name
        self.seed = seed
        self._fingerprint = None

    def build(self) -> None:
        from phibal import checks
        from phibal.training import MoeStack

        self.checks = checks
        self.MoeStack = MoeStack

    def op(self):
        return (self.MoeStack, "forward", "moe.stack", lambda args: args[1].shape[0])

    def run(self, key: int):
        checks = self.checks
        calls = {
            "uniform_minimizer": lambda: checks.check_uniform_minimizer(seed=self.seed),
            "duality": lambda: checks.check_duality(seed=self.seed),
            "mirror_step": lambda: checks.check_mirror_step(seed=self.seed),
            "gradients": lambda: checks.check_gradients(instances=GRAD_INSTANCES, seed=self.seed),
        }
        results, seconds = [], {}
        for suite, call in calls.items():
            t0 = perf_counter()
            results.append(call())
            seconds[suite] = perf_counter() - t0
        return results, seconds

    def check(self, key: int, data) -> UnitResult:
        from phibal.metrics import max_vio
        from phibal.training import cross_entropy

        results, seconds = data
        problems = [f"suite {r.name} failed: {r.detail}" for r in results if not r.passed]
        digest = hashlib.sha256(repr([(r.name, r.passed, r.detail) for r in results]).encode())
        if self._fingerprint is None:
            # Behaviour of the model the gradient suite checks: task loss and
            # routed balance of its instances, computed outside the timed pass
            # and once per run, as every unit checks the same instances.
            losses, vios = [], []
            for idx in range(FINGERPRINT_INSTANCES):
                stack, x, labels = self.checks.build_gradcheck_instance(self.seed * 1000 + idx)
                logits, routings = stack.forward(x, [None] * len(stack.layers))
                losses.append(float(cross_entropy(logits, labels).value))
                vios += [max_vio(r.counts) for r in routings]
            self._fingerprint = statistics.median(losses), _mean(vios)
        return UnitResult(
            digest.hexdigest(),
            len(results),
            len(problems),
            problems,
            *self._fingerprint,
            {f"checks.{suite}_s": s for suite, s in seconds.items()},
        )


def _mean(values) -> float:
    return math.fsum(values) / len(values) if values else math.nan


# -- registry ----------------------------------------------------------------------


WORKLOADS = ("train_small", "train_wide", "sweep_grid", "check_suites")


def make(name: str, seed: int, out_dir):
    if name == "train_small":
        # The acceptance config; 400 steps keep eval steps at exactly 1 %.
        return Train(
            name, seed, out_dir,
            model=dict(layers=2, experts=8, top_k=2, dim=16, ffn_dim=32),
            steps=400, eval_every=100, batch_tokens=64,
            keys=5, min_units=6, warmup_steps=20, resume_check=True,
        )
    if name == "train_wide":
        return Train(
            name, seed, out_dir,
            model=dict(layers=2, experts=64, top_k=4, dim=64, ffn_dim=128),
            steps=16, eval_every=16, batch_tokens=1024,
            keys=2, min_units=3, warmup_steps=2, resume_check=False,
        )
    if name == "sweep_grid":
        return SweepGrid(name, seed, out_dir)
    if name == "check_suites":
        return CheckSuites(name, seed, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
