#!/usr/bin/env python3
"""phibal benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py                                  # every workload, fresh process each
    python3 bench/run.py --workload train_small --seed 3 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line is a JSON object whose ``metrics``
are the ``end_to_end`` metrics listed in BENCHMARK.json; with ``--trace 1``
they are the ``per_layer`` metrics, taken from a run whose units alternate
untraced and traced. Every metric, the environment and the correctness
checks are also printed above that line, one per line, and written to
``.bench_out/``. Times are calibrated to a fixed reference CPU speed
(``calibrate.py``); the uncalibrated ones are printed too. See
bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: with the default pool of two on a
# two-core machine, step times spread far wider than the bounds allow.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
# step_ms_tail is taken in each block of this many consecutive ops and
# averaged over the blocks: a tail over the whole run moves with the count of
# rare pauses in it, and its percentile would change with the run's length.
TAIL_BLOCK_OPS = 200
CHECK_METRICS = tuple(f"checks.{s}_s" for s in ("uniform_minimizer", "duality", "mirror_step", "gradients"))
SNAPSHOT_METRICS = ("training.snapshot_ms", "training.restore_ms", "training.snapshot_bytes")
SETUP_TIMEOUT_S = 60
WORKLOAD_TIMEOUT_S = 900

# Highest-first; a tail percentile must leave at least ten ops beyond it.
TAIL_LADDER = (99.9, 99.5, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(min_ops: int, eval_every: int | None) -> float:
    """Highest ladder percentile with >= 10 ops beyond it in a block of
    ``min_ops`` and more than the eval-step share beyond it, so that it sits
    among ordinary steps: eval steps slow down across host speed states by a
    different factor than ordinary ones, and a percentile on or inside their
    share jumps between the two populations (``training.eval_ms`` reports
    them)."""
    eval_share = 100.0 / eval_every if eval_every else 0.0
    for p in TAIL_LADDER:
        if min_ops * (100.0 - p) / 100.0 >= 10 and (100.0 - p) > eval_share:
            return p
    raise ValueError(f"{min_ops} ops are too few for a tail percentile")


# -- environment -----------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _blas_threads(numpy) -> int | str:
    """Ask the loaded OpenBLAS for its pool size; numpy wheels bundle it."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "phibal").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- set-up time ------------------------------------------------------------------

_SETUP_PROBE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from calibrate import SpeedProbe
probe = SpeedProbe()  # imports numpy, which the reference chunk uses
with probe.running():
    t0 = probe.clock()
    import workloads
    workloads.make({name!r}, {seed!r}, {out!r}).build()
    t1 = probe.clock()
ref = probe.to_reference([t0, t1])
print(ref[1] - ref[0], t1 - t0)
"""


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Import phibal and build the workload, each time in a fresh interpreter:
    (calibrated seconds, raw seconds) per sample. numpy is already loaded when
    the timer starts, as the speed probe needs it."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed,
                               out=str(OUT / "setup"))
    calibrated, raw = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=SETUP_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed:\n{out.stderr}")
        ref_s, raw_s = out.stdout.strip().splitlines()[-1].split()
        calibrated.append(float(ref_s))
        raw.append(float(raw_s))
    return calibrated, raw


# -- the measured loop -------------------------------------------------------------


def span_targets(op_owner, op_attr) -> list[tuple]:
    """Public entry points of each layer, as the code that calls them looks
    them up (a ``from x import f`` binding is patched where it is used)."""
    from phibal import autodiff, balancer, checks, cli, experiments, moe, potentials, training

    targets = [
        (training, "sample_batch", "corpus.sample"),
        (training.MoeStack, "forward", "moe.stack"),
        (moe.MoeLayer, "route", "moe.route"),
        (moe.MoeLayer, "forward", "moe.experts"),
        (training, "cross_entropy", "training.task_loss"),
        (checks, "cross_entropy", "training.task_loss"),
        (training, "total_loss", "balancer.total_loss"),
        (checks, "total_loss", "balancer.total_loss"),
        (balancer, "stmoe_aux_loss", "balancer.stmoe_aux_loss"),
        (checks, "stmoe_aux_loss", "balancer.stmoe_aux_loss"),
        (potentials, "link", "potentials.link"),
        (checks, "link", "potentials.link"),
        (checks, "conjugate_value", lambda a: f"potentials.conjugate.{a[0].family}"),
        (checks, "inverse_link", lambda a: f"potentials.inverse_link.{a[0].family}"),
        (autodiff.Node, "backward", "autodiff.backward"),
        (training.Optimizer, "step", "training.optimizer"),
        (training.Trainer, "evaluate", "training.eval"),
        (training, "max_vio", "metrics.max_vio"),
        (training, "gini", "metrics.gini"),
        (experiments, "train", "experiments.train"),
        (experiments, "write_run_csv", "experiments.csv_write"),
        (experiments, "summarize_runs", "experiments.summary"),
        (cli, "parse_config", "config.parse"),
    ]
    for method in ("pick_statistic", "ema_update", "aux_loss", "phi_aux_loss", "loss_free_step"):
        targets.append((balancer.BalancerState, method, f"balancer.{method}"))
    return [t for t in targets if (t[0], t[1]) != (op_owner, op_attr)]


def measure(w, seconds: float, trace: bool) -> dict:
    """Run units until ``seconds`` have passed (at least ``min_units``). In a
    traced run, even units are untraced and odd ones traced, on the same input,
    so each pair compares digests and throughput. Times are read from the
    speed probe's clock and calibrated once the run is over."""
    from calibrate import SpeedProbe
    from tracer import Tracer

    from phibal.autodiff import constant

    op = w.op()
    targets = span_targets(op[0], op[1]) if trace else []
    probe = SpeedProbe()
    tracer = Tracer(op, targets, lambda: constant(0.0).uid, probe)
    min_units = max(w.min_units, 2 * w.keys) if trace else w.min_units
    units = []
    with probe.running():
        w.warmup()
        started = perf_counter()
        i = 0
        while True:
            if i >= min_units and (not trace or i % 2 == 0):
                typical = statistics.median(u["wall"] for u in units)
                if perf_counter() - started + typical > seconds:
                    break
            key = (i // 2 if trace else i) % w.keys
            traced = trace and i % 2 == 1
            w.prepare(key)
            gc.collect()  # every unit starts from the same collected heap
            first_op = len(tracer.ops)
            with tracer.installed(i, traced):
                t0 = probe.clock()
                data = w.run(key)
                t1 = probe.clock()
            units.append({"key": key, "traced": traced, "span": (t0, t1), "wall": t1 - t0,
                          "ops": tracer.ops[first_op:], "result": w.check(key, data)})
            i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for u in units:
        ref = probe.to_reference([*u["span"], *(t for o in u["ops"] for t in o[:2])])
        u["ref_wall"] = float(ref[1] - ref[0])
        u["ref_op_s"] = (ref[3::2] - ref[2::2]).tolist()
        u["raw_op_s"] = [o[1] - o[0] for o in u["ops"]]
        u["tokens"] = sum(o[2] for o in u["ops"])
    return {"units": units, "tracer": tracer, "peak_rss_mb": rss_mb, "speed": probe.summary()}


def summarize(w, run: dict, setup: tuple[list[float], list[float]], trace: bool):
    """Metrics, failed checks, ops attempted and failed, and run facts."""
    units, tracer = run["units"], run["tracer"]
    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    problems: list[str] = []
    digests: dict[int, str] = {}
    for u in units:
        res = u["result"]
        problems += res.problems
        first = digests.setdefault(u["key"], res.digest)
        if res.digest != first:
            kind = "traced" if u["traced"] else "re-run"
            problems.append(f"input {u['key']}: {kind} digest differs from the first run")
    extra_problems, extra_layer = w.extra_checks(digests)
    problems += extra_problems
    attempted = sum(u["result"].attempted for u in units)
    failed = sum(u["result"].failed for u in units)

    firsts = {}
    for u in units:
        firsts.setdefault(u["key"], u["result"])
    op_ms = [d * 1e3 for u in plain for d in u["ref_op_s"]]
    raw_op_ms = [d * 1e3 for u in plain for d in u["raw_op_s"]]
    tail_block = min(TAIL_BLOCK_OPS, w.min_units * w.ops_per_unit)
    pct = tail_percentile(tail_block, w.eval_every)
    if not trace and len(op_ms) < tail_block:
        problems.append(f"only {len(op_ms)} ops: fewer than 10 beyond p{pct}")

    def tps(us, wall="ref_wall"):
        return sum(u["tokens"] for u in us) / sum(u[wall] for u in us)

    m = {
        "setup_s": statistics.median(setup[0]),
        "run_s": statistics.fmean(u["ref_wall"] for u in plain),
        "tokens_per_s": tps(plain),
        "step_ms_p50": statistics.median(op_ms),
        "step_ms_tail": _blocked_percentile(op_ms, tail_block, pct),
        "peak_rss_mb": run["peak_rss_mb"],
        "final_task_loss": _mean(r.final_task_loss for r in firsts.values()),
        "final_max_vio": _mean(r.final_max_vio for r in firsts.values()),
        "error_rate": failed / attempted if attempted else 1.0,
    }
    for name in {k for u in plain for k in u["result"].layer}:
        m[name] = statistics.median(u["result"].layer[name] for u in plain)
    m.update(extra_layer)
    # Layers a workload never calls read zero.
    for name in (*CHECK_METRICS, *SNAPSHOT_METRICS):
        m.setdefault(name, 0.0)
    raw = {
        "setup_s": statistics.median(setup[1]),
        "run_s": statistics.fmean(u["wall"] for u in plain),
        "tokens_per_s": tps(plain, "wall"),
        "step_ms_p50": statistics.median(raw_op_ms),
        "step_ms_tail": _blocked_percentile(raw_op_ms, tail_block, pct),
    }
    info = {"tail_percentile": pct, "ops_measured": len(op_ms), "units": len(plain),
            "unit_walls_s": [round(u["wall"], 4) for u in plain],
            "uncalibrated": raw, "host_speed": run["speed"], "digests": digests}
    if trace:
        m.update(layer_metrics(tracer, traced))
        m["trace.overhead"] = 1.0 - tps(traced) / tps(plain)
        info["traced_units"] = len(traced)
        info["spans"] = len(tracer.spans)
    return m, problems, attempted, failed, info


def layer_metrics(tracer, traced_units) -> dict:
    from phibal.potentials import FAMILIES

    self_s, incl_s, calls, coverage = tracer.totals()
    n_ops = sum(len(u["ops"]) for u in traced_units)

    def per_op_ms(*names):
        return sum(self_s.get(n, 0.0) for n in names) * 1e3 / n_ops

    def per_call(names, scale):
        n = sum(calls.get(x, 0) for x in names)
        return sum(incl_s.get(x, 0.0) for x in names) * scale / n if n else 0.0

    balancer = [n for n in self_s if n.startswith("balancer.")]
    m = {
        "moe.route_ms": per_op_ms("moe.route"),
        "moe.experts_ms": per_op_ms("moe.experts"),
        "moe.stack_ms": per_op_ms("moe.stack"),
        "autodiff.backward_ms": per_op_ms("autodiff.backward"),
        "autodiff.nodes_per_step": _mean(tracer.nodes),
        "training.optimizer_ms": per_op_ms("training.optimizer"),
        "training.task_loss_ms": per_op_ms("training.task_loss"),
        "corpus.sample_ms": per_op_ms("corpus.sample"),
        "balancer.ms": per_op_ms(*balancer),
        "python.gc_ms": per_op_ms("python.gc"),
        "training.step_self_ms": per_op_ms("training.step"),
        "trace.coverage": coverage,
        "training.eval_ms": per_call(["training.eval"], 1e3),
        "metrics.ms": per_call(["metrics.max_vio", "metrics.gini"], 1e3),
        "potentials.link_us": per_call(["potentials.link"], 1e6),
        "potentials.link_calls": calls.get("potentials.link", 0) / n_ops,
        "experiments.train_ms": per_call(["experiments.train"], 1e3),
        "experiments.csv_write_ms": per_call(["experiments.csv_write"], 1e3),
        "experiments.summary_ms": per_call(["experiments.summary"], 1e3),
        "config.parse_ms": per_call(["config.parse"], 1e3),
    }
    for fam in FAMILIES:
        m[f"potentials.conjugate_ms.{fam}"] = per_call([f"potentials.conjugate.{fam}"], 1e3)
        m[f"potentials.inverse_link_ms.{fam}"] = per_call([f"potentials.inverse_link.{fam}"], 1e3)
    return m


def _blocked_percentile(values: list[float], block: int, p: float) -> float:
    """Mean over consecutive blocks of at least ``block`` values of each
    block's ``p``-th percentile."""
    import numpy

    if len(values) < block:
        return math.nan
    parts = numpy.array_split(numpy.asarray(values), len(values) // block)
    return statistics.fmean(float(numpy.percentile(part, p)) for part in parts)


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _mean(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return math.fsum(values) / len(values) if values else math.nan


# -- one workload ------------------------------------------------------------------


def declared_metrics() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import phibal

    if Path(phibal.__file__).resolve().parent != SRC / "phibal":
        print(f"error: imported phibal from {phibal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    OUT.mkdir(exist_ok=True)
    w = workloads.make(args.workload, args.seed, OUT)
    setup = setup_seconds(args.workload, args.seed)
    w.build()
    run = measure(w, args.seconds, bool(args.trace))
    metrics, problems, attempted, failed, info = summarize(w, run, setup, bool(args.trace))
    env = environment()

    section = "per_layer" if args.trace else "end_to_end"
    missing = [d["name"] for d in declared[section] if d["name"] not in metrics]
    if missing:
        problems.append(f"metrics not computed: {', '.join(missing)}")
    units = {d["name"]: d["unit"] for sec in declared.values() for d in sec}
    for key, value in env.items():
        print(f"env {key}: {value}")
    for key, value in info.items():
        if key != "digests":
            print(f"info {key}: {value}")
    for key, digest in info["digests"].items():
        print(f"digest input {key}: {digest}")
    for name in sorted(metrics):
        print(f"metric {name}: {metrics[name]!r} {units.get(name, '')}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"correct: {not problems}  attempted: {attempted}  failed: {failed}")

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        (OUT / "traces").mkdir(exist_ok=True)
        run["tracer"].write(OUT / "traces" / f"{tag}.jsonl")
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, "info": info,
         "metrics": metrics, "problems": problems}, indent=1, default=str))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            d["name"]: {"value": _finite_or_none(metrics.get(d["name"], math.nan)),
                        "unit": d["unit"]}
            for d in declared[section]
        },
    }
    print(json.dumps(result))
    return 0


# -- every workload ------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=WORKLOAD_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with {child.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phibal" / "__init__.py").is_file():
        print(f"error: no phibal sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
