import concurrent.futures
import csv
import multiprocessing
import re
import sys
import textwrap
import threading
from pathlib import Path

import pytest
import yaml

from conftest import assert_split_across_threads, record_group_threads

from phibal import autodiff, experiments
from phibal.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from phibal.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    parse_config,
    plan_from_dict,
    with_seed,
)
from phibal.experiments import (
    CSV_SCHEMA,
    ExperimentPlan,
    RunOutcome,
    config_digest,
    expand_plan,
    read_run_csv,
    run_plan,
    summarize_runs,
    write_run_csv,
)
from phibal.corpus import CorpusSpec
from phibal.potentials import DomainError
from phibal.training import (
    BalanceConfig,
    EvalRow,
    ModelConfig,
    NumericalError,
    RunRecord,
    TrainConfig,
    Trainer,
    train,
)

TINY = textwrap.dedent(
    """
    model: {layers: 1, experts: 4, top_k: 2, dim: 6, ffn_dim: 8}
    balance: {mechanism: phi, phi: neg_shannon, eta: 0.7, alpha: 0.01}
    corpus: {domains: 3, cluster_scale: 0.4, seed: 0}
    train: {batch_tokens: 16, steps: 30, eval_every: 10, eval_tokens: 64, seed: 0, load_window: 20}
    """
)


def write_tiny_config(tmp_path, extra: str = "") -> str:
    path = tmp_path / "run.yaml"
    path.write_text(TINY + extra)
    return str(path)


def write_tiny_plan(tmp_path, axis="phi", values=("neg_shannon", "euclidean"),
                    seeds=(0, 1)) -> str:
    raw = yaml.safe_load(TINY)
    raw["sweep"] = {"axis": axis, "values": list(values), "seeds": list(seeds)}
    path = tmp_path / "plan.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


# -- config parsing -----------------------------------------------------------------


def test_parse_run_config(tmp_path):
    cfg = parse_config(write_tiny_config(tmp_path))
    assert isinstance(cfg, TrainConfig)
    assert cfg.model.experts == 4
    assert cfg.balance.phi == "neg_shannon"
    assert cfg.corpus.n_domains == 3


def test_phi_token_pins(tmp_path):
    cfg = parse_config(write_tiny_config(tmp_path))
    assert cfg.balance.potential().family == "neg_shannon"

    raw = yaml.safe_load(TINY)
    raw["balance"]["phi"] = "lp:p=inf"
    import math

    cfg = config_from_dict(raw)
    assert math.isinf(cfg.balance.potential().p)

    raw["balance"]["phi"] = "tsallis:alpha=1.0"
    with pytest.raises(ConfigError):
        config_from_dict(raw)


def test_unknown_keys_rejected_with_context():
    raw = yaml.safe_load(TINY)
    raw["model"]["n_heads"] = 4
    with pytest.raises(ConfigError, match="n_heads.*model"):
        config_from_dict(raw)
    raw = yaml.safe_load(TINY)
    raw["extras"] = {}
    with pytest.raises(ConfigError, match="extras"):
        config_from_dict(raw)


@pytest.mark.parametrize("body", ["sweep\n", "5\n"])
def test_scalar_config_root_is_a_config_error(tmp_path, capsys, body):
    path = tmp_path / "root.yaml"
    path.write_text(body)
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        parse_config(path)
    sweep = ["sweep", "--config", str(path), "--out", str(tmp_path / "s")]
    for argv in (["run", "--config", str(path)], sweep):
        assert main(argv) == EXIT_CONFIG
        assert "config error: config root must be a mapping" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.yaml")


def test_config_round_trip_is_stable():
    raw = yaml.safe_load(TINY)
    cfg = config_from_dict(raw)
    once = config_to_dict(cfg)
    again = config_to_dict(config_from_dict(once))
    assert once == again
    assert yaml.safe_dump(once) == yaml.safe_dump(again)


def test_parse_plan(tmp_path):
    plan = parse_config(write_tiny_plan(tmp_path))
    assert isinstance(plan, ExperimentPlan)
    assert plan.axis == "phi"
    assert plan.seeds == (0, 1)


def test_plan_rejects_empty_values(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_tiny_plan(tmp_path, values=()))


def test_plan_rejects_unknown_axis(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_tiny_plan(tmp_path, axis="temperature"))


@pytest.mark.parametrize("key, value", [("values", "euclidean"), ("seeds", 3)])
def test_plan_rejects_values_and_seeds_that_are_not_lists(tmp_path, key, value):
    path = Path(write_tiny_plan(tmp_path))
    raw = yaml.safe_load(path.read_text())
    raw["sweep"][key] = value
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=key):
        parse_config(path)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("seed", [[1], "a", 1.5, True, -1])
def test_plan_rejects_seeds_that_are_not_integers(tmp_path, seed):
    path = Path(write_tiny_plan(tmp_path))
    raw = yaml.safe_load(path.read_text())
    raw["sweep"]["seeds"] = [0, seed]
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(path)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "text",
    ["train: {steps: 10, eval_every: 5}\n", "corpus: {cluster_scale: 0.3}\n"],
    ids=["train_only", "corpus_only"],
)
def test_config_without_domains_uses_the_default_corpus(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    cfg = parse_config(path)
    assert cfg.corpus.n_domains == TrainConfig().corpus.n_domains
    assert cfg.corpus.dim == cfg.model.dim


# -- plan expansion and CSVs ----------------------------------------------------------


def test_expand_plan_covers_grid(tmp_path):
    plan = parse_config(write_tiny_plan(tmp_path))
    combos = expand_plan(plan)
    assert len(combos) == 4
    labels = {(label, seed) for label, seed, _ in combos}
    assert labels == {
        ("neg_shannon", 0),
        ("neg_shannon", 1),
        ("euclidean", 0),
        ("euclidean", 1),
    }
    for _, seed, cfg in combos:
        assert cfg.seed == seed and cfg.corpus.seed == seed


def test_mechanism_and_statistic_axes(tmp_path):
    plan = parse_config(
        write_tiny_plan(tmp_path, axis="mechanism", values=("st_moe", "none"), seeds=(0,))
    )
    combos = expand_plan(plan)
    assert combos[0][2].balance.mechanism == "st_moe"
    assert combos[1][2].balance.mechanism == "none"

    plan = parse_config(
        write_tiny_plan(
            tmp_path, axis="statistic", values=("probability", "frequency"), seeds=(0,)
        )
    )
    for _, _, cfg in expand_plan(plan):
        assert cfg.balance.statistic in ("probability", "frequency")


def test_run_is_labelled_by_the_value_its_config_holds(tmp_path):
    # Labelled as written, the summary row read lp:p=3.0 and the CSV lp:p=3.
    plan = parse_config(write_tiny_plan(tmp_path, values=("lp:p=3.0",), seeds=(0,)))
    ((label, _, cfg),) = expand_plan(plan)
    assert label == cfg.balance.phi == "lp:p=3"
    out = tmp_path / "out"
    (outcome,) = run_plan(plan, out)
    assert {row["phi"] for row in read_run_csv(outcome.csv_path)} == {label}
    assert "| `lp:p=3` |" in (out / "summary.md").read_text()


def test_a_potential_under_another_mechanism_is_not_part_of_the_config():
    # Both train alike; keeping phi gave them two digests, so two CSV names.
    default = TrainConfig(balance=BalanceConfig(mechanism="st_moe"))
    without = TrainConfig(balance=BalanceConfig(mechanism="st_moe", phi=None))
    assert default.balance.phi is None
    assert config_digest(default) == config_digest(without)
    with pytest.raises(ValueError):  # the token is still checked
        BalanceConfig(mechanism="st_moe", phi="lp:p=1")


def test_mechanism_axis_from_a_base_without_a_potential_runs_the_default():
    raw = yaml.safe_load(TINY)
    raw["balance"]["mechanism"] = "st_moe"
    raw["sweep"] = {"axis": "mechanism", "values": ["phi", "st_moe"], "seeds": [0]}
    (phi_label, _, phi_cfg), (st_label, _, st_cfg) = expand_plan(plan_from_dict(raw))
    assert (phi_label, phi_cfg.balance.phi) == ("phi", BalanceConfig().phi)
    assert (st_label, st_cfg.balance.phi) == ("st_moe", None)


def test_csv_round_trip(tmp_path):
    cfg = with_seed(parse_config(write_tiny_config(tmp_path)), 0)
    record = train(cfg)
    path = tmp_path / "run.csv"
    write_run_csv(path, cfg, record)
    rows = read_run_csv(path)
    assert len(rows) == len(record.rows)
    assert rows[0]["mech"] == "phi"
    assert rows[0]["phi"] == "neg_shannon"
    assert rows[-1]["task_loss"] == record.rows[-1].task_loss  # exact repr round trip
    with open(path) as fh:
        header = fh.readline()
        assert header.startswith("#")
        columns = tuple(fh.readline().strip().split(","))
    assert columns == CSV_SCHEMA


def test_csv_of_another_schema_version_is_refused(tmp_path):
    # Accepted, any first line starting with "#" read as v1.
    cfg = TrainConfig(seed=0)
    path = tmp_path / "run.csv"
    write_run_csv(path, cfg, RunRecord([EvalRow(10, 0, 1.0, 0.5, 0.25, 0.125, "0" * 16)]))
    assert read_run_csv(path)[0]["max_vio"] == 0.25
    path.write_text(path.read_text().replace("schema v1", "schema v2"))
    with pytest.raises(ConfigError, match=r"run\.csv: expected header .* found '# phibal csv schema v2'"):
        read_run_csv(path)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda row: "10,0,", r"line 4: column 'task_loss' cell '' does not parse as float"),
        (lambda row: "10,0", r"line 4: column 'task_loss' has no cell"),
        (lambda row: row + ",7", r"line 4: extra cell '7' after column 'seed'"),
        (lambda row: "ten" + row[2:], r"line 4: column 'step' cell 'ten' does not parse as int"),
    ],
    ids=["empty-cell", "short-row", "extra-cell", "bad-int"],
)
def test_csv_with_a_malformed_row_is_refused(tmp_path, edit, message):
    cfg = TrainConfig(seed=0)
    path = tmp_path / "run.csv"
    row = EvalRow(10, 0, 1.0, 0.5, 0.25, 0.125, "0" * 16)
    write_run_csv(path, cfg, RunRecord([row, row._replace(layer=1)]))
    lines = path.read_text().splitlines()
    assert len(read_run_csv(path)) == 2
    lines[3] = edit(lines[3])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"run\.csv: " + message):
        read_run_csv(path)


def _hand_built_run(tmp_path, seed, final_loss, final_vios):
    """A run CSV of two eval steps x two layers, written without training."""
    cfg = TrainConfig(
        balance=BalanceConfig(phi="lp:p=3", eta=0.5), batch_tokens=32, seed=seed
    )
    nan = float("nan")
    record = RunRecord([
        EvalRow(10, 0, 1.25, nan, 0.5, 0.125, "a" * 16),
        EvalRow(10, 1, 1.25, nan, 0.25, 0.0625, "b" * 16),
        EvalRow(20, 0, final_loss, nan, final_vios[0], 0.25, "c" * 16),
        EvalRow(20, 1, final_loss, nan, final_vios[1], 0.375, "d" * 16),
    ])
    path = tmp_path / f"run_{seed}.csv"
    write_run_csv(path, cfg, record)
    return RunOutcome(label=cfg.balance.phi, seed=seed, csv_path=str(path))


def test_csv_and_summary_text_are_pinned(tmp_path):
    # The exact bytes a run CSV and summary.md hold, from hand-built rows:
    # m_hash stays out, a float is its shortest round-trip text, nan is "nan".
    first = _hand_built_run(tmp_path, 0, 0.1 + 0.2, (0.75, 0.5))
    second = _hand_built_run(tmp_path, 1, 0.5, (0.375, 0.125))
    assert Path(first.csv_path).read_bytes().decode() == textwrap.dedent(
        """\
        # phibal csv schema v1
        step,layer,task_loss,accuracy,max_vio,gini,mech,phi,eta,batch,seed\r
        10,0,1.25,nan,0.5,0.125,phi,lp:p=3,0.5,32,0\r
        10,1,1.25,nan,0.25,0.0625,phi,lp:p=3,0.5,32,0\r
        20,0,0.30000000000000004,nan,0.75,0.25,phi,lp:p=3,0.5,32,0\r
        20,1,0.30000000000000004,nan,0.5,0.375,phi,lp:p=3,0.5,32,0\r
        """
    )
    failed = RunOutcome(label="euclidean", seed=0, csv_path=None, error="non-finite loss at step 5")
    # max_vio: seeds 0.625 and 0.25; task_loss: 0.3 and 0.5; half-width 1.96 * sd / sqrt(2).
    assert summarize_runs("phi", [first, failed, second]) == textwrap.dedent(
        """\
        # Sweep summary: axis `phi`

        | value | runs | terminal max_vio | terminal task_loss | terminal accuracy |
        |---|---|---|---|---|
        | `lp:p=3` | 2 | 0.4375 ± 0.3675 | 0.4000 ± 0.1960 | nan |

        ## Failed runs

        - `euclidean` seed 0: ERROR non-finite loss at step 5
        """
    )


def test_csv_write_failure_leaves_no_file(tmp_path, monkeypatch):
    cfg = with_seed(parse_config(write_tiny_config(tmp_path)), 0)
    record = train(cfg)
    real_writer = csv.writer

    class FailsOnThirdRow:
        def __init__(self, fh):
            self.fh, self.inner, self.rows = fh, real_writer(fh), 0

        def writerow(self, row):
            self.rows += 1
            if self.rows == 3:
                self.fh.write("10,0,")  # half a row, then the disk fills
                raise OSError("no space left on device")
            self.inner.writerow(row)

    monkeypatch.setattr(csv, "writer", FailsOnThirdRow)
    out = tmp_path / "csv"
    out.mkdir()
    with pytest.raises(OSError, match="no space"):
        write_run_csv(out / "run.csv", cfg, record)
    assert list(out.iterdir()) == []


def test_summary_write_failure_keeps_the_previous_summary(tmp_path, monkeypatch):
    plan = parse_config(write_tiny_plan(tmp_path, values=("neg_shannon",), seeds=(0,)))
    out = tmp_path / "out"
    run_plan(plan, out)
    names = sorted(p.name for p in out.iterdir())
    before = (out / "summary.md").read_bytes()
    real_open = open

    class FailsMidway:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])  # half the summary, then the disk fills
            raise OSError("no space left on device")

    def open_failing_summary(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FailsMidway(fh) if "summary.md" in str(path) else fh

    monkeypatch.setattr(experiments, "open", open_failing_summary, raising=False)
    monkeypatch.setattr(experiments, "summarize_runs", lambda axis, outcomes: "new\n" * 100)
    with pytest.raises(OSError, match="no space"):
        run_plan(plan, out)
    assert (out / "summary.md").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == names


def test_process_pool_has_no_more_workers_than_runs(tmp_path, monkeypatch):
    # The pool forks all its workers at the first submit, so it is sized by
    # the runs; this one runs them in this process and starts none.
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    plan = parse_config(write_tiny_plan(tmp_path, values=("neg_shannon",), seeds=(0, 1)))
    outcomes = run_plan(plan, tmp_path / "out", jobs=8)
    assert asked == [2]
    assert [oc.error for oc in outcomes] == [None, None]


def test_run_plan_writes_csvs_and_summary(tmp_path):
    plan = parse_config(write_tiny_plan(tmp_path))
    out = tmp_path / "out"
    outcomes = run_plan(plan, out)
    assert len(outcomes) == 4
    assert all(oc.error is None for oc in outcomes)
    csvs = sorted(out.glob("run_*.csv"))
    assert len(csvs) == 4
    summary = (out / "summary.md").read_text()
    assert "neg_shannon" in summary and "euclidean" in summary
    # The summary is derived from the CSVs alone.
    rebuilt = summarize_runs(plan.axis, outcomes)
    assert rebuilt == summary


def test_single_config_single_seed_yields_one_csv(tmp_path):
    plan = parse_config(write_tiny_plan(tmp_path, values=("neg_shannon",), seeds=(0,)))
    out = tmp_path / "solo"
    outcomes = run_plan(plan, out)
    assert len(outcomes) == 1
    assert len(list(out.glob("run_*.csv"))) == 1


def test_failed_run_records_error_and_spares_siblings(tmp_path, monkeypatch):
    # Values are checked when the plan is built, so the failures are the runs' own:
    # one numerical abort and one other exception, one for each branch of `_run_one`.
    failures = {
        0.8: (NumericalError(3, {}), "non-finite loss at step 3"),
        0.9: (DomainError("renyi: zero vector"), "potentials.DomainError: renyi: zero vector"),
    }

    def train_or_fail(cfg):
        if cfg.balance.eta in failures:
            raise failures[cfg.balance.eta][0]
        return train(cfg)

    monkeypatch.setattr("phibal.experiments.train", train_or_fail)
    plan = parse_config(
        write_tiny_plan(tmp_path, axis="eta", values=(0.7, 0.8, 0.9), seeds=(0,))
    )
    out = tmp_path / "err"
    outcomes = run_plan(plan, out)
    by_label = {oc.label: oc for oc in outcomes}
    assert by_label["0.7"].error is None
    for eta, (_, detail) in failures.items():
        assert by_label[str(eta)].error.endswith(detail)
    summary = (out / "summary.md").read_text()
    assert "ERROR" in summary
    assert len(list(out.glob("run_*.csv"))) == 1


@pytest.mark.parametrize(
    "axis, good, value, field",
    [
        ("batch", 16, 64.5, "batch_tokens"),
        ("batch", 16, True, "batch_tokens"),
        ("eta", 0.7, True, "eta"),
        ("eta", 0.7, 5.0, "eta"),
    ],
)
def test_sweep_values_are_checked_when_the_plan_is_built(
    tmp_path, capsys, axis, good, value, field
):
    # Accepted, `batch: 64.5` trained at 64 under the label "64.5" and exited 0.
    path = write_tiny_plan(tmp_path, axis=axis, values=(good, value), seeds=(0,))
    with pytest.raises(ConfigError, match=f"'{field}'"):
        parse_config(path)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    assert f"config error: sweep {axis} value {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "axis, values, seeds",
    [
        ("batch", (64, 64.0), (0,)),
        ("eta", (1, 1.0), (0,)),
        ("phi", ("neg_shannon",), (0, 0)),
        ("phi", ("lp:p=3", "lp:p=3.0"), (0,)),
    ],
)
def test_plan_rejects_two_runs_of_one_config(tmp_path, capsys, axis, values, seeds):
    # Accepted, both runs wrote one run_<digest>.csv and the summary counted it twice.
    path = write_tiny_plan(tmp_path, axis=axis, values=values, seeds=seeds)
    with pytest.raises(ConfigError, match="build the same config"):
        parse_config(path)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == EXIT_CONFIG
    first, second = f"value {values[0]} seed {seeds[0]}", f"value {values[-1]} seed {seeds[-1]}"
    assert f"{first} and {second}" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_deterministic_rerun_is_byte_identical(tmp_path):
    plan_path = write_tiny_plan(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_plan(parse_config(plan_path), out_a, jobs=4)
    run_plan(parse_config(plan_path), out_b, jobs=4)
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_process_pool_sweep_after_split_work_matches_serial(tmp_path, monkeypatch):
    # A wide step leaves a worker thread alive; the pool forks this process,
    # and each child's 4096-token evals (four groups) split again, so a
    # child that kept the parent's dead workers would hang.
    monkeypatch.setattr(autodiff, "_WORKERS", 1)
    threads = record_group_threads(monkeypatch)
    wide = TrainConfig(
        model=ModelConfig(layers=1, experts=64, top_k=4, dim=64, ffn_dim=128),
        corpus=CorpusSpec(n_domains=4, dim=64),
        batch_tokens=1024,
        steps=1,
        eval_every=1,
        eval_tokens=64,
    )
    Trainer(wide).step()
    assert_split_across_threads(threads, threading.get_ident())
    raw = yaml.safe_load(TINY)
    raw["train"]["eval_tokens"] = 4096
    plan = plan_from_dict({**raw, "sweep": {"axis": "eta", "values": [0.3, 0.7], "seeds": [0, 1]}})
    outcomes = {}

    def sweep(jobs):
        outcomes[jobs] = run_plan(plan, tmp_path / str(jobs), jobs=jobs)

    for jobs in (1, 2):
        runner = threading.Thread(target=sweep, args=(jobs,), daemon=True)
        runner.start()
        runner.join(60.0)
        if runner.is_alive():
            for child in multiprocessing.active_children():
                child.kill()  # breaks the pool, so the process can exit
            pytest.fail(f"the jobs={jobs} sweep hung")
        assert [oc.error for oc in outcomes[jobs]] == [None] * 4
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert "summary.md" in names and len(names) == 5
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_config_digest_distinguishes_configs(tmp_path):
    cfg = parse_config(write_tiny_config(tmp_path))
    assert config_digest(cfg) != config_digest(with_seed(cfg, 1))
    assert config_digest(cfg) == config_digest(parse_config(write_tiny_config(tmp_path)))


def test_config_digest_pins():
    # Every sweep CSV is named by this digest; a change renames them all.
    assert config_digest(TrainConfig()) == "94e756671298"
    centers = ((0.0,) * 16, (1.0,) * 16)
    cfg = TrainConfig(corpus=CorpusSpec(n_domains=2, dim=16, centers=centers))
    assert config_digest(cfg) == "50cd16f33954"


def test_int_in_float_field_is_the_same_config():
    as_int = TrainConfig(balance=BalanceConfig(eta=1))
    as_float = TrainConfig(balance=BalanceConfig(eta=1.0))
    assert config_digest(as_int) == config_digest(as_float)
    raw = config_to_dict(as_float)
    raw["balance"]["eta"] = 1
    parsed = config_from_dict(raw)
    assert type(parsed.balance.eta) is float
    assert config_digest(parsed) == config_digest(as_float)


def test_bool_in_int_field_is_a_config_error():
    # Accepted, `layers: true` built the config of `layers: 1` under another digest.
    raw = yaml.safe_load(TINY)
    raw["model"]["layers"] = True
    with pytest.raises(ConfigError, match="model 'layers' must be an integer"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "key, value, bad",
    [
        ("mixture", [True, False, False], True),
        ("mixture", ["0.5", "0.25", "0.25"], "0.5"),
        ("mixture", [0.5, None, 0.5], None),
        ("mixture", [2**1100, 0, 0], 2**1100),
        ("centers", [[True] + [0] * 5, [0] * 6, [0] * 6], True),
        ("centers", [[0] * 6, [0] * 5 + ["1"], [0] * 6], "1"),
    ],
)
def test_corpus_list_element_that_is_not_a_number_is_a_config_error(key, value, bad):
    # Accepted, `mixture: [true, false, false]` built the config of
    # `mixture: [1.0, 0.0, 0.0]`, a quoted number was read as a number, and
    # an int too large for a float raised an uncaught OverflowError.
    raw = yaml.safe_load(TINY)
    raw["corpus"][key] = value
    message = rf"corpus '{key}' must be a number, got {re.escape(repr(bad))}$"
    with pytest.raises(ConfigError, match=message):
        config_from_dict(raw)


def test_ints_in_a_corpus_list_become_floats():
    raw = yaml.safe_load(TINY)
    raw["corpus"]["mixture"] = [1, 0, 0]
    raw["corpus"]["centers"] = [[1] + [0] * 5, [0] * 6, [0] * 5 + [2]]
    corpus = config_from_dict(raw).corpus
    assert corpus.mixture == (1.0, 0.0, 0.0)
    assert corpus.centers[2] == (0.0,) * 5 + (2.0,)
    values = [corpus.mixture, *corpus.centers]
    assert all(type(v) is float for row in values for v in row)


def test_fractional_float_in_int_field_is_a_config_error(tmp_path, capsys):
    # Accepted, it failed in numpy at the first batch, with a traceback.
    path = write_tiny_config(tmp_path)
    raw = yaml.safe_load(Path(path).read_text())
    raw["train"]["batch_tokens"] = 64.5
    Path(path).write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", path, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "train 'batch_tokens' must be an integer, got 64.5" in capsys.readouterr().err


def test_integral_float_in_int_field_is_the_same_config():
    # `steps: 30.0` once got a CSV name of its own.
    raw = yaml.safe_load(TINY)
    as_int = config_from_dict(raw)
    raw["train"]["steps"] = 30.0
    parsed = config_from_dict(raw)
    assert type(parsed.steps) is int
    assert config_digest(parsed) == config_digest(as_int)


def test_eta_sweep_completes_across_band(tmp_path):
    plan = parse_config(
        write_tiny_plan(
            tmp_path, axis="eta", values=(0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0), seeds=(0,)
        )
    )
    out = tmp_path / "eta"
    outcomes = run_plan(plan, out)
    assert all(oc.error is None for oc in outcomes)
    assert len(list(out.glob("run_*.csv"))) == 7


def test_full_catalog_sweep_yields_ranked_summary(tmp_path):
    from phibal.potentials import default_catalog

    tokens = tuple(spec.token() for spec in default_catalog())
    plan = parse_config(write_tiny_plan(tmp_path, axis="phi", values=tokens, seeds=(0,)))
    out = tmp_path / "catalog"
    outcomes = run_plan(plan, out)
    assert all(oc.error is None for oc in outcomes)
    assert len(list(out.glob("run_*.csv"))) == 9
    summary = (out / "summary.md").read_text()
    # Rows are ranked by terminal imbalance: parse the table back out.
    rows = [line for line in summary.splitlines() if line.startswith("| `")]
    assert len(rows) == 9
    values = [float(line.split("|")[3].split("±")[0]) for line in rows]
    assert values == sorted(values)


# -- CLI ----------------------------------------------------------------------------------


def test_cli_run_and_csv(tmp_path, capsys):
    code = main(["run", "--config", write_tiny_config(tmp_path), "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "task_loss=" in out and "max_vio=" in out
    assert len(list((tmp_path / "o").glob("run_*.csv"))) == 1


def test_cli_out_that_is_a_file_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    # Before, both died with a FileExistsError traceback, `run` only after
    # training the whole run.
    def fail(cfg):
        raise AssertionError("trained before --out was checked")

    monkeypatch.setattr("phibal.cli.train", fail)
    monkeypatch.setattr("phibal.experiments.train", fail)
    taken = tmp_path / "taken.txt"
    taken.write_text("kept")
    for verb, config in (("run", write_tiny_config(tmp_path)), ("sweep", write_tiny_plan(tmp_path))):
        assert main([verb, "--config", config, "--out", str(taken)]) == EXIT_CONFIG
        assert f"config error: output directory {taken} is not writable" in capsys.readouterr().err
    assert taken.read_text() == "kept"


def test_two_threads_share_an_output_directory(tmp_path):
    # Every caller probed with one `.write_probe` and wrote its summary
    # through one `.summary.md.<pid>.tmp`, so one thread could delete or
    # replace the other's file mid-write.
    out, errors = tmp_path / "shared", []

    def use(name):
        try:
            for i in range(300):
                experiments._output_dir(out)
                with experiments._replacing(out / "summary.md") as fh:
                    fh.write(f"{name} {i}\n")
        except Exception as exc:
            errors.append(exc)

    workers = [threading.Thread(target=use, args=(name,), daemon=True) for name in "ab"]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert [p.name for p in out.iterdir()] == ["summary.md"]
    assert out.joinpath("summary.md").read_text() in ("a 299\n", "b 299\n")


def test_cli_run_seed_override(tmp_path, capsys):
    path = write_tiny_config(tmp_path)
    main(["run", "--config", path, "--seed", "3"])
    first = capsys.readouterr().out
    main(["run", "--config", path, "--seed", "3"])
    assert capsys.readouterr().out == first


def test_cli_sweep(tmp_path, capsys):
    code = main(["sweep", "--config", write_tiny_plan(tmp_path), "--out", str(tmp_path / "s")])
    assert code == EXIT_OK
    assert (tmp_path / "s" / "summary.md").exists()


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {bogus_key: 1}\n")
    assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG


def test_cli_nan_weight_decay_is_a_config_error(tmp_path, capsys):
    # Accepted, it made the first AdamW update NaN and the run fail at step 2.
    path = write_tiny_config(tmp_path, "optimizer: {weight_decay: .nan}\n")
    assert main(["run", "--config", path]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("model", "dim", 0),
        ("model", "ffn_dim", 0),
        ("model", "dim", -3),
        ("balance", "phi", 5),
        ("optimizer", "lr", float("inf")),
        ("balance", "alpha", float("inf")),
        ("corpus", "cluster_scale", float("inf")),
        ("optimizer", "cosine", 1),
        ("optimizer", "cosine", "yes"),
        pytest.param("optimizer", "lr", 10**400, id="optimizer-lr-10**400"),
    ],
)
def test_cli_out_of_range_or_mistyped_value_is_a_config_error(
    tmp_path, capsys, section, key, value
):
    # Before, these ended in tracebacks, failed mid-run with exit 2, or (`cosine`)
    # trained the run of `cosine: true` under a digest of their own.
    raw = yaml.safe_load(TINY)
    raw.setdefault(section, {})[key] = value
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert f"config error: {section} '{key}' must " in capsys.readouterr().err


def test_cli_int_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text("optimizer: {lr: " + "1" * 5000 + "}\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_domain_error_during_run_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise DomainError("renyi: all-zero vector has no finite value")

    monkeypatch.setattr("phibal.cli.train", fail)
    assert main(["run", "--config", write_tiny_config(tmp_path)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "config error" not in err
    assert "numerical failure: DomainError: renyi" in err


def test_cli_other_errors_during_run_propagate(tmp_path, monkeypatch):
    def fail(cfg):
        raise ValueError("not a config problem")

    monkeypatch.setattr("phibal.cli.train", fail)
    with pytest.raises(ValueError, match="not a config problem"):
        main(["run", "--config", write_tiny_config(tmp_path)])


def test_cli_rejects_negative_seeds_and_nonpositive_compute(tmp_path):
    path = write_tiny_config(tmp_path)
    assert main(["run", "--config", path, "--seed", "-1"]) == EXIT_CONFIG
    raw = yaml.safe_load(Path(path).read_text())
    for section in ("train", "corpus"):
        bad = tmp_path / f"negative_{section}_seed.yaml"
        bad.write_text(yaml.safe_dump({**raw, section: {**raw.get(section, {}), "seed": -1}}))
        assert main(["run", "--config", str(bad)]) == EXIT_CONFIG
    for compute in ("0", "-1", "nan", "inf"):
        assert main(["budget", compute]) == EXIT_CONFIG
    plan, out = write_tiny_plan(tmp_path), str(tmp_path / "s")
    for jobs in ("0", "-3"):
        assert main(["sweep", "--config", plan, "--out", out, "--jobs", jobs]) == EXIT_CONFIG
    assert not (tmp_path / "s").exists()


def test_cli_run_rejects_plan(tmp_path):
    assert main(["run", "--config", write_tiny_plan(tmp_path)]) == EXIT_CONFIG


def test_cli_budget(capsys):
    assert main(["budget", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "tokens_per_param=27.2752" in out
