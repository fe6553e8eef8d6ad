"""End-to-end training of a stacked sparse-expert model on synthetic batches.

Each step samples a batch, runs the residual expert stack, updates every
layer's usage EMA, adds the mechanism's auxiliary losses scaled by
alpha * E, backpropagates, and applies the optimizer. The graph holds only
fused nodes: per layer the router's three and one for the experts with the
residual add, then the head, the task loss, one `weighted_sum` per
auxiliary loss and their total. Runs are fully deterministic under a fixed
config and can be snapshotted and resumed bit-exactly. A snapshot (format
v3) holds state only, as copies of the trainer's arrays: the optimizer's
arenas, the per-layer EMAs (and loss-free biases), the selection-count ring
and the eval rows; the config passed to `Trainer.restore` supplies every
hyperparameter. `save_snapshot` writes it as ``.npz``.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autodiff import _CHUNK, Node, _add, _max, _split, constant, linear, parameter
from .balancer import BalanceConfig, BalancerState, total_loss
from .corpus import CorpusSpec, sample_batch
from .metrics import accuracy, gini, max_vio
from .moe import MoeLayer, RoutingBatch
from .schema import check_fields, one_of, within

__all__ = [
    "ModelConfig",
    "BalanceConfig",
    "OptimizerConfig",
    "TrainConfig",
    "EvalRow",
    "RunRecord",
    "terminal_metrics",
    "NumericalError",
    "MoeStack",
    "Trainer",
    "train",
    "compute_token_budget",
    "TokenBudget",
]

SNAPSHOT_VERSION = 3


class NumericalError(RuntimeError):
    """Training hit a non-finite loss at ``step``; ``snapshot`` is the state
    after step - 1, from which `Trainer.restore` replays the failing step."""

    def __init__(self, step: int, snapshot: dict) -> None:
        super().__init__(f"non-finite loss at step {step}")
        self.step = step
        self.snapshot = snapshot


# -- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class ModelConfig:
    layers: int = field(default=2, metadata=within("[1, inf)"))
    experts: int = field(default=8, metadata=within("[1, inf)"))
    top_k: int = 2  # in [1, experts], checked below
    dim: int = field(default=16, metadata=within("[1, inf)"))
    ffn_dim: int = field(default=32, metadata=within("[1, inf)"))

    def __post_init__(self) -> None:
        check_fields(self, "model")
        if not 1 <= self.top_k <= self.experts:
            raise ValueError(f"top_k={self.top_k} must lie in [1, {self.experts}]")


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = field(default="adamw", metadata=one_of(("sgd", "adamw")))
    lr: float = field(default=3e-3, metadata=within("(0, inf)"))
    beta1: float = field(default=0.9, metadata=within("[0, 1)"))
    beta2: float = field(default=0.999, metadata=within("[0, 1)"))
    eps: float = field(default=1e-8, metadata=within("(0, inf)"))
    weight_decay: float = field(default=0.0, metadata=within("[0, inf)"))
    warmup_steps: int = field(default=50, metadata=within("[0, inf)"))
    cosine: bool = False

    def __post_init__(self) -> None:
        check_fields(self, "optimizer")
        if self.kind == "sgd" and self.weight_decay != 0.0:
            raise ValueError(
                f"optimizer 'weight_decay' applies to kind 'adamw' only, "
                f"got {self.weight_decay!r} with kind 'sgd'"
            )


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    balance: BalanceConfig = field(default_factory=BalanceConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    corpus: CorpusSpec = field(default_factory=lambda: CorpusSpec(n_domains=4, dim=16))
    batch_tokens: int = field(default=64, metadata=within("[1, inf)"))
    steps: int = field(default=2000, metadata=within("[1, inf)"))
    eval_every: int = field(default=100, metadata=within("[1, inf)"))
    eval_tokens: int = field(default=512, metadata=within("[1, inf)"))
    seed: int = field(default=0, metadata=within("[0, inf)"))
    load_window: int = field(default=200, metadata=within("[1, inf)"))

    def __post_init__(self) -> None:
        check_fields(self, "train")
        if self.eval_every > self.steps:
            raise ValueError(f"eval_every {self.eval_every} must not exceed steps {self.steps}")
        if self.corpus.dim != self.model.dim:
            raise ValueError(
                f"corpus dim {self.corpus.dim} != model dim {self.model.dim}"
            )


# -- optimizers --------------------------------------------------------------------


class Optimizer:
    """SGD or AdamW with linear warmup, then constant or cosine-decayed lr.

    The optimizer owns the parameters' storage: float64 arenas ``flat`` (the
    values), ``grad`` (each parameter's ``out``, where backward writes its
    gradient) and AdamW's ``m``/``v``. Each parameter is a column-major view
    of them, so a matrix's ``.T`` is C-contiguous and the forward uses it
    uncopied. A step walks chunks, runs of consecutive parameters of at most
    ``_CHUNK`` elements (a larger parameter is a chunk of its own), zeroes the
    gradients of parameters that have none and updates the chunk with
    in-place ufuncs in the per-array formula's order, so results keep bits.
    `autodiff._split` spreads the chunks over the machine's cores (one
    worker thread per usable core but the caller's, at most three; a single
    chunk stays on the caller); each thread updates its chunks with its own
    two temporaries, and a chunk touches only its own slices of the arenas,
    so the bits do not depend on which thread runs it.
    """

    def __init__(self, cfg: OptimizerConfig, params: list[Node], total_steps: int) -> None:
        self.cfg = cfg
        self.params = params
        self.total_steps = total_steps
        self.t = 0
        starts = np.cumsum([0] + [p.value.size for p in params]).tolist()
        self.flat = np.empty(starts[-1])
        self.grad = np.empty_like(self.flat)  # every view is written before it is read
        for p, lo, hi in zip(params, starts, starts[1:]):
            view = self.flat[lo:hi].reshape(p.shape[::-1]).T
            view[...] = p.value
            p.value, p.out = view, self.grad[lo:hi].reshape(p.shape[::-1]).T
        if cfg.kind == "adamw":
            self.m = np.zeros_like(self.flat)
            self.v = np.zeros_like(self.flat)

        runs: list[list[int]] = []
        for i in range(len(params)):
            if runs and starts[i + 1] - starts[runs[-1][0]] <= _CHUNK:
                runs[-1].append(i)
            else:
                runs.append([i])
        self._chunks = [
            (slice(starts[run[0]], starts[run[-1] + 1]), [params[i] for i in run])
            for run in runs
        ]
        # Two temporaries of the widest chunk per thread that updates chunks.
        self._width = max((span.stop - span.start for span, _ in self._chunks), default=0)
        self._scratch = threading.local()

    def learning_rate(self) -> float:
        cfg = self.cfg
        lr = cfg.lr
        if cfg.warmup_steps > 0 and self.t <= cfg.warmup_steps:
            return lr * self.t / cfg.warmup_steps
        if cfg.cosine:
            span = max(1, self.total_steps - cfg.warmup_steps)
            progress = (self.t - cfg.warmup_steps) / span
            return lr * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))
        return lr

    def step(self) -> None:
        self.t += 1
        cfg = self.cfg
        lr = self.learning_rate()
        # Kingma & Ba's efficient form of the bias-corrected update:
        # lr * (m / c1) / (sqrt(v / c2) + eps)
        #     = (lr * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2)).
        root_c2 = math.sqrt(1.0 - cfg.beta2**self.t)
        step_size = lr * root_c2 / (1.0 - cfg.beta1**self.t)
        _split(self._update, self._chunks, lr, step_size, cfg.eps * root_c2)

    def _update(self, chunk: tuple, lr: float, step_size: float, eps_hat: float) -> None:
        """Apply one step to a chunk with the calling thread's temporaries."""
        span, members = chunk
        cfg = self.cfg
        b1, b2 = cfg.beta1, cfg.beta2
        for p in members:
            if p.grad is None:
                p.out.fill(0.0)
            elif p.grad is not p.out:
                p.out[...] = p.grad
        scratch = self._scratch
        if not hasattr(scratch, "tmp"):
            scratch.tmp, scratch.tmp2 = np.empty(self._width), np.empty(self._width)
        g, p = self.grad[span], self.flat[span]
        tmp, tmp2 = scratch.tmp[:g.size], scratch.tmp2[:g.size]
        if cfg.kind == "sgd":
            # p -= lr * g
            np.multiply(lr, g, out=tmp)
            np.subtract(p, tmp, out=p)
            return
        m, v = self.m[span], self.v[span]
        # m = b1 * m + (1 - b1) * g
        np.multiply(b1, m, out=m)
        np.multiply(1.0 - b1, g, out=tmp)
        np.add(m, tmp, out=m)
        # v = b2 * v + (1 - b2) * g * g
        np.multiply(b2, v, out=v)
        np.multiply(1.0 - b2, g, out=tmp)
        np.multiply(tmp, g, out=tmp)
        np.add(v, tmp, out=v)
        # p -= step_size * (m / (sqrt(v) + eps_hat)) + (lr * wd) * p; a zero
        # wd is skipped, which can flip only the sign of an exactly-zero update.
        np.sqrt(v, out=tmp)
        np.add(tmp, eps_hat, out=tmp)
        np.divide(m, tmp, out=tmp)
        np.multiply(step_size, tmp, out=tmp)
        if cfg.weight_decay != 0.0:
            np.multiply(lr * cfg.weight_decay, p, out=tmp2)
            np.add(tmp, tmp2, out=tmp)
        np.subtract(p, tmp, out=p)


# -- model -------------------------------------------------------------------------


class MoeStack:
    """Residual stack of sparse layers with a linear task head.

    Each layer's expert node adds its own input, so a layer is one node
    after routing and the stack needs no arithmetic between layers.

    For domain classification the head has one output per domain and the
    loss is mean cross-entropy over tokens; for the linear-teacher rule it
    is a single regression output under squared error.
    """

    def __init__(self, model: ModelConfig, n_outputs: int, rng: np.random.Generator):
        self.layers = [
            MoeLayer(model.experts, model.top_k, model.dim, model.ffn_dim, rng)
            for _ in range(model.layers)
        ]
        self.head = parameter(rng.normal(0.0, model.dim**-0.5, size=(n_outputs, model.dim)))
        self.n_outputs = n_outputs

    def parameters(self) -> list[Node]:
        params: list[Node] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        params.append(self.head)
        return params

    def forward(
        self, x: np.ndarray, biases: list[np.ndarray | None], *, forward_only: bool = False
    ) -> tuple[Node, list[RoutingBatch]]:
        """The head's logits and each layer's routing. ``forward_only`` runs
        each layer's experts in `MoeLayer.forward`'s forward-only mode: the
        same values, but each layer's output is a leaf, so a backward from
        the logits reaches only the head."""
        h = constant(x)
        routings: list[RoutingBatch] = []
        for layer, bias in zip(self.layers, biases):
            routing = layer.route(h, bias)
            routings.append(routing)
            h = layer.forward(h, routing, forward_only=forward_only)
        return linear(h, self.head), routings


def cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Mean cross-entropy of integer labels under row-softmax of logits.

    One graph node. Forward and VJP keep the op order of the same loss
    built from elementwise primitives (shift by the row max, exp, row sum,
    log, subtract, one-hot product, sum, scale by -1/n), so values and
    adjoints have that chain's bits.
    """
    v = logits.value
    n, c = v.shape
    # The per-row reduce, not `autodiff._row_max`: log_probs keep the sign
    # of a zero in `shifted`, so the row max must keep its zero's sign.
    shifted = v - _max(v, axis=1, keepdims=True)
    e = np.exp(shifted)
    s = _add(e, axis=1, keepdims=True)
    log_probs = shifted - np.log(s)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    scale = -1.0 / n

    def vjp(g):
        d_log_probs = (g * scale) * onehot
        d_s = _add(-d_log_probs, axis=1, keepdims=True) / s
        return (d_log_probs + d_s * e,)

    return Node(_add(log_probs * onehot, axis=None) * scale, (logits,), vjp, op="cross_entropy")


def squared_error(pred: Node, targets: np.ndarray) -> Node:
    """Mean squared error of pred against targets, as one graph node.

    Forward and VJP keep the op order of the chain d = pred - targets,
    (d * d).mean(): each factor of the square passes back (g / n) * d, and
    pred's adjoint is the sum of the two.
    """
    d = pred.value - targets.reshape(pred.shape)

    def vjp(g):
        half = (g / d.size) * d
        return (half + half,)

    return Node(_add(d * d, axis=None) / d.size, (pred,), vjp, op="squared_error")


# -- run records ---------------------------------------------------------------------


class EvalRow(NamedTuple):
    step: int
    layer: int
    task_loss: float
    accuracy: float
    max_vio: float
    gini: float
    m_hash: str


@dataclass
class RunRecord:
    rows: list[EvalRow] = field(default_factory=list)

    def digest(self) -> str:
        payload = "\n".join(repr(tuple(r)) for r in self.rows)
        return hashlib.sha256(payload.encode()).hexdigest()

    def terminal(self) -> dict[str, float]:
        return terminal_metrics([r._asdict() for r in self.rows])

    def terminal_task_loss(self) -> float:
        return self.terminal()["task_loss"]

    def terminal_max_vio(self) -> float:
        return self.terminal()["max_vio"]


def terminal_metrics(rows: list[dict]) -> dict[str, float]:
    """A run's metrics at its last eval step, from its rows in step order as
    dicts keyed by `EvalRow` field: ``task_loss`` and ``accuracy`` of the
    step's last row, ``max_vio`` and ``gini`` averaged over its layers."""
    last = rows[-1]
    final = [r for r in rows if r["step"] == last["step"]]
    return {
        "task_loss": last["task_loss"],
        "accuracy": last["accuracy"],
        "max_vio": float(np.mean([r["max_vio"] for r in final])),
        "gini": float(np.mean([r["gini"] for r in final])),
    }


# -- trainer -------------------------------------------------------------------------


class Trainer:
    """Owns the model, per-layer balancers, optimizer and metric windows."""

    def __init__(self, config: TrainConfig) -> None:
        self.config = config
        rng = np.random.default_rng((config.seed, 100))
        n_outputs = (
            config.corpus.n_domains
            if config.corpus.label_rule == "domain_id"
            else 1
        )
        self.model = MoeStack(config.model, n_outputs, rng)
        self.params = self.model.parameters()
        self.balancers = [
            BalancerState(config.balance, config.model.experts)
            for _ in range(config.model.layers)
        ]
        self.optimizer = Optimizer(config.optimizer, self.params, config.steps)
        self.step_index = 0
        self.record = RunRecord()
        # Per-layer selection counts of the last load_window steps, a ring:
        # step t writes slot (t - 1) % load_window; unwritten slots stay 0.
        self._window = np.zeros(
            (config.model.layers, config.load_window, config.model.experts), dtype=np.int64
        )
        # Held-out batch (reserved step index 0) for loss/accuracy reporting;
        # training steps start at 1 so it is never trained on.
        self._eval_batch = sample_batch(config.corpus, config.eval_tokens, 0)

    # -- one step ------------------------------------------------------------

    def step(self) -> float:
        cfg = self.config
        self.step_index += 1
        t = self.step_index
        x, labels, _ = sample_batch(cfg.corpus, cfg.batch_tokens, t)

        biases = [b.bias for b in self.balancers]
        logits, routings = self.model.forward(x, biases)
        task = self._task_loss(logits, labels)

        # ema_update rebinds m, so these references keep the pre-step EMAs.
        previous_m = [balancer.m for balancer in self.balancers]
        aux_losses = []
        for balancer, routing in zip(self.balancers, routings):
            stat = balancer.pick_statistic(routing.p_bar.value, routing.f_per_token)
            balancer.ema_update(stat)
            aux = balancer.aux_loss(routing.p_bar, routing.f)
            if aux is not None:
                aux_losses.append(aux)
        loss = total_loss(task, aux_losses, cfg.balance.alpha, cfg.model.experts)

        if not np.isfinite(loss.value):
            for balancer, m in zip(self.balancers, previous_m):
                balancer.m = m
            self.step_index = t - 1
            raise NumericalError(t, self.snapshot())

        if cfg.balance.mechanism == "loss_free":
            for balancer, routing in zip(self.balancers, routings):
                balancer.loss_free_step(routing.f)

        for p in self.params:
            p.grad = None
        loss.backward()
        self.optimizer.step()

        slot = (t - 1) % cfg.load_window
        for layer_idx, routing in enumerate(routings):
            self._window[layer_idx, slot] = routing.counts

        if t % cfg.eval_every == 0:
            self._record_eval(t)
        return float(loss.value)

    def evaluate(self) -> tuple[float, float, list[RoutingBatch]]:
        """Task loss, accuracy and each layer's routing on the held-out
        batch; changes no trainer state. The experts run forward-only in the
        calling thread's reused scratch arrays (`MoeStack.forward`), so
        repeated evals allocate no activations."""
        x, labels, _ = self._eval_batch
        biases = [b.bias for b in self.balancers]
        logits, routings = self.model.forward(x, biases, forward_only=True)
        task = self._task_loss(logits, labels)
        if self.config.corpus.label_rule == "domain_id":
            acc = accuracy(np.argmax(logits.value, axis=1), labels)
        else:
            acc = float("nan")
        return float(task.value), acc, routings

    def _task_loss(self, logits: Node, labels: np.ndarray) -> Node:
        """Cross-entropy on domain ids, squared error on regression targets."""
        if self.config.corpus.label_rule == "domain_id":
            return cross_entropy(logits, labels)
        return squared_error(logits, labels)

    def _record_eval(self, t: int) -> None:
        task_loss, acc, _ = self.evaluate()
        for layer_idx, balancer in enumerate(self.balancers):
            loads = self._window[layer_idx].sum(axis=0)
            m_hash = hashlib.sha256(balancer.m.tobytes()).hexdigest()[:16]
            self.record.rows.append(
                EvalRow(
                    step=t,
                    layer=layer_idx,
                    task_loss=task_loss,
                    accuracy=acc,
                    max_vio=max_vio(loads),
                    gini=gini(loads),
                    m_hash=m_hash,
                )
            )

    def run(self) -> RunRecord:
        while self.step_index < self.config.steps:
            self.step()
        return self.record

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copies of the trainer's state, format v3: the optimizer's value
        arena ``params`` (each matrix column-major) with each parameter's
        shape, AdamW's ``moment1``/``moment2`` arenas, the (L, E) ``ema`` and
        ``loss_free`` ``bias``, the window ring and the eval rows as JSON."""
        opt = self.optimizer
        snap = {
            "version": SNAPSHOT_VERSION,
            "step": self.step_index,
            "shapes": np.array([p.shape for p in self.params]),
            "params": opt.flat.copy(),
            "ema": np.stack([b.m for b in self.balancers]),
            "window": self._window.copy(),
            "rows": json.dumps([list(r) for r in self.record.rows]),
        }
        if opt.cfg.kind == "adamw":
            snap["moment1"], snap["moment2"] = opt.m.copy(), opt.v.copy()
        if self.config.balance.mechanism == "loss_free":
            snap["bias"] = np.stack([b.bias for b in self.balancers])
        return snap

    @classmethod
    def restore(cls, config: TrainConfig, snap: dict) -> Trainer:
        """Rebuild a trainer for ``config`` and load a snapshot's state into it.

        Raises ValueError unless the snapshot holds the arrays of the
        trainer's own `snapshot`, each of its shape; it names the first
        parameter whose shape differs.
        """
        if snap.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snap.get('version')!r}")
        trainer = cls(config)
        built = trainer.snapshot()
        if snap.keys() != built.keys():
            raise ValueError(
                f"snapshot holds {sorted(snap)}, the {config.optimizer.kind} optimizer and "
                f"{config.balance.mechanism} mechanism keep {sorted(built)}"
            )
        for key, want in built.items():  # "shapes" before "params"
            have, need = np.shape(snap[key]), np.shape(want)
            if have != need:
                raise ValueError(f"snapshot {key} has shape {have}, the config builds {need}")
            if key == "shapes" and (snap[key] != want).any():
                i = np.flatnonzero((snap[key] != want).any(axis=1))[0]
                raise ValueError(
                    f"snapshot parameter {i} has shape {snap[key][i].tolist()}, "
                    f"the config builds {want[i].tolist()}"
                )

        opt = trainer.optimizer
        opt.t = trainer.step_index = int(snap["step"])
        opt.flat[...] = snap["params"]
        if "moment1" in snap:
            opt.m[...], opt.v[...] = snap["moment1"], snap["moment2"]
        for i, balancer in enumerate(trainer.balancers):
            balancer.m = np.array(snap["ema"][i], dtype=np.float64)
            if "bias" in snap:
                balancer.bias[...] = snap["bias"][i]
        trainer._window[...] = snap["window"]
        trainer.record = RunRecord(rows=[EvalRow(*row) for row in json.loads(str(snap["rows"]))])
        return trainer

    def save_snapshot(self, path) -> None:
        """Write `snapshot` as ``.npz`` to ``path``, whatever its suffix."""
        with open(path, "wb") as fh:
            np.savez(fh, **self.snapshot())

    @classmethod
    def load_snapshot(cls, config: TrainConfig, path) -> Trainer:
        """Restore from a `save_snapshot` file, read without pickle."""
        try:
            with np.load(path, allow_pickle=False) as data:
                snap = dict(data)
        except (ValueError, EOFError, TypeError):  # EOFError: empty; TypeError: a bare .npy
            raise ValueError(
                f"{path} is not a format v{SNAPSHOT_VERSION} snapshot (.npz arrays); "
                "format v2 JSON snapshots are not read"
            ) from None
        return cls.restore(config, snap)


def train(config: TrainConfig) -> RunRecord:
    """Run the configured training loop to completion."""
    return Trainer(config).run()


# -- compute budget -------------------------------------------------------------------


class TokenBudget(NamedTuple):
    compute_per_token: float
    train_tokens: float
    tokens_per_param: float


def compute_token_budget(total_compute: float) -> TokenBudget:
    """Compute-optimal model size, token count, and tokens-per-parameter.

    Power-law fits in the total training compute C:
        M = 0.1915 * C^0.5095, D = 5.2232 * C^0.4905, tpp = D / M.
    """
    if not 0.0 < total_compute < math.inf:
        raise ValueError(f"total compute must be finite and positive, got {total_compute}")
    m_opt = 0.1915 * total_compute**0.5095
    d_opt = 5.2232 * total_compute**0.4905
    return TokenBudget(m_opt, d_opt, d_opt / m_opt)
