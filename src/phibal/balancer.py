"""Balancing knobs, per-layer online state, and the competing mechanisms.

`BalanceConfig` holds and checks every balancing knob. One `BalancerState`
per sparse layer tracks an exponential moving average of that layer's
routing statistics and turns it into an auxiliary loss:

* ``phi``       price-based balancing: the loss is <p, w> where w is the
                potential gradient at the updated EMA, held out of the
                gradient flow so only the current batch probabilities learn.
* ``st_moe``    the classic frequency/probability dot product.
* ``loss_free`` no loss at all; a per-expert logit bias steers top-k
                selection and is nudged each step toward uniform utilization.
* ``none``      no balancing (the EMA is still tracked for reporting).

The state holds only what training changes: the EMA ``m`` and, for
``loss_free``, the bias. Its methods read the knobs from its config; the
loss coefficient alpha is applied by `total_loss`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import potentials
from .autodiff import Node, weighted_sum
from .potentials import PotentialSpec
from .schema import check_fields, one_of, within

__all__ = [
    "MECHANISMS",
    "STATISTICS",
    "BalanceConfig",
    "BalancerState",
    "stmoe_aux_loss",
    "total_loss",
]

MECHANISMS = ("phi", "st_moe", "loss_free", "none")
STATISTICS = ("probability", "frequency")

# EMA entries start at zero, where entropic gradients are undefined; the
# training path clamps them to this floor before computing prices.
_EMA_FLOOR = 1e-12


@dataclass(frozen=True)
class BalanceConfig:
    """A run's balancing knobs, shared by every sparse layer.

    ``phi`` is a potential token, required by the ``phi`` mechanism and
    stored in canonical form (``lp:p=3.0`` becomes ``lp:p=3``); under any
    other mechanism it is checked, then stored as None. ``eta``
    is the EMA step size in (0, 1]. ``alpha`` weights the auxiliary losses.
    ``statistic`` selects what feeds the EMA: mean pre-top-k probabilities
    or realized per-token selection frequencies. ``bias_step`` is the
    ``loss_free`` bias increment.
    """

    mechanism: str = field(default="phi", metadata=one_of(MECHANISMS))
    phi: str | None = "neg_shannon"
    eta: float = field(default=0.7, metadata=within("(0, 1]"))
    alpha: float = field(default=0.01, metadata=within("[0, inf)"))
    statistic: str = field(default="probability", metadata=one_of(STATISTICS))
    bias_step: float = field(default=1e-3, metadata=within("[0, inf)"))

    def __post_init__(self) -> None:
        check_fields(self, "balance")
        if self.phi:  # a bad token fails here, whatever the mechanism
            token = PotentialSpec.parse(self.phi).token()
            # Held only where it is read, so one run has one config digest.
            object.__setattr__(self, "phi", token if self.mechanism == "phi" else None)
        if self.mechanism == "phi" and not self.phi:
            raise ValueError("phi mechanism needs a potential spec")

    def potential(self) -> PotentialSpec | None:
        return PotentialSpec.parse(self.phi) if self.phi else None


@dataclass
class BalancerState:
    """One layer's EMA (and loss-free bias) under a `BalanceConfig`; ``spec``
    is the config's potential, parsed once (``phi`` mechanism only)."""

    config: BalanceConfig
    n_experts: int
    m: np.ndarray = field(init=False)
    bias: np.ndarray | None = field(init=False, default=None)
    spec: PotentialSpec | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.m = np.zeros(self.n_experts)
        if self.config.mechanism == "phi":
            self.spec = self.config.potential()
        if self.config.mechanism == "loss_free":
            self.bias = np.zeros(self.n_experts)

    def _per_expert(self, values, name: str) -> np.ndarray:
        """``values`` as a float vector of one entry per expert."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n_experts,):
            raise ValueError(f"{name} shape {values.shape} does not match {self.n_experts} experts")
        return values

    # -- EMA ------------------------------------------------------------------

    def ema_update(self, stat: np.ndarray) -> None:
        """m <- (1 - eta) m + eta stat."""
        stat = self._per_expert(stat, "statistic")
        eta = self.config.eta
        self.m = (1.0 - eta) * self.m + eta * stat

    def pick_statistic(self, p_bar: np.ndarray, f_per_token: np.ndarray) -> np.ndarray:
        return p_bar if self.config.statistic == "probability" else f_per_token

    # -- auxiliary losses ------------------------------------------------------

    def price_vector(self) -> np.ndarray:
        """Potential gradient at the current EMA, floored for entropic domains."""
        m = self.m
        if self.spec.orthant:
            m = np.maximum(m, _EMA_FLOOR)
        # Looked up on the module at call time, so instrumentation that
        # wraps potentials.link also sees training's price computations.
        return potentials.link(self.spec, m)

    def phi_aux_loss(self, p_bar: Node) -> Node:
        """<p, w> with w = grad-potential(m) excluded from gradient flow.

        Call after ema_update for the same batch: prices come from the
        already-updated EMA.
        """
        return weighted_sum(p_bar, self.price_vector())

    def aux_loss(self, p_bar: Node, f: np.ndarray) -> Node | None:
        """The mechanism's auxiliary loss for one batch, or None if it has none."""
        if self.config.mechanism == "phi":
            return self.phi_aux_loss(p_bar)
        if self.config.mechanism == "st_moe":
            return stmoe_aux_loss(f, p_bar)
        return None

    # -- loss-free bias --------------------------------------------------------

    def loss_free_step(self, f: np.ndarray) -> np.ndarray:
        """Nudge each expert's selection bias opposite its utilization error.

        b_e += u * sign(1/E - f_e); a balanced expert (sign 0) is left alone.
        The bias only steers top-k selection, never the routing weights, and
        never receives gradients.
        """
        if self.config.mechanism != "loss_free":
            raise ValueError("bias updates only apply to the loss_free mechanism")
        f = self._per_expert(f, "frequency")
        self.bias += self.config.bias_step * np.sign(1.0 / self.n_experts - f)
        return self.bias


def stmoe_aux_loss(f: np.ndarray, p_bar: Node) -> Node:
    """Dot product of realized frequencies with mean routing probabilities.

    The frequencies come from discrete top-k selections and are treated as
    constants; gradients reach only the probability side.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != p_bar.shape:
        raise ValueError(f"frequency shape {f.shape} != probability shape {p_bar.shape}")
    return weighted_sum(p_bar, f)


def total_loss(task: Node, aux_losses: list[Node], alpha: float, n_experts: int) -> Node:
    """task + alpha * E * sum of per-layer auxiliary losses, as one graph node
    (the task itself when there are no auxiliary losses)."""
    if not aux_losses:
        return task
    k = alpha * n_experts
    value = task.value
    for aux in aux_losses:
        value = value + aux.value * k
    return Node(
        value,
        (task, *aux_losses),
        lambda g: (g, *(g * k for _ in aux_losses)),
        op="total_loss",
    )
