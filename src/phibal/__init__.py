"""Potential-based load balancing for sparse mixture-of-experts routing.

The package bundles a small reverse-mode gradient engine, a catalog of
strictly convex balance potentials with their convex-duality machinery, the
EMA-based online price tracker and competing balancing baselines, a toy
top-k expert layer, synthetic multi-domain data, balance metrics, and a
deterministic trainer plus sweep CLI.
"""

from .autodiff import Node, constant, parameter
from .balancer import BalanceConfig, BalancerState, stmoe_aux_loss, total_loss
from .corpus import CorpusSpec, sample_batch
from .metrics import accuracy, gini, max_vio, routed_token_ratio
from .moe import MoeLayer, RoutingBatch
from .potentials import (
    PotentialSpec,
    conjugate_value,
    default_catalog,
    inverse_link,
    link,
    value,
)
from .training import (
    ModelConfig,
    OptimizerConfig,
    RunRecord,
    TrainConfig,
    Trainer,
    compute_token_budget,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Node",
    "constant",
    "parameter",
    "BalanceConfig",
    "BalancerState",
    "stmoe_aux_loss",
    "total_loss",
    "CorpusSpec",
    "sample_batch",
    "accuracy",
    "gini",
    "max_vio",
    "routed_token_ratio",
    "MoeLayer",
    "RoutingBatch",
    "PotentialSpec",
    "conjugate_value",
    "default_catalog",
    "inverse_link",
    "link",
    "value",
    "ModelConfig",
    "OptimizerConfig",
    "RunRecord",
    "TrainConfig",
    "Trainer",
    "compute_token_budget",
    "train",
    "__version__",
]
