"""Identity and property suites runnable from the CLI and the tests.

Four suites cover the library's mathematical contracts:

* uniform-minimizer: every potential is minimized on the simplex exactly at
  the uniform distribution, strictly so away from it.
* duality: link/inverse-link round trips and the Fenchel-Young equality
  value(m) + conjugate(link(m)) = <m, link(m)>.
* mirror-step: one Bregman ascent step on the dual objective, solved by a
  Newton ascent with a finite-difference Hessian, coincides with the
  closed-form EMA-then-price update.
* gradients: every loss in the repo matches central finite differences.
  Each instance is one sweep: every parameter element is perturbed once up
  and once down, and each perturbed forward feeds every loss it is compared
  on (the task loss and the full objective; at a router also the st_moe and
  the nine price losses). An instance costs 662 model forwards: 648 for the
  sweep over its 324 elements, 12 analytic, one for the EMA and at least
  one for the margin guard.

The finite-difference helpers here are deliberately independent of the
reverse-mode engine they validate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .autodiff import Node, weighted_sum
from .balancer import BalanceConfig, BalancerState, stmoe_aux_loss, total_loss
from .potentials import (
    PotentialSpec,
    conjugate_value,
    default_catalog,
    inverse_link,
    link,
    value,
)
from .training import ModelConfig, MoeStack, cross_entropy

__all__ = [
    "CheckResult",
    "finite_diff_sweep",
    "finite_diff_gradient",
    "gradient_max_rel_error",
    "check_uniform_minimizer",
    "check_duality",
    "check_mirror_step",
    "check_gradients",
    "run_all_checks",
    "estimation_bias_gaps",
]

ROUNDTRIP_TOL = 1e-8
FENCHEL_TOL = 1e-6
MIRROR_TOL = 1e-8
GRAD_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _interior_simplex(rng: np.random.Generator, n: int, floor: float = 1e-3) -> np.ndarray:
    p = rng.dirichlet(np.ones(n))
    p = np.clip(p, floor, None)
    return p / p.sum()


# -- finite differences ------------------------------------------------------------


def finite_diff_sweep(
    loss_fn: Callable[[Node], Sequence[Node]], params: list[Node], h: float = 1e-5
) -> list[list[np.ndarray]]:
    """Central-difference gradients of several losses from one sweep.

    Perturbs each element of each parameter in place, once up and once
    down, and restores it. ``loss_fn(p)`` runs while ``p`` is perturbed,
    must rebuild its graph from the current values, and returns the losses
    to read for ``p``, as many for every element of ``p``. Entry ``[i][j]``
    is the gradient w.r.t. ``params[i]`` of the j-th loss of
    ``loss_fn(params[i])``.
    """
    grads = []
    for p in params:
        flat_value = p.value.ravel(order="K")
        if flat_value.size and not np.shares_memory(flat_value, p.value):
            raise ValueError(
                f"parameter of shape {p.value.shape} and strides {p.value.strides} "
                "ravels to a copy: perturbing the copy would not move the parameter"
            )
        per_loss = flat_grads = None
        for i in range(flat_value.size):
            orig = flat_value[i]
            flat_value[i] = orig + h
            up = [float(loss.value) for loss in loss_fn(p)]
            flat_value[i] = orig - h
            down = [float(loss.value) for loss in loss_fn(p)]
            flat_value[i] = orig
            if per_loss is None:  # in p's layout, so both ravel to views
                per_loss = [np.zeros_like(p.value) for _ in up]
                flat_grads = [g.ravel(order="K") for g in per_loss]
            for flat_grad, u, d in zip(flat_grads, up, down, strict=True):
                flat_grad[i] = (u - d) / (2.0 * h)
        if per_loss is None:  # nothing to perturb; one read for the count
            per_loss = [np.zeros_like(p.value) for _ in loss_fn(p)]
        grads.append(per_loss)
    return grads


def finite_diff_gradient(
    loss_fn: Callable[[], Node], params: list[Node], h: float = 1e-5
) -> list[np.ndarray]:
    """Central-difference gradient of loss_fn w.r.t. each parameter node:
    `finite_diff_sweep` of the one loss."""
    return [g for (g,) in finite_diff_sweep(lambda p: (loss_fn(),), params, h)]


def gradient_max_rel_error(analytic: list[np.ndarray], numeric: list[np.ndarray]) -> float:
    """max over entries of |a - n| / max(1, |a|, |n|), or inf if any entry is
    not finite: a NaN or an inf on either side makes its ratio NaN. Raises
    ValueError, naming the index, when the lists differ in length or a pair
    in shape."""
    if len(analytic) != len(numeric):
        raise ValueError(
            f"{len(analytic)} analytic and {len(numeric)} numeric gradients: "
            f"index {min(len(analytic), len(numeric))} has no partner"
        )
    worst = 0.0
    with np.errstate(invalid="ignore"):
        for i, (a, n) in enumerate(zip(analytic, numeric)):
            if np.shape(a) != np.shape(n):
                raise ValueError(
                    f"gradient {i}: analytic shape {np.shape(a)} != numeric shape {np.shape(n)}"
                )
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            err = float(np.max(np.abs(a - n) / denom))
            if np.isnan(err):
                return np.inf
            worst = max(worst, err)
    return worst


# -- suite: uniform minimizer --------------------------------------------------------


def check_uniform_minimizer(
    n_points: int = 200, sizes: tuple[int, ...] = (2, 4, 8), seed: int = 0
) -> CheckResult:
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    violations = []
    for spec in default_catalog():
        for n in sizes:
            u = np.full(n, 1.0 / n)
            v_u = value(spec, u)
            for _ in range(n_points):
                p = rng.dirichlet(np.ones(n))
                v_p = value(spec, p)
                if v_u > v_p:
                    violations.append(f"{spec.token()} E={n}: value(u) > value(p)")
                elif np.max(np.abs(p - u)) > 1e-6 and not v_p > v_u:
                    violations.append(f"{spec.token()} E={n}: not strict at {p}")
    detail = (
        f"{len(default_catalog())} families x {len(sizes)} sizes x {n_points} points"
        if not violations
        else "; ".join(violations[:3])
    )
    return CheckResult(
        "uniform-minimizer", not violations, detail, time.perf_counter() - started
    )


# -- suite: conjugate duality ----------------------------------------------------------


def check_duality(n_points: int = 50, size: int = 4, seed: int = 0) -> CheckResult:
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures = []
    worst_rt = worst_fy = 0.0
    for spec in default_catalog():
        for _ in range(n_points):
            m = _interior_simplex(rng, size)
            q = link(spec, m)
            rt_err = float(np.max(np.abs(inverse_link(spec, q) - m)))
            fy_err = abs(value(spec, m) + conjugate_value(spec, q) - float(m @ q))
            worst_rt = max(worst_rt, rt_err)
            worst_fy = max(worst_fy, fy_err)
            if rt_err > ROUNDTRIP_TOL:
                failures.append(f"{spec.token()}: round trip err {rt_err:.2e}")
            if fy_err > FENCHEL_TOL:
                failures.append(f"{spec.token()}: Fenchel-Young err {fy_err:.2e}")
    detail = (
        f"round-trip worst {worst_rt:.1e}; Fenchel-Young worst {worst_fy:.1e}"
        if not failures
        else "; ".join(failures[:3])
    )
    return CheckResult("duality", not failures, detail, time.perf_counter() - started)


# -- suite: mirror step ------------------------------------------------------------------


def mirror_step_numeric(
    spec: PotentialSpec, m: np.ndarray, p: np.ndarray, eta: float
) -> np.ndarray:
    """Solve one Bregman-regularized ascent step on the dual objective.

    Maximizes <p - m, q> - (1/eta) * D(q, q_t) over q, where D is the Bregman
    divergence of the conjugate and q_t = link(m), by Newton ascent from q_t.
    The Hessian is a central difference of the exact gradient, so its error
    can only slow convergence, not move the stationary point. A step is
    halved while it lowers the objective by more than round-off, and the
    ascent stops at a gradient of at most 1e-12. Only q_t comes from `link`:
    the solve is independent of the closed-form EMA update it is compared
    against.
    """
    q = q_t = link(spec, m)
    grad_f = p - m
    base = conjugate_value(spec, q_t)
    slope = inverse_link(spec, q_t)

    def objective(q: np.ndarray) -> float:
        breg = conjugate_value(spec, q) - base - float(slope @ (q - q_t))
        return float(grad_f @ q) - breg / eta

    def gradient(q: np.ndarray) -> np.ndarray:
        return grad_f - (inverse_link(spec, q) - m) / eta

    h = 1e-6
    g = gradient(q)
    for _ in range(100):
        if np.max(np.abs(g)) <= 1e-12:
            break
        hess = np.array([gradient(q + d) - gradient(q - d) for d in h * np.eye(q.size)])
        hess /= 2.0 * h
        step = np.linalg.solve(0.5 * (hess + hess.T), -g)
        f = objective(q)
        for _ in range(60):
            trial = q + step
            if objective(trial) >= f - 1e-14 * max(1.0, abs(f)):
                break
            step = 0.5 * step
        q = trial
        g = gradient(q)
    return q


def check_mirror_step(n_trials: int = 20, seed: int = 0) -> CheckResult:
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    failures = []
    worst = 0.0
    for spec in (PotentialSpec("neg_shannon"), PotentialSpec("euclidean")):
        for _ in range(n_trials):
            m = _interior_simplex(rng, 4)
            p = _interior_simplex(rng, 4)
            eta = rng.uniform(0.05, 1.0)
            numeric = mirror_step_numeric(spec, m, p, eta)
            closed = link(spec, (1.0 - eta) * m + eta * p)
            err = float(np.max(np.abs(numeric - closed)))
            worst = max(worst, err)
            if err > MIRROR_TOL:
                failures.append(f"{spec.token()} eta={eta:.3f}: err {err:.2e}")
    detail = f"worst deviation {worst:.2e}" if not failures else "; ".join(failures[:3])
    return CheckResult("mirror-step", not failures, detail, time.perf_counter() - started)


# -- suite: gradient checks --------------------------------------------------------------


def _routing_margins(stack: MoeStack, x: np.ndarray) -> float:
    """Smallest probability gap around the top-k cut, over layers and tokens."""
    _, routings = stack.forward(x, [None] * len(stack.layers))
    worst = np.inf
    for routing in routings:
        ordered = np.sort(routing.probs, axis=1)[:, ::-1]
        k = routing.top_k
        if k < ordered.shape[1]:
            worst = min(worst, float(np.min(ordered[:, k - 1] - ordered[:, k])))
    return worst


def build_gradcheck_instance(
    seed: int, n_tokens: int = 6, experts: int = 3, top_k: int = 2
) -> tuple[MoeStack, np.ndarray, np.ndarray]:
    """A tiny 2-layer stack and batch with a safe top-k margin.

    The margin guard keeps central differences from flipping a discrete
    selection, which would invalidate the comparison.
    """
    model = ModelConfig(layers=2, experts=experts, top_k=top_k, dim=4, ffn_dim=4)
    for attempt in range(50):
        rng = np.random.default_rng((seed, attempt))
        stack = MoeStack(model, n_outputs=3, rng=rng)
        x = rng.standard_normal((n_tokens, model.dim))
        if _routing_margins(stack, x) > 1e-3:
            labels = rng.integers(0, 3, size=n_tokens)
            return stack, x, labels
    raise RuntimeError("could not build a tie-free routing instance")


def _layer_sum(aux: list[Node]) -> Node:
    """Per-layer losses summed by `total_loss` at weight 1.0 * 1, which adds
    them exactly, as x * 1.0 == x."""
    return total_loss(aux[0], aux[1:], 1.0, 1)


def _price_losses(routings, prices: list[np.ndarray]) -> list[Node]:
    """Each layer's <p_bar, w> at its frozen prices w, as `phi_aux_loss` forms it."""
    return [weighted_sum(r.p_bar, w) for r, w in zip(routings, prices)]


def check_gradients(tol: float = GRAD_TOL, instances: int = 5, seed: int = 0) -> CheckResult:
    """Twelve comparisons per instance, each of an analytic gradient with
    the central differences of one sweep: the task loss and the full
    objective over all parameters, and the st_moe loss and each potential's
    price loss over the routers."""
    started = time.perf_counter()
    failures = []
    worst = 0.0
    rng = np.random.default_rng(seed)
    for idx in range(instances):
        stack, x, labels = build_gradcheck_instance(seed * 1000 + idx)
        params = stack.parameters()
        routers = [layer.w_router for layer in stack.layers]
        n_layers = len(stack.layers)
        n_experts = stack.layers[0].n_experts

        def forward():
            return stack.forward(x, [None] * n_layers)

        # Each potential's prices, frozen at a random EMA per layer.
        phi_prices = {}
        for spec in default_catalog():
            phi_prices[spec.token()] = prices = []
            for _ in range(n_layers):
                bal = BalancerState(BalanceConfig(phi=spec.token()), n_experts)
                bal.m = _interior_simplex(rng, n_experts)
                prices.append(bal.price_vector())

        # The full objective's prices: the EMA advanced once and then held
        # fixed (the production gradient treats prices as constants).
        total_prices = []
        for routing in forward()[1]:
            bal = BalancerState(BalanceConfig(phi="neg_shannon"), n_experts)
            bal.ema_update(routing.p_bar.value)
            total_prices.append(bal.price_vector())

        def losses(router: bool) -> list[Node]:
            """The task loss and task + alpha * E * sum of price losses, and
            for a router the frequency/probability loss (frequencies are
            constants) and each potential's price loss, from one forward."""
            logits, routings = forward()
            task = cross_entropy(logits, labels)
            out = [task, total_loss(task, _price_losses(routings, total_prices), 0.01, n_experts)]
            if router:
                out.append(_layer_sum([stmoe_aux_loss(r.f, r.p_bar) for r in routings]))
                out += [_layer_sum(_price_losses(routings, w)) for w in phi_prices.values()]
            return out

        numeric = finite_diff_sweep(lambda p: losses(p in routers), params)
        names = ["task", "total", "st_moe", *phi_prices]  # the order of `losses`
        for label in ["task", "st_moe", *phi_prices, "total"]:
            j = names.index(label)
            compared = routers if j >= 2 else params
            grads = [numeric[params.index(p)][j] for p in compared]
            worst = max(worst, _compare(losses(j >= 2)[j], compared, grads, failures, label, tol))

    detail = f"worst rel err {worst:.2e}" if not failures else "; ".join(failures[:3])
    return CheckResult("gradients", not failures, detail, time.perf_counter() - started)


def _compare(
    root: Node,
    params: list[Node],
    numeric: list[np.ndarray],
    failures: list[str],
    label: str,
    tol: float,
) -> float:
    for p in params:
        p.grad = None
    root.backward()
    analytic = [
        p.grad if p.grad is not None else np.zeros(p.shape) for p in params
    ]
    err = gradient_max_rel_error(analytic, numeric)
    if not err <= tol:
        failures.append(f"{label}: rel err {err:.2e}")
    return err


# -- estimation bias ------------------------------------------------------------------


def estimation_bias_gaps(
    spec: PotentialSpec | None = None,
    batch_sizes: tuple[int, ...] = (1, 4, 16, 64),
    n_batches: int = 1000,
    population: int = 512,
    n_experts: int = 8,
    seed: int = 0,
) -> list[tuple[int, float, float]]:
    """Jensen gap of batch-mean estimation: E[phi(batch mean)] - phi(population mean).

    Returns (batch_size, gap, standard error) per batch size over a fixed
    synthetic population of per-token routing distributions. The gap is
    nonnegative by convexity and shrinks as batches grow.
    """
    if spec is None:
        spec = PotentialSpec("neg_shannon")
    rng = np.random.default_rng(seed)
    pop = rng.dirichlet(np.full(n_experts, 0.5), size=population)
    base = value(spec, pop.mean(axis=0))
    out = []
    for b in batch_sizes:
        vals = np.empty(n_batches)
        for i in range(n_batches):
            idx = rng.integers(0, population, size=b)
            vals[i] = value(spec, pop[idx].mean(axis=0))
        gap = float(vals.mean()) - base
        se = float(vals.std(ddof=1)) / n_batches**0.5
        out.append((b, gap, se))
    return out


# -- entry point --------------------------------------------------------------------------


def run_all_checks(grad_tol: float = GRAD_TOL) -> list[CheckResult]:
    return [
        check_uniform_minimizer(),
        check_duality(),
        check_mirror_step(),
        check_gradients(tol=grad_tol),
    ]
