"""Fuzzy-controller training (paper Appendix A, Eq 13).

The manufacturer-site training: the first ``n_rules`` examples seed the
rule centres (``mu_ij = x_ij``, ``sigma_ij`` random below 0.1, ``y_i`` the
example's output); every further example performs one gradient step on
every rule's ``mu``, ``sigma`` and ``y`` with learning rate ``alpha``
(0.04 in the paper)::

    eta(k+1) = eta(k) - alpha * de/d_eta        (Eq 13)

with ``e = 0.5 * (z - target)^2`` for the Eq 12 output ``z``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .. import obs
from .fuzzy import _STRENGTH_FLOOR, FuzzyController

#: Paper settings (Figure 7(a)): 25 rules, 10,000 training examples.
DEFAULT_N_RULES = 25
DEFAULT_LEARNING_RATE = 0.04

_MIN_SIGMA = 0.02  # keep widths positive and rules well-conditioned


@dataclass(frozen=True)
class TrainingReport:
    """Summary statistics of one training run."""

    n_examples: int
    epochs: int
    final_rmse: float  # over the training set after the last epoch


Trained = Tuple[FuzzyController, TrainingReport]


def train_fuzzy_controller(
    inputs: np.ndarray,
    targets: np.ndarray,
    n_rules: int = DEFAULT_N_RULES,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    epochs: int = 1,
    seed: Union[int, Sequence[int]] = 0,
) -> Union[Trained, List[Trained]]:
    """Train fuzzy controllers on (input, output) examples.

    Several independent controllers with equal-shaped datasets train in
    lockstep: every step advances each of them by one example, as
    stacked ``(n_fc, rules, inputs)`` tensors.  Each controller's result
    is bit-identical to training it alone (see DESIGN.md).

    Args:
        inputs: Raw input vectors, shape ``(n_examples, n_inputs)`` for one
            controller or ``(n_examples, n_fc, n_inputs)`` for ``n_fc``.
        targets: Desired outputs, shape ``(n_examples,)`` or
            ``(n_examples, n_fc)``.
        n_rules: Number of fuzzy rules (paper: 25).
        learning_rate: Gradient step size (paper: 0.04).
        epochs: Passes over the data (the paper's single online pass is
            ``epochs=1``; more passes tighten the fit).
        seed: RNG seed for the sigma initialisation: one per controller,
            or one shared by all.

    Returns:
        The trained controller and its :class:`TrainingReport` for 2-D
        ``inputs``; a list of ``n_fc`` such pairs for 3-D ``inputs``.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    single = inputs.ndim == 2
    if single:
        inputs = inputs[:, None, :]
        targets = targets[:, None] if targets.ndim == 1 else targets
    if inputs.ndim != 3:
        raise ValueError(
            "inputs must be 2-D (examples x variables) or 3-D "
            "(examples x controllers x variables)"
        )
    if targets.shape != inputs.shape[:2]:
        raise ValueError("inputs and targets must have the same length")
    n_examples, n_fc, _ = inputs.shape
    if n_examples < n_rules:
        raise ValueError(f"need at least n_rules={n_rules} examples")
    seeds = [seed] * n_fc if np.ndim(seed) == 0 else list(seed)
    if len(seeds) != n_fc:
        raise ValueError("need one seed per controller")
    epochs = max(1, epochs)

    # Standardise and seed each controller on its own contiguous arrays,
    # exactly as a controller trained alone.
    columns = [np.ascontiguousarray(inputs[:, k, :]) for k in range(n_fc)]
    means, stds, x_stds, mus, sigmas, ys = zip(*(
        _seed_rules(x, targets[:, k], n_rules, fc_seed)
        for k, (x, fc_seed) in enumerate(zip(columns, seeds))
    ))

    start = time.perf_counter()
    mu, sigma, y = np.stack(mus), np.stack(sigmas), np.stack(ys)
    _train_lockstep(
        mu, sigma, y, np.stack(x_stds, axis=1), targets, n_rules,
        learning_rate, epochs,
    )

    trained = []
    for fc_index in range(n_fc):
        controller = FuzzyController(
            mu=mu[fc_index].copy(),
            sigma=sigma[fc_index].copy(),
            y=y[fc_index].copy(),
            input_mean=means[fc_index],
            input_std=stds[fc_index],
        )
        predictions = controller.predict_batch(columns[fc_index])
        rmse = float(np.sqrt(np.mean((predictions - targets[:, fc_index]) ** 2)))
        obs.inc("ml.fcs_trained")
        obs.observe("ml.train_rmse", rmse)
        trained.append((
            controller,
            TrainingReport(n_examples=n_examples, epochs=epochs, final_rmse=rmse),
        ))
    obs.observe("ml.train_seconds", time.perf_counter() - start)
    return trained[0] if single else trained


def _seed_rules(
    x: np.ndarray, targets: np.ndarray, n_rules: int, seed: int
) -> Tuple[np.ndarray, ...]:
    """One controller's standardisation and seeding phase.

    Returns ``(mean, std, x_std, mu, sigma, y)``: the first ``n_rules``
    standardised examples become the rule centres and outputs.
    """
    rng = np.random.default_rng(seed)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 1e-12, std, 1.0)
    x_std = (x - mean) / std
    mu = x_std[:n_rules].copy()
    sigma = rng.uniform(0.02, 0.1, size=mu.shape)
    # Widen to a useful receptive field before online training; the
    # paper's tiny initial widths rely on the gradient to open them up,
    # which needs many more examples than rules — starting wider converges
    # to the same place faster and is numerically safer.
    sigma = np.maximum(sigma, 0.25 + rng.uniform(0.0, 0.25, size=mu.shape))
    return mean, std, x_std, mu, sigma, targets[:n_rules].copy()


def _train_lockstep(
    mu: np.ndarray,
    sigma: np.ndarray,
    y: np.ndarray,
    x_std: np.ndarray,
    targets: np.ndarray,
    n_rules: int,
    lr: float,
    epochs: int,
) -> None:
    """Eq 13 online updates of ``n_fc`` controllers, in place.

    ``mu``/``sigma`` are ``(n_fc, rules, inputs)``, ``y`` is
    ``(n_fc, rules)``, ``x_std`` is ``(n_examples, n_fc, inputs)`` and
    ``targets`` is ``(n_examples, n_fc)``.  Every reduction runs along the
    last, contiguous axis, so each controller's arithmetic is exactly that
    of a one-controller call.  A controller whose rule strengths underflow
    for an example (it lies outside every rule's receptive field) skips
    that step while the others advance.
    """
    for _ in range(epochs):
        for k in range(n_rules, len(x_std)):
            diff = x_std[k][:, None, :] - mu  # (n_fc, rules, inputs)
            w = np.exp(-((diff / sigma) ** 2).sum(axis=2))  # (n_fc, rules)
            total = w.sum(axis=1)
            frozen = total < _STRENGTH_FLOOR
            if frozen.any():
                live = np.flatnonzero(~frozen)
                grad_y, grad_mu, grad_sigma = _gradients(
                    diff[live], sigma[live], y[live], w[live], total[live],
                    targets[k][live],
                )
                y[live] -= lr * grad_y
                mu[live] -= lr * grad_mu
                sigma[live] -= lr * grad_sigma
            else:
                grad_y, grad_mu, grad_sigma = _gradients(
                    diff, sigma, y, w, total, targets[k]
                )
                y -= lr * grad_y
                mu -= lr * grad_mu
                sigma -= lr * grad_sigma
            np.maximum(sigma, _MIN_SIGMA, out=sigma)


def _gradients(
    diff: np.ndarray,
    sigma: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    total: np.ndarray,
    target: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq 13 gradients of ``e = 0.5 (z - target)^2`` for stacked rules."""
    total = total[:, None]
    z = (w * y).sum(axis=1, keepdims=True) / total
    err = z - target[:, None]
    # d e / d y_i = err * W_i / sum(W)
    grad_y = err * w / total
    # Common factor for mu/sigma gradients: err * (y_i - z) * W_i / sum(W).
    common = (err * (y - z) * w / total)[:, :, None]
    grad_mu = common * 2.0 * diff / sigma**2
    grad_sigma = common * 2.0 * diff**2 / sigma**3
    return grad_y, grad_mu, grad_sigma
