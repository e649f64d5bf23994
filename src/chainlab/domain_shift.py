"""Mixed-domain training and its averaging failure mode.

When several domains explain the same observed input, the loss-minimizing
output is the per-loss centroid of the domains' valid reconstructions: the
weighted mean under squared error, the coordinatewise weighted median under
absolute error. This module provides the closed-form minimizer, affine
restorers fitted across domains, the resolution-shift closed form built from
blur operators, and a mixed-versus-targeted error report.

An affine map already exhibits the loss-minimizing output on linear-domain
instances. ``fit_linear_restorer`` solves for the squared-error minimizer
exactly (weighted least squares). The mixed-versus-targeted report fits it
and every domain's targeted restorer from one training draw; on overlapping
domains with one solve, since the mixed minimizer is then the mean of the
targeted ones.
``train_mixed_restorer`` runs full-batch gradient descent for the claims
about training itself, with no configured step size: squared error steps by
the inverse Lipschitz constant of its gradient on the training draw, absolute
error by Polyak's step to the per-row median bound on its optimal value. It
takes overlapping domains only: their one shared input lets each epoch form
the prediction once, subtract the stacked targets of all domains as one
residual array, and take one gradient product with the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .channels import blur_matrix
from .errors import ContractViolation, DimensionMismatch, Diverged, DomainsCoincide
from .rng import stream_rng

OVERLAPPING = "overlapping"
DISJOINT = "disjoint"


def double_meaning_minimizer(
    targets: Sequence[np.ndarray],
    weights: Optional[Sequence[float]] = None,
    loss: str = "mse",
) -> np.ndarray:
    """Loss-minimizing single output against several valid targets.

    mse: weighted arithmetic mean. l1: coordinatewise weighted median (the
    lower median on even-mass ties, so the result is deterministic).
    """
    arrs = [np.atleast_1d(np.asarray(t, dtype=np.float64)) for t in targets]
    if len(arrs) == 0:
        raise ContractViolation("at least one target required")
    shape = arrs[0].shape
    if any(a.shape != shape for a in arrs):
        raise DimensionMismatch("targets disagree on dimension")
    w = _resolve_weights(weights, len(arrs))
    stack = np.stack(arrs)  # (M, ...)
    if loss == "mse":
        return np.tensordot(w, stack, axes=1)
    if loss == "l1":
        # Per coordinate: sort the M values stably, and take the first whose
        # cumulative weight reaches half of that coordinate's total.
        flat = stack.reshape(len(arrs), -1)
        order = np.argsort(flat, axis=0, kind="stable")
        cum = np.cumsum(w[order], axis=0)
        idx = np.argmax(cum >= 0.5 * cum[-1] - 1e-15, axis=0)
        pick = np.take_along_axis(order, idx[None], axis=0)
        return np.take_along_axis(flat, pick, axis=0).reshape(shape)
    raise ContractViolation(f"unknown loss {loss!r}")


def _resolve_weights(weights, m: int) -> np.ndarray:
    if weights is None:
        return np.full(m, 1.0 / m)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (m,):
        raise DimensionMismatch(f"{m} domains but {w.shape} weights")
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
        raise ContractViolation("weights must be nonnegative and sum to 1")
    return w


def gaussian_latents(dim: int) -> Callable:
    """Standard-normal latent batches of the given dimension."""

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_normal((n, dim))

    return sample


def linear_map(matrix: np.ndarray) -> Callable:
    a = np.asarray(matrix, dtype=np.float64)

    def apply(u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=np.float64) @ a.T

    return apply


@dataclass(frozen=True)
class DomainSpec:
    """Several domains whose valid reconstructions compete for one model.

    ``inverses[i]`` maps a latent batch to domain i's valid reconstruction;
    ``observation`` maps the latent batch to what the model actually sees
    (identity when the observed input is the latent itself). In overlapping
    mode every drawn input is valid in all domains at once; in disjoint mode
    each domain draws its own inputs and only contributes its own target.
    Every domain weighs 1 / n_domains in a fit.
    """

    inverses: tuple
    latent_samplers: tuple
    observation: Callable
    mode: str

    @property
    def n_domains(self) -> int:
        return len(self.inverses)

    @classmethod
    def overlapping(
        cls,
        inverses: Sequence[Callable],
        latent_sampler: Callable,
        observation: Optional[Callable] = None,
    ) -> "DomainSpec":
        return cls(
            inverses=tuple(inverses),
            latent_samplers=(latent_sampler,) * len(inverses),
            observation=observation or (lambda u: u),
            mode=OVERLAPPING,
        )

    @classmethod
    def disjoint(
        cls, inverses: Sequence[Callable], latent_samplers: Sequence[Callable]
    ) -> "DomainSpec":
        """Each domain observes its own latent draws as they are."""
        if len(latent_samplers) != len(inverses):
            raise DimensionMismatch("one latent sampler per domain required")
        return cls(
            inverses=tuple(inverses),
            latent_samplers=tuple(latent_samplers),
            observation=lambda u: u,
            mode=DISJOINT,
        )


@dataclass(frozen=True)
class LinearRestorer:
    """Affine map fitted to invert observations; ``loss_log`` is empty for an exact fit."""

    weights: np.ndarray
    bias: np.ndarray
    loss_log: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise Diverged("non-finite parameters after training")
        self.weights.setflags(write=False)
        self.bias.setflags(write=False)

    def predict(self, y: np.ndarray) -> np.ndarray:
        out = np.asarray(y, dtype=np.float64) @ self.weights.T
        out += self.bias
        return out

    def check_training(self) -> bool:
        """Loss log non-increasing up to _TRAINING_SLACK relative to its starting value."""
        log = np.asarray(self.loss_log)
        if len(log) < 2:
            return True
        tol = _TRAINING_SLACK * max(1.0, float(log[0]))
        return bool(np.all(np.diff(log) <= tol))


def _training_blocks(domains: DomainSpec, rng: np.random.Generator, batch: int):
    """Per-domain (inputs, target) blocks; overlapping mode shares draws."""
    if domains.mode == OVERLAPPING:
        u = domains.latent_samplers[0](rng, batch)
        y = domains.observation(u)
        return [(y, g(u)) for g in domains.inverses]
    blocks = []
    for g, sampler in zip(domains.inverses, domains.latent_samplers):
        u = sampler(rng, batch)
        blocks.append((domains.observation(u), g(u)))
    return blocks


# Loss increase, relative to the first logged loss, that check_training forgives.
_TRAINING_SLACK = 1e-9
# Squared-error training stops once no parameter step exceeds this.
_PARAM_TOL = 1e-14
# Absolute-error training stops once its loss is within this relative gap of
# the per-row median lower bound, which certifies it that close to optimal.
_L1_GAP_RTOL = 1e-6


def train_mixed_restorer(
    domains: DomainSpec,
    loss: str = "mse",
    epochs: int = 10_000,
    seed: int = 0,
    batch: int = 512,
) -> LinearRestorer:
    """Fit one affine restorer against every domain's targets at once.

    Full-batch (sub)gradient descent on the weighted multi-domain loss; no
    step size is configured. Squared error steps by 1/L, with
    L = 2 lambda_max([y 1]' [y 1]) / b the Lipschitz constant of its gradient
    on the training draw of b rows ([y 1] holds a column of ones, so
    lambda_max >= b > 0): by the descent lemma no step raises the loss. It
    stops once no parameter moves by more than _PARAM_TOL. ``meta`` records
    the derived ``initial_lr`` and ``epochs_run``.

    Absolute error knows its optimal value, or a bound on it: no model beats
    the per-row minimizer, the lower median of a row's M targets
    (``double_meaning_minimizer``), so lb = (1/(M b)) sum |X - median| bounds
    the loss f from below. It takes Polyak's step (f - lb) / ||G||^2 along
    the subgradient G, and stops once f <= lb (1 + _L1_GAP_RTOL): the iterate
    is then within that relative gap of the optimum. The subgradient method
    guarantees only its best loss, so the lowest-loss iterate is returned.
    ``meta`` records ``epochs_run``, ``lower_bound``, ``certified`` (stopped on
    the bound), ``gap_bound`` (the returned weights' loss over lb, minus 1)
    and ``median_fit``: the least-squares affine fit to the per-row medians,
    an exact minimizer when its ``median_fit_gap`` (likewise) is round-off.

    The domains must overlap (a disjoint spec raises ContractViolation):
    every domain sees one shared input y, so the M domains' targets stack
    into X of shape (M, b, n_out), the prediction y W' + bias is formed once
    per epoch and the residual R = pred - X is one array. Every domain
    weighs 1/M, so the gradient sums R (mse) or sign(R) (l1) over the
    domains first, into one (b, n_out) array, and then takes one product
    with [y 1]: W's gradient, and the bias gradient as its last column.
    """
    if loss not in ("mse", "l1"):
        raise ContractViolation(f"unknown loss {loss!r}")
    if domains.mode != OVERLAPPING:
        raise ContractViolation("train_mixed_restorer needs overlapping domains (one shared input)")
    rng = stream_rng(seed, 0)
    blocks = _training_blocks(domains, rng, batch)
    _check_domains_distinct(domains, blocks)
    y = blocks[0][0]
    x = np.stack([t for _, t in blocks])
    m, b, n_out = x.shape
    n_in = y.shape[1]
    # theta = [W | bias] against [y 1]: one product is the prediction, one
    # the whole gradient, and one step moves both.
    y1 = np.hstack([y, np.ones((b, 1))])
    theta = np.zeros((n_out, n_in + 1))
    # Every domain weighs 1/m and the loss is a mean over b rows.
    loss_scale = 1.0 / m / b
    pred = np.empty((b, n_out))
    r = np.empty_like(x)
    g = np.empty_like(pred)
    step = np.empty_like(theta)
    if loss == "mse":
        lr = b / (2.0 * float(np.linalg.eigvalsh(y1.T @ y1)[-1]))
        meta = {"initial_lr": lr}
    else:
        median = double_meaning_minimizer(x, loss="l1")
        lb = _l1_loss(median, x)
        sign = np.empty_like(x)
        best, best_theta = math.inf, theta.copy()
        meta = {}
    certified = False
    log = []
    for _ in range(epochs):
        np.matmul(y1, theta.T, out=pred)
        np.subtract(pred, x, out=r)
        # mse: sum R**2 and d/dR = 2R; l1: sum |R| = sum sign(R) R and d/dR = sign(R).
        a = r if loss == "mse" else np.sign(r, out=sign)
        total = loss_scale * float(np.vdot(a, r))
        log.append(total)
        if loss == "l1":
            if total < best:
                best, best_theta[...] = total, theta
            if total <= lb * (1.0 + _L1_GAP_RTOL):
                certified = True
                break
        a.sum(axis=0, out=g)
        # The gradient is (2 for mse) loss_scale times this product.
        np.matmul(g.T, y1, out=step)
        if loss == "mse":
            step *= lr * (2.0 * loss_scale)
        else:
            norm_sq = float(np.vdot(step, step))
            if norm_sq == 0.0:  # 0 is a subgradient: theta is a minimizer
                break
            step *= (total - lb) / (loss_scale * norm_sq)
        theta -= step
        if loss == "mse" and np.abs(step).max() <= _PARAM_TOL:
            break
    meta["epochs_run"] = len(log)
    if loss == "l1":
        theta = best_theta
        fit = np.linalg.lstsq(y1, median, rcond=None)[0]
        meta.update(
            lower_bound=lb,
            certified=certified,
            gap_bound=_relative_gap(best, lb),
            median_fit=_exact_restorer(fit),
            median_fit_gap=_relative_gap(_l1_loss(y1 @ fit, x), lb),
        )
    return LinearRestorer(
        weights=theta[:, :n_in].copy(),
        bias=theta[:, n_in].copy(),
        loss_log=tuple(log),
        meta=meta,
    )


def _l1_loss(pred: np.ndarray, x: np.ndarray) -> float:
    """Mean over the b rows and M domains of ||pred - x||_1, x of shape (M, b, n_out)."""
    return float(np.abs(pred - x).sum()) / (x.shape[0] * x.shape[1])


def _relative_gap(value: float, lb: float) -> float:
    if lb > 0:
        return (value - lb) / lb
    return math.inf if value > lb else 0.0


def fit_linear_restorer(domains: DomainSpec, seed: int = 0, batch: int = 512) -> LinearRestorer:
    """Exact minimizer of the objective ``train_mixed_restorer`` descends under mse.

    Same draw. Every domain draws ``batch`` rows, so the least-squares fit over
    all domains' stacked rows minimizes (1/M) sum_i mean_rows ||W y + b - x||^2;
    on overlapping domains that fit is the mean of the per-domain fits
    (``_exact_fits``).
    """
    return _exact_fits(domains, seed, batch)[0]


def _exact_fits(domains: DomainSpec, seed: int, batch: int):
    """The mixed restorer and the M targeted ones, all from one training draw.

    Overlapping domains share the design [y 1], so one least-squares solve
    takes the M targets side by side as right-hand sides. The pseudo-inverse
    is linear in its targets, so the mixed minimizer, the fit to the mean
    target, is the mean of the M targeted fits (with M = 1, the fit itself).
    Disjoint domains fit the mixed restorer on all blocks stacked, and
    targeted restorer i on block i.
    """
    blocks = _training_blocks(domains, stream_rng(seed, 0), batch)
    _check_domains_distinct(domains, blocks)
    designs = [np.hstack([y, np.ones((y.shape[0], 1))]) for y, _ in blocks]
    if domains.mode == OVERLAPPING:
        m, n_out = domains.n_domains, blocks[0][1].shape[1]
        sol = np.linalg.lstsq(designs[0], np.hstack([x for _, x in blocks]), rcond=None)[0]
        targeted = sol.reshape(sol.shape[0], m, n_out).transpose(1, 0, 2)
        mixed = targeted.mean(axis=0)
    else:
        mixed = np.linalg.lstsq(np.vstack(designs), np.vstack([x for _, x in blocks]),
                                rcond=None)[0]
        targeted = [np.linalg.lstsq(d, x, rcond=None)[0] for d, (_, x) in zip(designs, blocks)]
    return _exact_restorer(mixed), tuple(_exact_restorer(t) for t in targeted)


def _exact_restorer(sol: np.ndarray) -> LinearRestorer:
    """The restorer of a least-squares solution against [y 1]: bias in the last row."""
    return LinearRestorer(weights=sol[:-1].T.copy(), bias=sol[-1].copy(), loss_log=())


def _check_domains_distinct(domains: DomainSpec, blocks) -> None:
    if domains.n_domains < 2 or domains.mode != OVERLAPPING:
        return
    base, *rest = [x for _, x in blocks]
    if all(np.allclose(base, t, rtol=1e-5, atol=1e-12) for t in rest):
        raise DomainsCoincide("all domain inverses agree on every probed input")


def residual_sigma(sigma1: float, sigma2: float) -> float:
    """Std sqrt(sigma2^2 - sigma1^2) of the blur taking a sigma1 blur to sigma2;
    rejects pairs whose difference of squares is not positive as a float."""
    if sigma2 > sigma1 > 0:
        sigma_res = math.sqrt(sigma2**2 - sigma1**2)
        if sigma_res > 0:
            return sigma_res
    raise ContractViolation("need sigma2 > sigma1 > 0")


def resolution_shift_prediction(x2: np.ndarray, sigma1: float, sigma2: float) -> np.ndarray:
    """Averaged reconstruction when two blur levels explain one observation.

    Returns the mean of the finer-domain target (the signal re-blurred by the
    residual kernel) and the coarser-domain target (the signal itself):
    0.5 * (I + H_residual) x2 with residual std sqrt(sigma2^2 - sigma1^2).
    """
    x2 = np.asarray(x2, dtype=np.float64)
    h = blur_matrix(len(x2), residual_sigma(sigma1, sigma2))
    return 0.5 * (x2 + h.apply(x2))


@dataclass(frozen=True)
class MixedVsTargetedReport:
    """Held-out per-domain error of one shared restorer vs per-domain ones."""

    mixed_errors: tuple
    targeted_errors: tuple

    @property
    def gaps(self) -> tuple:
        return tuple(m - t for m, t in zip(self.mixed_errors, self.targeted_errors))


# Fresh draws per domain on which mixed_vs_targeted_report measures error.
_EVAL_BATCH = 1024


def mixed_vs_targeted_report(
    domains: DomainSpec, seed: int = 0, batch: int = 512
) -> MixedVsTargetedReport:
    """Fit one restorer over all domains and one per domain, then compare.

    All M + 1 restorers are exact least-squares fits to one training draw
    (``_exact_fits``): on overlapping domains one solve, whose mean over the
    domains is the mixed restorer. The per-domain metric is mean squared
    error on _EVAL_BATCH fresh draws from that domain. A shared restorer can
    only match the targeted ones when nothing forces averaging (single
    domain, or domains distinguishable from the input); overlapping distinct
    domains open a strict gap.
    """
    mixed, targeted = _exact_fits(domains, seed, batch)
    mixed_errors, targeted_errors = zip(*(_held_out_errors(domains, i, seed, (mixed, solo))
                                          for i, solo in enumerate(targeted)))
    return MixedVsTargetedReport(mixed_errors, targeted_errors)


def _held_out_errors(domains: DomainSpec, i: int, seed: int, restorers) -> list:
    """Each restorer's mean squared error on _EVAL_BATCH fresh draws from
    domain i: ``np.mean((restorer.predict(y) - x) ** 2)`` in one buffer, the
    same ufuncs in the same order, so the same bits. Only y, x and that
    buffer are alive at a time."""
    u = domains.latent_samplers[i](stream_rng(seed, 1000 + i), _EVAL_BATCH)
    y = domains.observation(u)
    x = domains.inverses[i](u)
    del u
    errors = []
    for restorer in restorers:
        r = restorer.predict(y)
        r -= x
        np.multiply(r, r, out=r)
        errors.append(float(np.mean(r)))
        del r
    return errors


# ---------------------------------------------------------------------------
# ready-made instances
# ---------------------------------------------------------------------------


def scaling_domains(dim: int, scales: Sequence[float] = (1.0, 2.0)) -> DomainSpec:
    """Overlapping domains whose valid reconstructions are scaled copies of
    the input; the mixed optimum is the mean-scale map."""
    inverses = [linear_map(float(s) * np.eye(dim)) for s in scales]
    return DomainSpec.overlapping(inverses, latent_sampler=gaussian_latents(dim))


def two_blur_domains(n: int, sigma1: float, sigma2: float) -> DomainSpec:
    """Two blur levels explaining one observation.

    The latent is the coarse-domain source (noise smoothed by the sigma2
    blur); the observation is its strong blur. The fine domain's valid
    reconstruction is the latent re-blurred by the residual kernel, the
    coarse domain's is the latent itself.
    """
    h_res = blur_matrix(n, residual_sigma(sigma1, sigma2))
    h2 = blur_matrix(n, sigma2)

    def latents(rng: np.random.Generator, b: int) -> np.ndarray:
        return rng.standard_normal((b, n)) @ h2.matrix.T

    return DomainSpec.overlapping(
        inverses=[linear_map(h_res.matrix), lambda u: u],
        latent_sampler=latents,
        observation=linear_map(h2.matrix),
    )


# Std of the blur that smooths the latent noise of decimation_domains.
_DECIMATION_SMOOTHING = 2.0


def decimation_domains(n: int) -> DomainSpec:
    """Full-rate and half-rate readings of the same observation.

    The half-rate domain's valid reconstruction renders every other sample
    held for two slots (a length-preserving decimate-then-hold), the
    full-rate domain's is the signal as is. Supports overlap entirely, so a
    shared restorer must average the two renderings.
    """
    if n % 2:
        raise ContractViolation("need an even signal length")
    smooth = blur_matrix(n, _DECIMATION_SMOOTHING)
    hold = np.zeros((n, n))
    hold[np.arange(n), (np.arange(n) // 2) * 2] = 1.0

    def latents(rng: np.random.Generator, b: int) -> np.ndarray:
        return rng.standard_normal((b, n)) @ smooth.matrix.T

    return DomainSpec.overlapping(
        inverses=[lambda u: u, linear_map(hold)],
        latent_sampler=latents,
    )


def offset_indicator_domains(dim: int, d1: float, d2: float, disjoint: bool) -> DomainSpec:
    """Constant-offset domains, with or without a domain-revealing coordinate.

    Inputs are (signal, flag); each domain's valid reconstruction is the
    signal shifted by its own constant. With flags +-1 the input supports are
    disjoint and one affine map serves both domains exactly; with flag 0 the
    supports coincide and averaging is forced.
    """

    def inverse(offset: float) -> Callable:
        return lambda y: y[:, :dim] + offset

    def sampler(flag: float) -> Callable:
        def draw(rng: np.random.Generator, b: int) -> np.ndarray:
            t = rng.standard_normal((b, dim))
            return np.hstack([t, np.full((b, 1), flag)])

        return draw

    inverses = [inverse(float(d1)), inverse(float(d2))]
    if disjoint:
        return DomainSpec.disjoint(inverses, latent_samplers=[sampler(1.0), sampler(-1.0)])
    return DomainSpec.overlapping(inverses, latent_sampler=sampler(0.0))
