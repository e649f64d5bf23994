"""Mixed-domain training and its averaging failure mode.

When several domains explain the same observed input, the loss-minimizing
output is the per-loss centroid of the domains' valid reconstructions: the
weighted mean under squared error, the coordinatewise weighted median under
absolute error. Every domain here is a Gaussian latent through affine maps
(``DomainSpec``), so every number about an affine restorer is exact: the
least-squares fits (``fit_linear_restorer``), their population risks in the
mixed-versus-targeted report, and the absolute-error minimizer
(``fit_median_restorer``), all fitted without iterating. The
resolution-shift closed form is built from blur operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

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


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53 the unit round-off of
    float64: the relative error bound of k successive roundings (Higham 2002,
    sec. 3.1)."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


@dataclass(frozen=True)
class DomainSpec:
    """Several domains whose valid reconstructions compete for one model.

    Domain i draws latent rows u = z F_i' + mu_i from standard-normal rows z;
    the model sees y = u O', and domain i's valid reconstruction is
    x = u T_i' + c_i. In overlapping mode the domains share F, mu and one
    latent draw, so every drawn input is valid in all domains at once; in
    disjoint mode each domain draws its own inputs and only contributes its
    own target. Every domain weighs 1 / n_domains in a fit.
    """

    inverses: tuple  # T_i
    offsets: tuple  # c_i
    factors: tuple  # F_i
    means: tuple  # mu_i
    observation: np.ndarray  # O
    mode: str

    def __post_init__(self):
        if self.mode == OVERLAPPING and not all(
                np.array_equal(f, self.factors[0]) and np.array_equal(mu, self.means[0])
                for f, mu in zip(self.factors, self.means)):
            raise ContractViolation("overlapping domains share one latent draw: equal F_i and mu_i")

    @property
    def n_domains(self) -> int:
        return len(self.inverses)

    @classmethod
    def overlapping(cls, inverses: Sequence[np.ndarray], factor: np.ndarray,
                    observation: Optional[np.ndarray] = None,
                    offsets: Optional[Sequence[np.ndarray]] = None) -> "DomainSpec":
        """One latent draw for all domains, with mu = 0; O = I and c_i = 0 unless given."""
        m, n_lat = len(inverses), len(factor)
        if offsets is None:
            offsets = [np.zeros(len(t)) for t in inverses]
        return cls(tuple(inverses), tuple(offsets), (factor,) * m, (np.zeros(n_lat),) * m,
                   np.eye(n_lat) if observation is None else observation, OVERLAPPING)


@dataclass(frozen=True)
class LinearRestorer:
    """Affine map fitted to invert observations."""

    weights: np.ndarray
    bias: np.ndarray
    meta: dict

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise Diverged("non-finite parameters after the fit")
        self.weights.setflags(write=False)
        self.bias.setflags(write=False)

    def predict(self, y: np.ndarray) -> np.ndarray:
        out = np.asarray(y, dtype=np.float64) @ self.weights.T
        out += self.bias
        return out


def _training_blocks(domains: DomainSpec, rng: np.random.Generator, batch: int):
    """Per-domain (inputs, target) blocks; overlapping mode shares one draw."""
    blocks = []
    for f, mu, t, c in zip(domains.factors, domains.means, domains.inverses, domains.offsets):
        if not blocks or domains.mode == DISJOINT:
            u = rng.standard_normal((batch, f.shape[1])) @ f.T + mu
            y = u @ domains.observation.T
        blocks.append((y, u @ t.T + c))
    return blocks


def _stacked_draw(domains: DomainSpec, seed: int, batch: int):
    """The design [y 1] of one overlapping training draw, and the M domains'
    targets stacked into X of shape (M, b, n_out)."""
    if domains.mode != OVERLAPPING:
        raise ContractViolation("need overlapping domains (one shared input)")
    blocks = _training_blocks(domains, stream_rng(seed, 0), batch)
    _check_domains_distinct(domains, blocks)
    y = blocks[0][0]
    return np.hstack([y, np.ones((y.shape[0], 1))]), np.stack([t for _, t in blocks])


def fit_median_restorer(domains: DomainSpec, seed: int, batch: int) -> LinearRestorer:
    """The absolute-error minimizer, when an affine map attains the bound.

    No model beats the per-row lower median of the M targets, so
    lb = (1/(M b)) sum |X - median| bounds the loss from below. The restorer
    is the least-squares fit to the medians against [y 1] (b x p): when they
    are affine in y it attains lb. ``meta`` records lb (``lower_bound``),
    the fit's loss over lb minus 1 (``optimality_gap``) and round-off floors:
    - ``weight_floor`` on each parameter: the largest column bound of
      ``_lstsq``, which covers the medians' rounding;
    - ``gap_floor`` on the gap: a prediction P's loss is within
      ||P - median||_1 / b of lb, P moves by the weight floor times |[y 1]|
      plus gamma_{p+1} |[y 1]| |theta|, and each loss sums X.size terms.
    """
    y1, x = _stacked_draw(domains, seed, batch)
    b, p = y1.shape
    median = double_meaning_minimizer(x, loss="l1")
    sol, col_floors = _lstsq(y1, median)
    lb, loss = _l1_loss(median, x), _l1_loss(y1 @ sol, x)
    weight_floor = float(col_floors.max())
    abs_y1 = np.abs(y1)
    moved = (sol.shape[1] * weight_floor * float(abs_y1.sum())
             + _gamma(p + 1) * float((abs_y1 @ np.abs(sol)).sum()))
    slack = moved / b + _gamma(x.size + 1) * (loss + lb)
    fit = _exact_restorer(sol, col_floors)
    fit.meta.update(lower_bound=lb, optimality_gap=_relative_gap(loss, lb),
                    weight_floor=weight_floor, gap_floor=slack / lb if lb > 0 else math.inf)
    return fit


def _lstsq(design: np.ndarray, rhs: np.ndarray):
    """lstsq's solution of design @ sol = rhs (design b x p), and per column k
    a bound on the distance of sol_k from the exact minimum-norm solution.

    lstsq (LAPACK's SVD solver gelsd) has a relative backward error p(b, p) u
    with p "modestly growing" and unstated (LAPACK Users' Guide, sec. 4.5);
    e = sqrt(p) gamma_{bp}, Householder QR's (Higham 2002, Thm 20.3), stands
    in for it, so the bound is a proxy. Wedin's bound (Higham 2002, Thm 20.1)
    on the rank-r problem lstsq keeps, kappa = sigma_1 / sigma_r, is then
    kappa e / (1 - kappa e) (2 ||sol_k|| + (kappa + 1) ||r_k|| / sigma_1) with
    r = design @ sol - rhs, to first order in e; infinite once kappa e >= 1.
    """
    sol, _, rank, sv = np.linalg.lstsq(design, rhs, rcond=None)
    kappa = float(sv[0] / sv[rank - 1])
    ke = kappa * math.sqrt(design.shape[1]) * _gamma(design.size)
    if ke >= 1.0:
        return sol, np.full(sol.shape[1], math.inf)
    # One residual column at a time: no b x n_rhs array beside lstsq's.
    r = np.array([np.linalg.norm(design @ sol[:, k] - rhs[:, k]) for k in range(sol.shape[1])])
    return sol, ke / (1.0 - ke) * (2.0 * np.linalg.norm(sol, axis=0)
                                   + (kappa + 1.0) / float(sv[0]) * r)


def _l1_loss(pred: np.ndarray, x: np.ndarray) -> float:
    """Mean over the b rows and M domains of ||pred - x||_1, x of shape (M, b, n_out)."""
    return float(np.abs(pred - x).sum()) / (x.shape[0] * x.shape[1])


def _relative_gap(value: float, lb: float) -> float:
    if lb > 0:
        return (value - lb) / lb
    return math.inf if value > lb else 0.0


def fit_linear_restorer(domains: DomainSpec, seed: int = 0, batch: int = 512) -> LinearRestorer:
    """The mixed restorer: the exact minimizer of the multi-domain squared error.

    Every domain draws ``batch`` rows, so the least-squares fit over all
    domains' stacked rows minimizes (1/M) sum_i mean_rows ||W y + b - x||^2;
    on overlapping domains that fit is the mean of the per-domain fits
    (``_exact_fits``). ``meta["param_floor"]`` bounds its round-off.
    """
    return _exact_fits(domains, seed, batch)[0]


def _exact_fits(domains: DomainSpec, seed: int, batch: int):
    """The mixed restorer and the M targeted ones, all from one training draw.

    Overlapping domains share the design [y 1], so one least-squares solve
    takes the M targets side by side as right-hand sides. The pseudo-inverse
    is linear in its targets, so the mixed minimizer, the fit to the mean
    target, is the mean of the M targeted fits (with M = 1, the fit itself).
    Disjoint domains fit the mixed restorer on all blocks stacked, and
    targeted restorer i on block i. Each restorer's ``meta["param_floor"]``
    bounds the Frobenius distance of [W | b] from the exact fit's (``_lstsq``,
    plus the rounding of the mixed mean, at most gamma_M mean |theta_i|).
    """
    if domains.mode == OVERLAPPING:
        y1, x = _stacked_draw(domains, seed, batch)
        m, _, n_out = x.shape
        # The M targets side by side: row r holds x_1[r], ..., x_M[r].
        sol, col_floors = _lstsq(y1, x.transpose(1, 0, 2).reshape(batch, m * n_out))
        targeted = sol.reshape(sol.shape[0], m, n_out).transpose(1, 0, 2)
        per = col_floors.reshape(m, n_out)
        rounding = _gamma(m) * np.linalg.norm(np.abs(targeted).mean(axis=0), axis=0)
        fits = [(targeted.mean(axis=0), per.mean(axis=0) + rounding), *zip(targeted, per)]
    else:
        blocks = _training_blocks(domains, stream_rng(seed, 0), batch)
        ones = np.ones((batch, 1))
        designs = [np.hstack([y, ones]) for y, _ in blocks]
        fits = [_lstsq(np.vstack(designs), np.vstack([x for _, x in blocks]))]
        fits += [_lstsq(d, x) for d, (_, x) in zip(designs, blocks)]
    mixed, *targeted = (_exact_restorer(*fit) for fit in fits)
    return mixed, tuple(targeted)


def _exact_restorer(sol: np.ndarray, col_floors) -> LinearRestorer:
    """The restorer of a least-squares solution against [y 1], bias in the
    last row, given bounds on each column's round-off (``_lstsq``)."""
    return LinearRestorer(weights=sol[:-1].T.copy(), bias=sol[-1].copy(),
                          meta={"param_floor": float(np.linalg.norm(col_floors))})


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
    return 0.5 * (x2 + blur_matrix(len(x2), residual_sigma(sigma1, sigma2)) @ x2)


@dataclass(frozen=True)
class MixedVsTargetedReport:
    """Per-domain population risk of one shared restorer vs per-domain ones;
    per gap, the round-off of evaluating it (``floors``) and how far the
    fits' own round-off can move it from the exact fits' gap
    (``fit_floors``); and on overlapping domains (None on disjoint) the price
    of averaging E||x_i - x_bar||^2 / n_out, x_bar the mean target."""

    mixed_risks: tuple
    targeted_risks: tuple
    floors: tuple
    fit_floors: tuple
    averaging_costs: Optional[tuple]

    @property
    def gaps(self) -> tuple:
        return tuple(m - t for m, t in zip(self.mixed_risks, self.targeted_risks))


def mixed_vs_targeted_report(domains: DomainSpec, seed: int = 0,
                             batch: int = 512) -> MixedVsTargetedReport:
    """Fit one restorer over all domains and one per domain, then compare.

    All M + 1 restorers are exact least-squares fits to one training draw
    (``_exact_fits``): on overlapping domains one solve, whose mean over the
    domains is the mixed restorer. Each domain's metric is a restorer's
    population risk there (``_risk``). A shared restorer can only match the
    targeted ones when nothing forces averaging (single domain, or domains
    distinguishable from the input); overlapping distinct domains open a
    strict gap, the averaging cost when the fits are exact.
    """
    mixed, targeted = _exact_fits(domains, seed, batch)
    (rm, fm, gm), (rt, ft, gt) = (zip(*(_risk(domains, i, r) for i, r in enumerate(rs)))
                                  for rs in ((mixed,) * len(targeted), targeted))
    costs = None
    if domains.mode == OVERLAPPING:
        t_bar, c_bar = np.mean(domains.inverses, axis=0), np.mean(domains.offsets, axis=0)
        costs = tuple(float(np.vdot(e, e)) / len(e) for e in (
            _error_factor(domains, i, t_bar, c_bar) for i in range(len(targeted))))
    return MixedVsTargetedReport(rm, rt, tuple(a + b for a, b in zip(fm, ft)),
                                 tuple(a + b for a, b in zip(gm, gt)), costs)


def _error_factor(domains: DomainSpec, i: int, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """E = [A F_i | A mu_i + v - c_i] with A = m - T_i: the prediction u m' + v
    from domain i's latent u = z F_i' + mu_i errs by E [z; 1]."""
    a = m - domains.inverses[i]
    return np.hstack([a @ domains.factors[i],
                      (a @ domains.means[i] + v - domains.offsets[i])[:, None]])


def _risk(domains: DomainSpec, i: int, restorer: LinearRestorer):
    """Population risk E||W y + b - x_i||^2 / n_out of ``restorer`` on domain
    i, a bound on its round-off, and a bound on how far the fit's round-off
    moves it from the exact fit's risk.

    The restorer predicts u (W O)' + b, which errs by E [z; 1]
    (``_error_factor``), so the risk is ||E||_F^2 / n_out. Each entry of E
    takes at most K = n_obs + n_lat + 3 roundings, so the computed E is off
    by at most d = gamma_K s in Frobenius norm, where s = (||W|| ||O|| +
    ||T_i||) (||F_i|| + ||mu_i||) + ||b|| + ||c_i|| bounds the terms summed;
    ||E||^2 moves by at most d (2 ||E|| + d), and its own sum rounds by at
    most gamma_{E.size} ||E||^2. The fit's parameters [W | b] sit within
    ``meta["param_floor"]`` of the exact fit's in Frobenius norm, and
    [y 1] = [z 1] H_i with ||H_i|| <= ||O|| (||F_i|| + ||mu_i||) + 1, so the
    exact fit's E is within d_f = param_floor ||H_i|| of this one's.
    """
    w, b, o = restorer.weights, restorer.bias, domains.observation
    e = _error_factor(domains, i, w @ o, b)
    sq, n_out = float(np.vdot(e, e)), len(e)
    norm = np.linalg.norm
    latent = norm(domains.factors[i]) + norm(domains.means[i])
    s = (norm(w) * norm(o) + norm(domains.inverses[i])) * latent + norm(b) + norm(domains.offsets[i])
    d = _gamma(sum(o.shape) + 3) * float(s)
    d_f = restorer.meta["param_floor"] * (float(norm(o)) * latent + 1.0)
    root = math.sqrt(sq) + d
    return (sq / n_out, (_gamma(e.size) * sq + d * (2.0 * math.sqrt(sq) + d)) / n_out,
            d_f * (2.0 * root + d_f) / n_out)


# ---------------------------------------------------------------------------
# ready-made instances
# ---------------------------------------------------------------------------


def scaling_domains(dim: int, scales: Sequence[float] = (1.0, 2.0)) -> DomainSpec:
    """Overlapping domains whose valid reconstructions are scaled copies of
    the input; the mixed optimum is the mean-scale map."""
    return DomainSpec.overlapping([float(s) * np.eye(dim) for s in scales], factor=np.eye(dim))


def two_blur_domains(n: int, sigma1: float, sigma2: float) -> DomainSpec:
    """Two blur levels explaining one observation.

    The latent is the coarse-domain source (noise smoothed by the sigma2
    blur); the observation is its strong blur. The fine domain's valid
    reconstruction is the latent re-blurred by the residual kernel, the
    coarse domain's is the latent itself.
    """
    h2 = blur_matrix(n, sigma2)
    h_res = blur_matrix(n, residual_sigma(sigma1, sigma2))
    return DomainSpec.overlapping([h_res, np.eye(n)], factor=h2, observation=h2)


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
    hold = np.zeros((n, n))
    hold[np.arange(n), (np.arange(n) // 2) * 2] = 1.0
    return DomainSpec.overlapping([np.eye(n), hold],
                                  factor=blur_matrix(n, _DECIMATION_SMOOTHING))


def offset_indicator_domains(dim: int, d1: float, d2: float, disjoint: bool) -> DomainSpec:
    """Constant-offset domains, with or without a domain-revealing coordinate.

    Inputs are (signal, flag); each domain's valid reconstruction is the
    signal shifted by its own constant. With flags +-1 the input supports are
    disjoint and one affine map serves both domains exactly; with flag 0 the
    supports coincide and averaging is forced.
    """
    factor = np.eye(dim + 1, dim)  # the signal; the flag is the mean's last entry, 0 if shared
    signal = np.eye(dim, dim + 1)
    offsets = [np.full(dim, float(d)) for d in (d1, d2)]
    if disjoint:
        means = [np.append(np.zeros(dim), flag) for flag in (1.0, -1.0)]
        return DomainSpec([signal] * 2, offsets, [factor] * 2, means, np.eye(dim + 1), DISJOINT)
    return DomainSpec.overlapping([signal] * 2, factor=factor, offsets=offsets)
