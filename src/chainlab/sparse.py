"""Sparse spike trains, l1-regularized inversion, and recovery certificates.

The observation model is a Toeplitz matrix whose columns are shifted
Gaussian kernel evaluations, plus additive noise. Inversion comes in two
modes. The penalized mode is l1-penalized least squares (the lasso), solved
column by column to a certified exact minimizer: batched over-relaxed ADMM
in float32 proposes the sign pattern, an exact float64 solve on that pattern
polishes it, and the lasso KKT conditions accept or reject each column. The
polish reads only the signs, an int8 pattern, so a column is polished again
only when its signs have changed since its last failed polish. A column that
ADMM has not certified after max_iter iterations goes to feature-sign
search, a finite float64 active-set method run in lock-step over the handed
off columns, a block's worth at a time. Each of its steps is one polish of a
column's current signs, so the one solve and certificate judge the column
at every step; a column the search leaves uncertified from ADMM's iterate is
searched once more from zero. The columns stream through this solve: it
fetches the right-hand sides each refill of its block needs, into buffers
of the block's width allocated once, and hands every finished column, with
its ADMM count and certificate, to its caller, so the solve holds nothing of
one entry per column. The rate pipeline draws its measurements a chunk of
replicates at a time and keeps only each reconstruction's l1 mass. A
penalty path (one penalty per column) is the same search alone, one column
at a time, each started from the last one's answer. The constrained mode,
min ||x||_1 s.t. ||y - Gx||_1 <= delta, is a linear program and is solved
exactly for each column of y, so its answer is the constrained minimizer
that the recovery certificates bound. The LP is taken in equality form,
x = u - v and y - Gx = p - q, with m + 1 rows for m measurements:

    min 1'(u + v)  s.t.  G(u - v) + p - q = y,  1'(p + q) + s = delta,
                         u, v, p, q, s >= 0.

A revised dual simplex solves it, a block of columns at a time; the block
size is derived from m so that the blocks' states take about 0.5 MiB. Each
column starts from the basis of p_i where y_i >= 0 (q_i elsewhere) and the
budget slack s. That basis is triangular (signs on the diagonal, ones in
the budget row), so its inverse is known in closed form, and every basic
cost is zero, so all reduced costs equal the costs, 1 or 0: the basis is
dual feasible, and only the budget row starts primal infeasible
(s = delta - ||y||_1 < 0). A column keeps only [B^-1 | z_B]; a pivot
takes one row of B^-1, forms its row of B^-1 a from a's structure (one
product with G) and makes a rank-1 update. With delta == 0 the feasible
set of the square, nonsingular G is the single point G^{-1} y, which is
solved for directly, column by column.

Certificates evaluate the closed-form recovery error bounds for admissible
kernels; the Gaussian kernel's positivity/curvature constants (beta, eps)
follow from the concavity of the kernel near its peak: for
g(t) = exp(-t^2 / 2 sigma^2), g'' <= -exp(-1/4)/(2 sigma^2) on
|t| <= sigma/sqrt(2), giving eps = sigma/sqrt(2) and beta = |g''| there.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ContractViolation, ZeroL1Norm
from .restorers import _mse_stderr
from .rng import stream_rng


def gaussian_admissibility(sigma: float) -> tuple:
    """(beta, eps) of the Gaussian kernel, from peak concavity."""
    eps = sigma / math.sqrt(2.0)
    beta = math.exp(-0.25) / (2.0 * sigma**2)
    return beta, eps


# The kernel's peak value and its curvature scale; both 1 for the unit-peak,
# shift-invariant Gaussian kernel.
ALPHA0 = GAMMA0 = 1.0


def check_kernel_size(sigma: float, n: int, fs: float) -> None:
    """The size contract of ``kernel_matrix``, checked without building
    anything: sigma > 0 and n >= 8 sigma fs."""
    if not sigma > 0:
        raise ContractViolation(f"sigma must be > 0, got {sigma}")
    if n < 8 * sigma * fs:
        raise ContractViolation(f"n={n} too short for sigma*fs={sigma * fs}")


def kernel_matrix(sigma: float, n: int, fs: float = 1.0) -> np.ndarray:
    """The read-only n x n Gaussian-kernel matrix on length-n signals sampled
    at rate fs.

    Column m holds g((k - m)/fs) with g(t) = exp(-t^2 / (2 sigma^2)); the
    kernel peak value is 1, so ALPHA0 = GAMMA0 = 1 for this shift-invariant
    case.
    """
    check_kernel_size(sigma, n, fs)
    # g((k - m)/fs) depends on k - m alone: evaluate it once on the 2n - 1
    # offsets and copy a reversed sliding window of that profile, so that the
    # build holds one n x n array. Each entry takes the same float operations
    # as in the outer difference k[:, None] - k[None, :], so the bits agree.
    t = np.arange(1 - n, n, dtype=np.float64) / fs
    profile = np.exp(-(t**2) / (2.0 * sigma**2))
    g = np.lib.stride_tricks.sliding_window_view(profile, n)[:, ::-1].copy()
    g.setflags(write=False)
    return g


@dataclass(frozen=True)
class SolveResult:
    x_hat: np.ndarray
    converged: bool
    iterations: int
    unconverged: int  # columns of y whose solve is not converged or certified
    column_iterations: tuple  # iterations, pivots or steps of each column; max is ``iterations``
    finished: int = 0  # penalized columns that feature-sign search certified


# ADMM penalty rho, as a fraction of the mean eigenvalue tr(A)/n of A = G'G / sigma_z^2.
_ADMM_RHO = 0.008
# Over-relaxation alpha of the ADMM x-update (Boyd et al. 2011, sec. 3.4.3).
_ADMM_RELAX = 1.8
# ADMM iterations between two polish-and-certify rounds.
_POLISH_EVERY = 50
# ADMM iterations after which the pipeline hands a column to the feature-sign
# finisher: 21 of its 2 500 000 columns at the defaults over seeds 0-99. ADMM
# certifies every other one by 1 900 iterations (99.99% by 1 000).
_ADMM_HANDOFF = 2_000
# Columns iterated together; bounds the working set of a batched solve: the
# b it holds, and the up to _ADMM_BLOCK n x n matrices a polish stacks (under
# twice as many in the feature-sign finisher, whose pool of handed-off
# columns is searched once it holds _ADMM_BLOCK).
_ADMM_BLOCK = 1024
# Stationarity on the support holds to this fraction of |A||x| + |b| + lam,
# the magnitudes summed in Ax - b + lam s (round-off measured up to 1e-14).
_KKT_ROUNDOFF = 1e-12
# Off the support: |(Ax - b)_j| <= lam (1 + _KKT_DUAL_RTOL).
_KKT_DUAL_RTOL = 1e-9
# Feature-sign steps a search may take, per unknown: the worst case is
# exponential (Mairal & Yu 2012), and a column past the cap stays uncertified.
# The pipeline's columns (seed 0) take at most 1.5 n from zero at the default
# noise and 2.7 n at sigma_n = 1e-3, and 1.9 n from ADMM's hand-off there;
# the sweep's path columns take at most 30 steps (0.5 n) at seeds 0-99.
_FEATURE_SIGN_STEPS = 4


def _supports(a: np.ndarray, on: np.ndarray):
    """The columns of a boolean (n, c) mask grouped by support size: yields,
    for each size k >= 1 in use, (cols, rows, a_ss), rows[i] holding column
    cols[i]'s support in increasing order and a_ss[i] its k x k block of a."""
    sizes = on.sum(axis=0)
    for k in sorted(set(sizes.tolist()) - {0}):
        cols = (sizes == k).nonzero()[0]
        rows = on.T[cols].nonzero()[1].reshape(-1, k)
        yield cols, rows, a[rows[:, :, None], rows[:, None, :]]


def _polish(a: np.ndarray, b: np.ndarray, lam: float, z: np.ndarray) -> tuple:
    """Exact solve on the support and signs of z, and its KKT certificate.

    For each column, with S the support of z and s its signs there, solves
    A_SS x_S = b_S - lam s_S (x = 0 off S), one stacked solve per support
    size. The column is certified when x keeps the signs s, stationarity
    (Ax - b)_S + lam s_S = 0 holds to round-off, and |(Ax - b)_j| <= lam off
    S: these are the KKT conditions of min 0.5 x'Ax - b'x + lam ||x||_1, so a
    certified x is its exact minimizer. Only the signs of z are read, and z
    may be of any numeric dtype, such as an int8 sign pattern: two z of one
    sign pattern give the same result. Returns (x, certified), x in float64;
    the columns of a stacked solve that meets an exactly singular A_SS hold
    NaN on S and are not certified.
    """
    s = np.sign(z)
    on = s != 0
    x, rhs = np.zeros(z.shape), b - lam * s
    for cols, rows, a_ss in _supports(a, on):
        at = (rows, cols[:, None])
        try:
            x[at] = np.linalg.solve(a_ss, rhs[at][..., None])[..., 0]
        except np.linalg.LinAlgError:  # an exactly singular A_SS in the group
            x[at] = np.nan
    grad = a @ x
    grad -= b
    roundoff = np.abs(a) @ np.abs(x)
    roundoff += np.abs(b)
    roundoff += lam
    roundoff *= _KKT_ROUNDOFF
    # x keeps the signs s on S, and x = s = 0 off S, where grad + lam s = grad.
    kkt = np.sign(x) == s
    kkt &= np.abs(grad + lam * s) <= np.where(on, roundoff, lam * (1.0 + _KKT_DUAL_RTOL))
    return x, kkt.all(axis=0)


def _column_source(blocks) -> Callable:
    """The fetch of _certified_lasso over an iterable of (n, k) blocks of
    columns: fetch(k) returns the next k columns, (n, k), taking blocks from
    the iterable only as it needs them."""
    blocks = iter(blocks)
    block, served = np.zeros((0, 0)), 0  # the block being served, its columns served

    def fetch(k: int) -> np.ndarray:
        nonlocal block, served
        parts = []
        while k > 0:
            if served == block.shape[1]:
                block, served = next(blocks), 0
            take = min(k, block.shape[1] - served)
            parts.append(block[:, served:served + take])
            served += take
            k -= take
        return np.hstack(parts)

    return fetch


def _certified_lasso(a: np.ndarray, fetch: Callable, c: int, lam: float, max_iter: int,
                     collect: Callable) -> int:
    """min 0.5 x'Ax - b'x + lam ||x||_1 for each of c columns b, certified per column.

    The columns stream through the solve: fetch(k) returns the next k columns
    of b, (n, k), and collect(cols, x, iterations, certified) receives, for
    the columns numbered cols as they finish, their answers x, (n, len(cols)),
    their ADMM counts and whether each is certified. b is held only for the
    live block, and no answer and nothing of one entry per column is held at
    all. Over-relaxed ADMM for the lasso (Boyd et al. 2011, secs. 3.4.3 and
    6.4; Eckstein & Bertsekas 1992) proposes sign patterns in float32; only
    the float64 _polish and its certificate accept one. alpha = _ADMM_RELAX
    is folded into one step matrix formed once from (A + rho I)^{-1}, and a
    block of at most _ADMM_BLOCK live columns iterates together, in buffers
    allocated once at that width (c, if fewer): the live columns fill their
    leading slots, in the order they were fetched. Every _POLISH_EVERY
    iterations each live column whose sign pattern differs from the one it
    was last polished on is polished on that int8 pattern; the others are
    skipped, since _polish reads only the signs and that pattern already
    failed. Certified columns, and columns that reached max_iter, leave the
    block, the columns that stay are compacted in place, and the next
    columns are fetched into the free slots (a refill). max_iter is the
    hand-off: a column still uncertified then joins the finisher's pool with
    its b and its last ADMM iterate, and leaves the block. Once the pool
    holds _ADMM_BLOCK columns (c, if fewer), or at the end of the stream, the
    feature-sign finisher (_feature_sign_polish) searches all of it in
    lock-step, each column from its iterate, and retries from zero a column
    it leaves uncertified: a block's worth of columns amortizes the search's
    per-step cost, which a round's few hand-offs do not. The pool holds
    fewer than twice that many columns. With max_iter = 0 no ADMM step is
    taken: one polish of x = 0 certifies the columns whose minimizer is 0,
    and every other column goes to the finisher from zero. Columns do not
    interact, so each runs as it would alone, in any order. Returns the
    number of columns the finisher certified; an uncertified column's answer
    is the last iterate of the finisher's first search.
    """
    n = a.shape[0]
    rho = _ADMM_RHO * float(np.trace(a)) / n
    inv = np.linalg.inv(a + rho * np.eye(n))
    step = (_ADMM_RELAX * rho * inv + (1.0 - _ADMM_RELAX) * np.eye(n)).astype(np.float32)
    # The float32 state is kept in units of scale, a power of two that brings
    # alpha |x0| <= alpha ||inv||_inf max |b| below 1 (x0 = inv b, the x of
    # z = u = 0) for every column fetched so far: an exact change of units,
    # which only keeps the state in float32's range. The first refill sets
    # the unit; a refill with a larger max |b| lowers it, and the live x0, u
    # and w are rescaled by the exact power of two between the two units. A
    # threshold tau outside 2^-60..2^60 of the unit acts as 0 or as
    # infinity, and is clamped there.
    gain = _ADMM_RELAX * np.abs(inv).sum(axis=1).max()
    bound, scale = 0.0, 1.0

    # Live columns, in the first `size` slots: index, iterations run, b,
    # alpha x0, the ADMM state u, w, and the sign pattern last polished (2,
    # no sign, before the first polish); v and t are scratch. With
    # x = x0 + rho (A + rho I)^{-1} w and z = w + u, the relaxed point plus u
    # is v = alpha x + (1 - alpha) z + u = step w + alpha x0 + (2 - alpha) u;
    # the z-update soft-thresholds v at tau, the scaled dual update leaves
    # u = v - z = clip(v, -tau, tau), and w = z - u.
    width = min(_ADMM_BLOCK, c)
    live, runs = np.zeros(width, dtype=np.intp), np.zeros(width, dtype=np.intp)
    b = np.zeros((n, width))
    x0, u, w, v, t = (np.zeros((n, width), dtype=np.float32) for _ in range(5))
    polished = np.zeros((n, width), dtype=np.int8)
    tau = np.float32(np.clip(scale * lam / rho, 2.0**-60, 2.0**60))
    pool, started, size, finished = [], 0, 0, 0
    while started < c or size:
        k = min(width - size, c - started)
        if k:
            new = fetch(k)
            bound = max(bound, gain * max(new.max(), -new.min()))
            unit = 2.0 ** -np.frexp(bound)[1]
            if unit != scale:  # in float64, so that a zero state stays zero
                for state in (x0, u, w):
                    state[:, :size] *= np.float64(unit / scale)
                scale = unit
                tau = np.float32(np.clip(scale * lam / rho, 2.0**-60, 2.0**60))
            free = slice(size, size + k)
            live[free] = np.arange(started, started + k)
            runs[free] = 0
            b[:, free] = new
            x0[:, free] = scale * _ADMM_RELAX * (inv @ new)
            u[:, free] = w[:, free] = 0.0
            polished[:, free] = 2
            started += k
            size += k
            del new  # its columns are in b: not held twice through the round
        steps = min(_POLISH_EVERY, max_iter - int(runs[:size].max()))
        x0_on, u_on, w_on, v_on, t_on = (state[:, :size] for state in (x0, u, w, v, t))
        for _ in range(steps):
            np.matmul(step, w_on, out=v_on)
            v_on += x0_on
            np.multiply(u_on, 2.0 - _ADMM_RELAX, out=t_on)
            v_on += t_on
            np.clip(v_on, -tau, tau, out=u_on)
            np.subtract(v_on, u_on, out=w_on)
            w_on -= u_on
        runs[:size] += steps
        # z = w + u in units of scale, in t; its signs, in v, are those of
        # z / scale, a power-of-two rescaling into float64's far wider range.
        z = np.add(w_on, u_on, out=t_on)
        signs = np.sign(z, out=v_on)
        fresh = np.flatnonzero((signs != polished[:, :size]).any(axis=0))
        polished[:, fresh] = signs[:, fresh]
        x, ok = _polish(a, b[:, fresh], lam, polished[:, fresh])
        done = fresh[ok]
        if done.size:
            collect(live[done], x[:, ok], runs[done], np.ones(done.size, dtype=bool))
        del x  # no answer outlives its collect
        keep = runs[:size] < max_iter
        handed = ~keep
        keep[done] = handed[done] = False
        handed = np.flatnonzero(handed)
        if handed.size:
            pool.append((live[handed], runs[handed], b[:, handed],
                         z[:, handed].astype(np.float64) / scale))
        # The finisher searches its pool once the pool holds a block's worth
        # of columns, or once no column is left to fetch or to iterate.
        if sum(part[0].size for part in pool) >= width or pool and started == c and not keep.any():
            ids, its, rhs, starts = (np.concatenate(part, axis=-1) for part in zip(*pool))
            x, _, ok = _feature_sign_polish(a, rhs, lam, starts)
            collect(ids, x, its, ok)
            finished += int(np.count_nonzero(ok))
            pool = []
            del x, rhs, starts
        kept = np.flatnonzero(keep)
        for state in (b, x0, u, w, polished):
            state[:, :kept.size] = state[:, kept]
        live[:kept.size], runs[:kept.size] = live[kept], runs[kept]
        size = kept.size
    return finished


def _feature_sign_polish(a: np.ndarray, b: np.ndarray, lam: float, x: np.ndarray) -> tuple:
    """Feature-sign search (Lee, Battle, Raina & Ng 2007) for each column of
    min f(x) = 0.5 x'Ax - b'x + lam ||x||_1, in float64, from the columns of
    x, run in lock-step over the columns of b, which leave as they finish.

    A column's active set S is the support of x, with signs theta. A step is
    one _polish of theta, whose stacked solves the columns share: it solves
    A_SS x_S = b_S - lam theta_S, and a column whose solution it certifies
    has its exact minimizer and leaves. Otherwise the step searches the
    segment from x to that solution: of each point where a coefficient
    crosses zero (set to exactly zero there), by index, and then of the
    solution, it moves to the first of lowest f, and the zeros leave S. Once
    a step reaches the solution with its signs kept, S is optimal, and the
    index off S with the largest |(Ax - b)_j| above lam (1 + _KKT_DUAL_RTOL)
    joins it, with the sign that lowers f. With none the column has settled,
    and a _polish of its signs, not counted as a step, decides it. f falls
    at every step, so no active set repeats and the search is finite. A
    column also leaves uncertified at an exactly singular A_SS, or when it
    has taken _FEATURE_SIGN_STEPS * n steps. A column that leaves
    uncertified from a nonzero start is searched once more from zero, with
    as many steps; should that fail too, its answer stays the last iterate
    of its first search. Columns do not interact, so each runs as it would
    alone. Returns (x, steps, certified), steps summing both searches of a
    retried column.
    """
    n, c = b.shape
    answer, certified, taken = x.copy(), np.zeros(c, dtype=bool), np.zeros(c, dtype=np.intp)
    # The live columns: their index, iterate, signs and b, whether S is
    # optimal, whether this is their first search, and the steps this search
    # has taken. Until its first search ends, a column's answer is its start.
    live, x, theta = np.arange(c), x.copy(), np.sign(x)
    optimal, first, steps = ~theta.any(axis=0), np.ones(c, dtype=bool), np.zeros(c, dtype=np.intp)
    while live.size:
        grad = a @ x - b
        off = np.where(theta == 0, np.abs(grad), 0.0)
        j = off.argmax(axis=0)
        settled = optimal & (off.max(axis=0) <= lam * (1.0 + _KKT_DUAL_RTOL))
        join = (optimal & ~settled).nonzero()[0]
        theta[j[join], join] = -np.sign(grad[j[join], join])
        # Every live column is polished, a column out of steps to no effect.
        fail = ~settled & (steps == _FEATURE_SIGN_STEPS * n)
        steps += ~(settled | fail)
        sol, ok = _polish(a, b, lam, theta)
        ok &= ~fail
        fail |= ~ok & (settled | np.isnan(sol).any(axis=0))
        step = ~(ok | fail)
        # A step whose segment crosses no zero moves to the solution. The
        # others search their segments, grouped by the size of S; they do not
        # keep the solution's signs, so S is not optimal for them.
        new = np.where(step, sol, x)
        optimal = (new * theta >= 0).all(axis=0)
        cross = x * new < 0
        crossing = cross.any(axis=0).nonzero()[0]
        for cols, rows, a_ss in _supports(a, theta[:, crossing] != 0) if crossing.size else ():
            cols, k = crossing[cols, None], rows.shape[1]
            x_on, new_on, cut = x[rows, cols], new[rows, cols], cross[rows, cols]
            ratio = np.divide(x_on, x_on - new_on, out=np.zeros(x_on.shape), where=cut)
            points = np.concatenate([x_on[:, :, None] + (new_on - x_on)[:, :, None]
                                     * ratio[:, None, :], new_on[:, :, None]], axis=2)
            points[:, np.arange(k), np.arange(k)] = 0.0
            f = np.einsum("lic,lic->lc", points, 0.5 * (a_ss @ points) - b[rows, cols][:, :, None])
            f += lam * np.abs(points).sum(axis=1)
            f[:, :k][~cut] = np.inf
            new[rows, cols] = points[np.arange(len(cols)), :, f.argmin(axis=1)]
        x, theta = new, np.sign(new)
        if (ok | fail).any():
            # A failed first search from a nonzero start is retried from zero,
            # and a failed first search answers with its last iterate.
            redo = (fail & first & answer[:, live].any(axis=0)).nonzero()[0]
            answer[:, live[fail & first]] = x[:, fail & first]
            answer[:, live[ok]], certified[live[ok]] = sol[:, ok], True
            fail |= ok
            taken[live[fail]] += steps[fail]
            x[:, redo] = theta[:, redo] = 0.0
            optimal[redo], first[redo], steps[redo], fail[redo] = True, False, 0, False
            live, optimal, first, steps, x, theta, b = (
                v[..., ~fail] for v in (live, optimal, first, steps, x, theta, b))
    return answer, taken, certified


# Relative tolerance of the simplex: pivots, primal and dual feasibility.
_LP_RTOL = 1e-9
# A pivot element that is 0 in exact arithmetic is computed as round-off: at
# most 1.1e-7 of its row's largest |alpha| on the sweep's delta grid (every
# decade 1e-15..1, seeds 0-2). Only a chosen element under this fraction of
# it is checked for one (0.4% of the pivots at the sweep's defaults).
_LP_ZERO_SCREEN = 1e-3
# Times a column's basis inverse is rebuilt from the original data before giving up.
_LP_REBUILDS = 3
# Entries of the [B^-1 | z_B] states iterated together (0.5 MiB of floats): a
# block holds max(1, _LP_STATE_ENTRIES // ((m + 1) (m + 2))) columns, 15 at m = 64.
_LP_STATE_ENTRIES = 2**16


def _lp_rows(gg: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """beta @ a for each row of beta (k x (m + 1)), where
    a = [[G, -G, I, -I, 0], [0, 0, 1', 1', 1]] is the constrained l1 LP's
    matrix, from its structure: one product with gg = [G, -G]."""
    m = gg.shape[0]
    top, last = beta[:, :m], beta[:, m:]
    return np.concatenate([top @ gg, top + last, last - top, last], axis=1)


def _dual_simplex(g: np.ndarray, y: np.ndarray, delta: float, max_pivots: int) -> tuple:
    """min 1'(u + v) s.t. G(u - v) + p - q = y_k, 1'(p + q) + s = delta, all
    variables >= 0, for each column y_k of y; returns (x, pivots, optimal)
    per column, x = u - v.

    A revised dual simplex (Lemke 1954) on blocks of
    max(1, _LP_STATE_ENTRIES // ((m + 1) (m + 2))) columns (_simplex_block).
    A column's pivots (and x, to round-off) depend on its block's size, which
    m fixes, so results are reproducible.
    """
    m, n = g.shape
    eye = np.eye(m)
    # columns u, v (n each), p, q (m each), s, one row each
    a_cols = np.ascontiguousarray(np.block([[g, -g, eye, -eye, np.zeros((m, 1))],
                                            [np.zeros((1, 2 * n)), np.ones((1, 2 * m + 1))]]).T)
    c = np.concatenate([np.ones(2 * n), np.zeros(2 * m + 1)])
    block = max(1, _LP_STATE_ENTRIES // ((m + 1) * (m + 2)))
    x = np.zeros((n, y.shape[1]))
    pivots = np.zeros(y.shape[1], dtype=np.intp)
    optimal = np.zeros(y.shape[1], dtype=bool)
    for first in range(0, y.shape[1], block):
        cols = slice(first, first + block)
        x[:, cols], pivots[cols], optimal[cols] = _simplex_block(g, a_cols, c, y[:, cols], delta,
                                                                 max_pivots)
    return x, pivots, optimal


def _solve_stack(a: np.ndarray, b: np.ndarray) -> tuple:
    """np.linalg.solve(a[i], b[i]) for each system i of the stack, and which
    were solved: a system whose matrix is singular in floating point is not,
    and holds NaN. The others are the numbers of one stacked solve."""
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x, solved = np.full(b.shape, np.nan), np.ones(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            x[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return x, solved


def _zero_pivots(basis: np.ndarray, r: np.ndarray, j: np.ndarray, n: int, m: int) -> np.ndarray:
    """Whether the pivot element of column j entering in row r of each basis
    is exactly 0: whether a_j lies in the span S of the other rows' basic
    columns, so that the pivot would leave the basis singular. Only
    round-off makes such an element negative. With e_m the budget row's
    unit vector, the LP's structure gives three cases:

    - u_i (v_i) while v_i (u_i) is basic in another row: a_u = -a_v;
    - p_i (q_i) while q_i (p_i) is basic in another row and e_m is in S:
      a_p + a_q = 2 e_m;
    - s, a_s = e_m, while e_m is in S.

    e_m is in S when another row holds s, or two hold p_k and q_k. A u or v
    column entering in the row of the basis's only budget-row column is the
    first case: the other rows then hold m u or v columns of distinct
    indices, every index of the square G.
    """
    at, s = np.arange(len(basis)), 2 * n + 2 * m
    other = np.zeros((len(basis), s + 1), dtype=bool)
    other[at[:, None], basis] = True
    other[at, basis[at, r]] = False
    twin = np.where(j < n, j + n, np.where(j < 2 * n, j - n, np.where(j < 2 * n + m, j + m, j - m)))
    e_m = other[:, s] | (other[:, 2 * n:2 * n + m] & other[:, 2 * n + m:s]).any(axis=1)
    return np.where(j < 2 * n, other[at, twin], np.where(j < s, other[at, twin] & e_m, e_m))


def _simplex_block(g: np.ndarray, a_cols: np.ndarray, c: np.ndarray, y: np.ndarray,
                   delta: float, max_pivots: int) -> tuple:
    """_dual_simplex on one block of columns; a_cols holds the LP's columns
    as rows, c its costs.

    A column keeps [B^-1 | z_B], (m + 1) x (m + 2), and its reduced costs,
    started in closed form from the triangular, dual-feasible basis of the
    module docstring: [[D, 0], [1', 1]], D = diag(+-1), has the inverse
    [[D, 0], [-1'D, 1]]. A pivot leaves on the most negative basic value,
    forms that row of B^-1 a from a's structure (_lp_rows), enters by the
    min-ratio test and makes a rank-1 update with the entering column
    B^-1 a_j; a chosen column whose pivot element is exactly 0
    (_zero_pivots) would leave a singular basis, and the ratio test's next
    column enters instead. A column stops when it is primal feasible, has no
    column to enter, or has made max_pivots pivots; its basis is then
    re-solved from (a, b, c), and it is ``optimal`` only if primal and dual
    feasible to tolerances scaled to |b| and |c|. Otherwise its state is
    rebuilt from that basis and pivoting resumes, at most _LP_REBUILDS
    times. A basis that is singular in floating point can be neither
    re-solved nor rebuilt: its column ends, not optimal, with x from its
    maintained basic values, and the block's other columns go on as before.
    """
    m, n = g.shape
    rows, k = m + 1, y.shape[1]
    gg = a_cols[:2 * n, :m].T  # [G, -G]
    b = np.vstack([y, np.full((1, k), delta)])
    floor = -_LP_RTOL * np.abs(b).max(axis=0)  # a basic value below it is infeasible
    neg = y.T < 0
    diag = np.arange(m)
    basis = np.hstack([2 * n + diag + m * neg, np.full((k, 1), 2 * n + 2 * m)])
    state = np.zeros((k, rows, rows + 1))
    state[:, diag, diag] = np.where(neg, -1.0, 1.0)
    state[:, m, :m] = -state[:, diag, diag]
    state[:, m, m] = 1.0
    state[:, :m, rows] = np.abs(y.T)
    state[:, m, rows] = delta - state[:, :m, rows].sum(axis=1)
    d = np.tile(c, (k, 1))
    rebuilt = np.zeros(k, dtype=np.intp)
    x, pivots, optimal = np.zeros((n, k)), np.zeros(k, dtype=np.intp), np.zeros(k, dtype=bool)
    outer = np.empty_like(state)  # the rank-1 update, without a temporary
    live = at = np.arange(k)
    runs = 0  # live columns pivot together, so they share a pivot count
    # The ratio test divides every entry and masks the ones off the entering set.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while live.size:
            r = state[:, :, rows].argmin(axis=1)
            pivot_row = state[at, r]
            alpha = _lp_rows(gg, pivot_row[:, :rows])
            amax = np.abs(alpha).max(axis=1)
            enter = alpha < -_LP_RTOL * amax[:, None]
            ratio = np.where(enter, np.maximum(d, 0.0) / -alpha, np.inf)
            j = ratio.argmin(axis=1)
            # Columns whose chosen pivot element is 0 in exact arithmetic
            # choose again; only a small element can be one.
            check = at[alpha[at, j] > -_LP_ZERO_SCREEN * amax]
            while check.size:
                check = check[_zero_pivots(basis[check], r[check], j[check], n, m)
                              & (ratio[check, j[check]] < np.inf)]
                ratio[check, j[check]] = np.inf
                j[check] = ratio[check].argmin(axis=1)
                check = check[alpha[check, j[check]] > -_LP_ZERO_SCREEN * amax[check]]
            go = (pivot_row[:, rows] < floor) & (ratio[at, j] < np.inf)
            if runs >= max_pivots or not go.all():
                # re-solve the stopped columns' bases from the data
                stop = np.flatnonzero(~go) if runs < max_pivots else at
                bt = a_cols[basis[stop]]  # B'
                z_b, solved = _solve_stack(bt.transpose(0, 2, 1), b[:, stop].T)
                dual, dual_solved = _solve_stack(bt, c[basis[stop]])
                solved &= dual_solved
                reduced = c - _lp_rows(gg, dual)
                ok = solved & (z_b.min(axis=1) >= floor[stop]) & (reduced.min(axis=1) >= -_LP_RTOL)
                # A basis singular in floating point has no inverse to rebuild from.
                again = ~ok & solved & (rebuilt[stop] < _LP_REBUILDS) & (runs < max_pivots)
                if again.any():
                    redo = stop[again]
                    # the re-solve factored these very matrices, so the inverses exist
                    state[redo, :, :rows] = np.linalg.inv(bt[again].transpose(0, 2, 1))
                    state[redo, :, rows] = z_b[again]
                    d[redo] = reduced[again]
                    rebuilt[redo] += 1
                done = stop[~again]
                if done.size:
                    # a singular basis's x comes from its maintained values
                    z_b = np.where(solved[:, None], z_b, state[stop, :, rows])
                    z = np.zeros((done.size, len(c)))
                    z[np.arange(done.size)[:, None], basis[done]] = z_b[~again]
                    x[:, live[done]] = (z[:, :n] - z[:, n:2 * n]).T
                    pivots[live[done]], optimal[live[done]] = runs, ok[~again]
                    keep = np.ones(live.size, dtype=bool)
                    keep[done] = False
                    live, basis, state, d = live[keep], basis[keep], state[keep], d[keep]
                    rebuilt, b, floor = rebuilt[keep], b[:, keep], floor[keep]
                    at, outer = np.arange(live.size), outer[:live.size]
                continue
            w = np.matmul(state[:, :, :rows], a_cols[j][:, :, None])[:, :, 0]  # B^-1 a_j
            pivot_row /= w[at, r][:, None]
            state[at, r] = pivot_row
            w[at, r] = 0.0
            state -= np.einsum("ki,kj->kij", w, pivot_row, out=outer)
            d -= d[at, j][:, None] * (alpha / alpha[at, j][:, None])
            basis[at, r] = j
            runs += 1
    return x, pivots, optimal


def l1_map_solve(
    y: np.ndarray,
    g: np.ndarray,
    mode: str = "penalized",
    lam: Union[None, float, Sequence[float]] = None,
    sigma_z: Optional[float] = None,
    delta: Optional[float] = None,
    max_iter: int = 100_000,
) -> SolveResult:
    """Sparse inversion of y through the n x n kernel matrix g.

    penalized: minimize 0.5 ||y - Gx||^2 / sigma_z^2 + lam ||x||_1 for each
    column of y; a column is accepted only on the KKT certificate of an
    exact float64 polish on its sign pattern. For one float lam, float32
    ADMM proposes the patterns (_certified_lasso), and max_iter is its
    hand-off to feature-sign search, run in lock-step over the columns
    handed off together, whose every step is a polish and its certificate:
    at max_iter = 0, after one polish of x = 0, every column that polish
    leaves uncertified goes to feature-sign search. max_iter serves a scalar
    lam only. One lam per column of y is a penalty path, solved by the same
    search alone, one column at a time, column j started from column
    j - 1's answer. A column that the search leaves uncertified from a
    nonzero start is searched once more from zero.
    ``converged`` means every column is certified, ``unconverged`` counts the
    columns that are not, ``finished`` those feature-sign certified,
    ``column_iterations`` holds each column's ADMM iterations (feature-sign
    steps on a path, both searches' if a column was retried) and
    ``iterations`` their maximum.

    constrained: minimize ||x||_1 s.t. ||y - Gx||_1 <= delta for each
    column of y, solved exactly as the equality-form linear program
    min 1'(u + v) s.t. G(u - v) + p - q = y, 1'(p + q) + s = delta,
    u, v, p, q, s >= 0, x = u - v, on its m + 1 rows by a batched revised
    dual simplex (_dual_simplex) from a triangular, dual-feasible basis.
    Columns iterate in blocks whose size m fixes, about 0.5 MiB of state
    each, within max_iter pivots; a column's pivots depend on that size.
    For delta == 0 the feasible set of a nonsingular square G is the single
    point G^{-1} y, solved for directly, one solve per column (0 pivots). A
    column with ||y||_1 <= delta starts primal feasible, so the simplex
    returns x = 0 at its starting basis (0 pivots). A column is converged
    when the simplex ended on a basis that is primal and dual feasible when
    re-solved from the data, and ||y - Gx||_1 <= delta + _LP_RTOL (delta +
    ||y||_1 + 1'|G||x|), the magnitudes summed in the residual. As in
    penalized mode, ``converged`` means every column is, ``unconverged``
    counts the columns that are not, ``column_iterations`` holds each
    column's pivots and ``iterations`` their maximum.
    """
    if max_iter < 0:
        raise ContractViolation("max_iter must be >= 0")
    y = np.asarray(y, dtype=np.float64)
    if mode == "penalized":
        cols = y.reshape(len(y), -1)
        if np.ndim(lam):
            lam = np.asarray(lam, dtype=np.float64)
            if lam.shape != (cols.shape[1],):
                raise ContractViolation("a per-column lam needs one value per column of y")
        if lam is None or sigma_z is None or not (np.all(lam > 0) and sigma_z > 0):
            raise ContractViolation("penalized mode needs lam > 0 and sigma_z > 0")
        inv_var = 1.0 / sigma_z**2
        a, b = inv_var * (g.T @ g), inv_var * (g.T @ cols)
        x = np.zeros_like(b)
        certified, its = np.zeros(b.shape[1], dtype=bool), np.zeros(b.shape[1], dtype=np.intp)

        def collect(cols, x_cols, iterations, ok):
            x[:, cols], its[cols], certified[cols] = x_cols, iterations, ok

        if np.ndim(lam):
            for j in range(b.shape[1]):  # column j from column j - 1's answer
                collect([j], *_feature_sign_polish(a, b[:, [j]], lam[j], x[:, [max(j - 1, 0)]]))
            finished = int(np.count_nonzero(certified))
        else:
            finished = _certified_lasso(a, _column_source([b]), b.shape[1], lam, max_iter, collect)
        return SolveResult(x.reshape(y.shape), bool(certified.all()), int(its.max(initial=0)),
                           int(np.count_nonzero(~certified)), tuple(its.tolist()), finished)
    if mode != "constrained":
        raise ContractViolation(f"unknown mode {mode!r}")
    if delta is None or delta < 0:
        raise ContractViolation("constrained mode needs delta >= 0")
    cols = y.reshape(len(y), -1)
    k = cols.shape[1]
    if delta == 0:
        # One solve per column: the kernel is ill-conditioned, and a stacked
        # right-hand side rounds differently from a single one. C order, so
        # that later sums over x round as they do on a solve per column.
        x = np.ascontiguousarray(np.linalg.solve(np.broadcast_to(g, (k, *g.shape)),
                                                 cols.T[..., None])[..., 0].T)
        pivots, optimal = np.zeros(k, dtype=np.intp), np.ones(k, dtype=bool)
    else:
        x, pivots, optimal = _dual_simplex(g, cols, delta, max_iter)
    slack = _LP_RTOL * (delta + np.abs(cols).sum(axis=0) + np.abs(g).sum(axis=0) @ np.abs(x))
    residual = g @ x - cols
    converged = optimal & (np.abs(residual, out=residual).sum(axis=0) <= delta + slack)
    return SolveResult(x.reshape(y.shape), bool(converged.all()), int(pivots.max(initial=0)),
                       int(np.count_nonzero(~converged)), tuple(pivots.tolist()))


@dataclass(frozen=True)
class RecoveryCertificate:
    """Closed-form recovery bound versus the achieved error."""

    norm: str
    noise_budget: float
    rho: float
    bound: float
    achieved: float
    holds: bool


def recovery_certificate(
    x_true: np.ndarray,
    x_hat: np.ndarray,
    sigma: float,
    fs: float,
    noise_budget: float,
) -> RecoveryCertificate:
    """Evaluate the l1 recovery-error bound for the constrained l1 solution
    through the Gaussian kernel of width sigma sampled at rate fs.

    ||xhat - x||_1 <= 4 rho delta / (beta gamma0) with l1 noise budget delta
    and rho = max(gamma0 / eps^2, (fs sigma)^2 alpha0), (beta, eps) from
    ``gaussian_admissibility``.
    """
    if noise_budget < 0:
        raise ContractViolation("noise budget must be >= 0")
    diff = np.asarray(x_hat, dtype=np.float64) - np.asarray(x_true, dtype=np.float64)
    beta, eps = gaussian_admissibility(sigma)
    rho = max(GAMMA0 / eps**2, (fs * sigma) ** 2 * ALPHA0)
    bound = 4.0 * rho * noise_budget / (beta * GAMMA0)
    achieved = float(np.sum(np.abs(diff)))
    return RecoveryCertificate(
        norm="l1",
        noise_budget=noise_budget,
        rho=rho,
        bound=bound,
        achieved=achieved,
        holds=bool(achieved <= bound + 1e-12),
    )


def min_spike_separation(sigma: float, fs: float) -> int:
    """Conservative default separation for clean support recovery."""
    return 2 * math.ceil(sigma * fs) + 1


# Spike magnitudes are uniform on [_AMP_LOW, _AMP_HIGH), with a random sign.
_AMP_LOW, _AMP_HIGH = 0.5, 2.0


def random_spike_signal(
    rng: np.random.Generator, n: int, n_spikes: int, separation: int
) -> np.ndarray:
    """A length-n vector of n_spikes spikes at least ``separation`` samples
    apart, and from both ends, with uniform magnitudes and random signs."""
    placeable = n - (n_spikes + 1) * separation
    if placeable < n_spikes:
        raise ContractViolation("signal too short for requested spikes/separation")
    slots = np.sort(rng.choice(placeable, size=n_spikes, replace=False))
    support = separation + slots + separation * np.arange(n_spikes)
    amps = rng.uniform(_AMP_LOW, _AMP_HIGH, size=n_spikes) * rng.choice([-1.0, 1.0], size=n_spikes)
    x = np.zeros(n)
    x[support] = amps
    return x


def problem_doc(x_true: np.ndarray, sigma: float, fs: float, y: np.ndarray,
                x_hat: np.ndarray, certificate: RecoveryCertificate) -> dict:
    support = np.flatnonzero(x_true)
    return {
        "n": len(x_true),
        "Fs": fs,
        "sigma": sigma,
        "support": support.tolist(),
        "amplitudes": x_true[support].tolist(),
        "y": [float(v) for v in y],
        "x_hat": [float(v) for v in x_hat],
        "certificate": asdict(certificate),
    }


# ---------------------------------------------------------------------------
# rate-estimation pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaPipelineReport:
    """Squared rate-estimation error from clean signals vs reconstructions."""

    mse_clean: float
    mse_restored: float
    stderr_clean: float
    stderr_restored: float
    stderr_paired_diff: float
    crb: float
    solver_iterations: int  # of the reconstruction solve (0 without one)
    solver_unconverged: int  # reconstructed columns not converged or certified
    solver_finished: int  # reconstructed columns the feature-sign finisher certified


def lambda_pipeline_experiment(
    lambda_true: float,
    m: int,
    replicates: int,
    seed: int,
    sigma_n: float = 0.1,
    restorer: str | tuple = "map_l1",
    n: int = 24,
) -> LambdaPipelineReport | tuple:
    """Estimate the sparsity rate before and after reconstruction.

    Each replicate draws m single-spike signals whose l1 mass is exponential
    with the true rate, pushes them through the kernel-plus-noise channel,
    reconstructs, and estimates the rate as m / (total l1 mass) both from the
    clean signals and from the reconstructions. Restorers: "map_l1" (the
    penalized solver, which needs the rate as its regularization prior; the
    exact interpolation when sigma_n == 0), "norm_oracle" (copies the true
    l1 mass). ``restorer`` names one restorer, giving one report, or is a
    nonempty tuple of names, giving one report per name, all on the same
    draw. A report holds the numbers only: the experiment runner judges them.
    """
    if m < 1 or replicates < 2:
        raise ContractViolation("need m >= 1 and replicates >= 2")
    names = (restorer,) if isinstance(restorer, str) else tuple(restorer)
    if not names:
        raise ContractViolation("need at least one restorer")
    unknown = [name for name in names if name not in ("map_l1", "norm_oracle")]
    if unknown:
        raise ContractViolation(f"unknown restorer {unknown[0]!r}")
    sigma, fs = 1.0, 2.0
    g = kernel_matrix(sigma, n, fs)
    amps = np.empty(replicates * m)
    measurements = _pipeline_draw(g, min_spike_separation(sigma, fs), lambda_true, m, replicates,
                                  seed, sigma_n, amps)
    restored = {"norm_oracle": (amps, 0, 0, 0)}
    if "map_l1" in names:
        restored["map_l1"] = _map_l1_masses(measurements, g, lambda_true, sigma_n, amps.size)
    else:
        for _ in measurements:  # the clean masses only
            pass
    reports = tuple(_pipeline_report(amps, restored[name], lambda_true, m, replicates)
                    for name in names)
    return reports[0] if isinstance(restorer, str) else reports


# Columns of measurements the pipeline draws at a time, as whole replicates:
# a chunk holds max(1, _PIPELINE_COLUMNS // m) replicates.
_PIPELINE_COLUMNS = 256


def _pipeline_draw(g: np.ndarray, sep: int, lambda_true: float, m: int, replicates: int,
                   seed: int, sigma_n: float, amps: np.ndarray):
    """The pipeline's draw through the n x n kernel matrix g, in chunks of
    whole replicates: yields, chunk by chunk, the measurements, (n, columns),
    of max(1, _PIPELINE_COLUMNS // m) replicates, once it has written their
    spike amplitudes, one per column, into their entries of amps, a
    (replicates * m,) array.

    Replicate r draws from stream (seed, r): its m spike locations, at least
    sep samples from both ends, their amplitudes, then its (n, m) noise; its
    columns follow those of replicate r - 1, column i being its signal i, one
    spike. Column j of Gx holds one nonzero product, so G[:, loc_j] amp_j is
    that column to the bit, and y = Gx + sigma_n noise is formed without x.
    Each replicate has its own stream, so the chunking moves no number.
    """
    n = len(g)
    per_chunk = max(1, _PIPELINE_COLUMNS // m)
    for first in range(0, replicates, per_chunk):
        count = min(per_chunk, replicates - first)
        locs = np.empty(count * m, dtype=np.int64)
        chunk_amps = amps[first * m:(first + count) * m]
        y = np.zeros((n, count * m))
        for i in range(count):
            rng = stream_rng(seed, first + i)
            cols = slice(i * m, (i + 1) * m)
            locs[cols] = rng.integers(sep, n - sep, size=m)
            chunk_amps[cols] = rng.exponential(1.0 / lambda_true, size=m)
            if sigma_n > 0:
                y[:, cols] = rng.standard_normal((n, m))
        y *= sigma_n
        spikes = g[:, locs]
        spikes *= chunk_amps
        y += spikes
        yield y


def _l1_masses(x: np.ndarray) -> np.ndarray:
    """Column l1 norms of x, adding its rows in order: to the bit the sums
    that np.abs(x).sum(axis=0) takes over a C-ordered x of many columns.
    (numpy sums a contiguous axis pairwise, so it rounds differently on a
    single column or an F-ordered x.)"""
    mass = np.zeros(x.shape[1])
    for row in np.abs(x):
        mass += row
    return mass


def _map_l1_masses(measurements, g: np.ndarray, lambda_true: float, sigma_n: float,
                   total: int) -> tuple:
    """The l1 mass of each of the total columns' map_l1 reconstructions, and
    the solver's (iterations, unconverged, finished): the largest ADMM count,
    and the counts of uncertified columns and of columns the finisher
    certified, from the measurements' chunks as the solver takes them. Each
    reconstruction is reduced to its mass, and its count and certificate to
    those totals, as it is finished, so none is held."""
    masses = np.empty(total)
    if sigma_n == 0:
        # noiseless: the exact-interpolation solve recovers each signal
        done = unconverged = 0
        for y in measurements:
            sol = l1_map_solve(y, g, mode="constrained", delta=0.0)
            masses[done:done + y.shape[1]] = _l1_masses(sol.x_hat)
            done += y.shape[1]
            unconverged += sol.unconverged
        return masses, 0, unconverged, 0
    inv_var = 1.0 / sigma_n**2

    most = uncertified = 0

    def collect(cols, x, iterations, certified):
        nonlocal most, uncertified
        masses[cols] = _l1_masses(x)
        most = max(most, int(iterations.max()))
        uncertified += int(np.count_nonzero(~certified))

    finished = _certified_lasso(
        inv_var * (g.T @ g), _column_source(inv_var * (g.T @ y) for y in measurements), total,
        lambda_true, _ADMM_HANDOFF, collect)
    return masses, most, uncertified, finished


def _pipeline_report(amps, restored, lambda_true: float, m: int,
                     replicates: int) -> LambdaPipelineReport:
    """The two rate estimates of one restorer, each from the signals' l1
    masses: amps on the clean side, and on the restored side the masses of
    restored = (masses, iterations, unconverged, finished), as _map_l1_masses
    returns them, or (amps, 0, 0, 0) for the norm oracle. A replicate restored
    to zero mass has an infinite rate estimate, so the restored MSE and its
    standard errors are infinite."""
    masses, iterations, unconverged, finished = restored
    l1_clean = amps.reshape(replicates, m).sum(axis=1)
    if np.any(l1_clean == 0):
        raise ZeroL1Norm("a replicate drew zero total l1 mass")
    l1_rest = masses.reshape(replicates, m).sum(axis=1)
    err_clean = m / l1_clean - lambda_true
    if np.all(l1_rest > 0):
        (mse_clean, se_clean), (mse_rest, se_rest), (_, se_diff) = _mse_stderr(
            err_clean, m / l1_rest - lambda_true)
    else:
        [(mse_clean, se_clean)] = _mse_stderr(err_clean)
        mse_rest = se_rest = se_diff = math.inf
    return LambdaPipelineReport(
        mse_clean=mse_clean,
        mse_restored=mse_rest,
        stderr_clean=se_clean,
        stderr_restored=se_rest,
        stderr_paired_diff=se_diff,
        crb=lambda_true**2 / m,
        solver_iterations=iterations,
        solver_unconverged=unconverged,
        solver_finished=finished,
    )
