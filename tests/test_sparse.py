"""Sparse spike recovery: the kernel matrix and spike draw, the solver in both modes
(certified ADMM, the dual simplex), certificates, and the rate-estimation
pipeline.

The solver is cross-checked on a tiny instance against exhaustive search
over supports with least-squares refits, the strongest oracle available at
that size, its constrained mode against the HiGHS linear-program solver, and
its penalized mode against the lasso KKT conditions and a long
proximal-gradient run.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import chainlab
from chainlab import sparse
from chainlab.errors import ContractViolation
from chainlab.experiments import run_experiment
from chainlab.restorers import _FLAG_SIGMAS
from chainlab.rng import stream_rng
from chainlab.sparse import (
    _pipeline_draw,
    gaussian_admissibility,
    kernel_matrix,
    l1_map_solve,
    lambda_pipeline_experiment,
    min_spike_separation,
    problem_doc,
    random_spike_signal,
    recovery_certificate,
)


# The separation of the pipeline's spikes, from its kernel's sigma = 1 and fs = 2.
_PIPELINE_SEP = min_spike_separation(1.0, 2.0)


def _draw(g, rate, m, replicates, seed, sigma_n):
    """The pipeline's chunked draw joined into one (amplitudes, y) pair."""
    amps = np.empty(replicates * m)
    y = np.hstack(list(_pipeline_draw(g, _PIPELINE_SEP, rate, m, replicates, seed, sigma_n,
                                      amps)))
    return amps, y


def _assert_runs_fresh(code):
    """Run code in a fresh interpreter that imports this chainlab; it must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(chainlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _collector(c, n):
    """A collect for _certified_lasso that gathers, for c columns of n
    unknowns, (x, certified, iterations): (collect, x, certified, iterations)."""
    x = np.full((n, c), np.nan)
    certified, iterations = np.zeros(c, dtype=bool), np.full(c, -1, dtype=np.intp)

    def collect(cols, x_cols, its, ok):
        x[:, cols], iterations[cols], certified[cols] = x_cols, its, ok

    return collect, x, certified, iterations


def _lasso(a, b, lam, max_iter):
    """_certified_lasso over the columns of a dense b, as l1_map_solve runs
    it: (x, certified, iterations, finished), finished a count."""
    collect, x, certified, iterations = _collector(b.shape[1], b.shape[0])
    finished = sparse._certified_lasso(a, sparse._column_source([b]), b.shape[1], lam, max_iter,
                                       collect)
    return x, certified, iterations, finished


class TestSpikeSignal:
    def test_draw_is_a_vector_of_its_spikes(self):
        """The draw at stream (74, 0) is, to the bit, the one pinned here:
        three spikes on a length-64 vector, zero elsewhere."""
        x = random_spike_signal(stream_rng(74, 0), 64, 3, min_spike_separation(1.0, 2.0))
        assert x.shape == (64,) and x.dtype == np.float64
        assert np.flatnonzero(x).tolist() == [13, 26, 53]
        assert x[[13, 26, 53]].tolist() == [1.5037984071890715, -1.3472571346479605,
                                            -1.2868020491071297]

    @pytest.mark.parametrize("n, n_spikes, separation", [(64, 3, 5), (32, 2, 5), (24, 1, 5),
                                                         (48, 5, 7)])
    def test_spikes_are_separated_and_bounded(self, n, n_spikes, separation):
        """At seeds 0-99 the support has n_spikes indices, each at least
        separation from the next and from both ends, and every amplitude's
        magnitude is in [0.5, 2)."""
        for seed in range(100):
            x = random_spike_signal(stream_rng(seed, 0), n, n_spikes, separation)
            support = np.flatnonzero(x)
            assert support.size == n_spikes, seed
            gaps = np.diff(np.concatenate([[0], support, [n - 1]]))
            assert gaps.min() >= separation, seed
            assert np.all((np.abs(x[support]) >= 0.5) & (np.abs(x[support]) < 2.0)), seed

    def test_too_short_for_the_spikes_rejected(self):
        with pytest.raises(ContractViolation):
            random_spike_signal(stream_rng(74, 1), 16, 3, 5)


class TestKernelMatrix:
    def test_tiny_sigma_approaches_identity(self):
        g = kernel_matrix(0.05, 16, 1.0)
        np.testing.assert_allclose(g, np.eye(16), atol=1e-12)

    def test_unit_spike_reads_out_column(self):
        g = kernel_matrix(1.0, 32, 2.0)
        x = np.zeros(32)
        x[11] = 1.0
        np.testing.assert_array_equal(g @ x, g[:, 11])

    def test_linearity(self):
        g = kernel_matrix(1.0, 32, 2.0)
        rng = stream_rng(71, 0)
        x1, x2 = rng.standard_normal(32), rng.standard_normal(32)
        np.testing.assert_allclose(g @ (x1 + x2), g @ x1 + g @ x2,
                                   atol=1e-12)

    def test_signal_length_floor(self):
        with pytest.raises(ContractViolation):
            kernel_matrix(2.0, 16, 2.0)  # needs n >= 8 sigma fs = 32

    @pytest.mark.parametrize("sigma", [0.3, 0.7, 1.0, 2.5])
    @pytest.mark.parametrize("fs", [1.0, 1.7, 2.0, 3.0])
    def test_matrix_is_the_outer_difference_formula(self, sigma, fs):
        for n in range(16, 512, 15):  # 16 to 511, odd and even
            if n < 8 * sigma * fs:
                continue
            k = np.arange(n, dtype=np.float64)
            expected = np.exp(-((k[:, None] - k[None, :]) / fs) ** 2 / (2 * sigma**2))
            matrix = kernel_matrix(sigma, n, fs)
            assert np.array_equal(matrix, expected), (sigma, fs, n)
            assert matrix.flags.c_contiguous and not matrix.flags.writeable

    def test_build_holds_one_n_by_n_array(self):
        n = 256
        kernel_matrix(1.0, n, 1.0)  # first-call allocations
        tracemalloc.start()
        try:
            kernel_matrix(1.0, n, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * np.dtype(np.float64).itemsize

    def test_gaussian_defaults(self):
        beta, eps = gaussian_admissibility(1.0)
        assert eps == pytest.approx(1 / math.sqrt(2))
        assert beta == pytest.approx(math.exp(-0.25) / 2)
        x = np.zeros(32)
        cert = recovery_certificate(x, x, 1.0, 2.0, 1.0)
        assert cert.rho == pytest.approx(max(2.0, 4.0))
        assert cert.bound == pytest.approx(4.0 * cert.rho / beta)


def exhaustive_oracle(y, g, k, grid_vals=None):
    """Best k-sparse fit by exhaustive support search + least squares."""
    n = len(g)
    best_x, best_res = None, np.inf
    for support in itertools.combinations(range(n), k):
        cols = g[:, list(support)]
        amps, *_ = np.linalg.lstsq(cols, y, rcond=None)
        res = float(np.sum((y - cols @ amps) ** 2))
        if res < best_res:
            best_res = res
            best_x = np.zeros(n)
            best_x[list(support)] = amps
    return best_x


def sweep_draws(g, seed, draws, delta=0.1):
    """The measurements of sparse_certificate_sweep's first draws at its
    default spike count, sigma and fs, one column per draw."""
    n = len(g)
    ys = np.zeros((n, draws))
    for i in range(draws):
        rng = stream_rng(seed, i)
        signal = random_spike_signal(rng, n, 3, min_spike_separation(1.0, 2.0))
        w = rng.standard_normal(n)
        w *= delta * rng.uniform(0.5, 1.0) / np.sum(np.abs(w))
        ys[:, i] = g @ signal + w
    return ys


class TestSolver:
    def test_noiseless_well_separated_exact(self):
        g = kernel_matrix(1.0, 64, 2.0)
        sep = min_spike_separation(1.0, 2.0)
        x = random_spike_signal(stream_rng(72, 0), 64, 3, sep)
        sol = l1_map_solve(g @ x, g, mode="constrained", delta=0.0)
        assert np.max(np.abs(sol.x_hat - x)) <= 1e-6
        assert sol.converged

    def test_zero_budget_is_the_linear_solve(self):
        """With delta = 0 the only feasible point of the nonsingular G is
        G^{-1} y, so that is the solution, with no simplex pivots."""
        g = kernel_matrix(1.0, 64, 2.0)
        y = stream_rng(72, 7).standard_normal(64)
        sol = l1_map_solve(y, g, mode="constrained", delta=0.0)
        np.testing.assert_array_equal(sol.x_hat, np.linalg.solve(g, y))
        assert sol.converged
        assert sol.iterations == 0

    def test_zero_budget_batch_solves_column_by_column(self):
        """A batch with delta = 0 gives each column exactly its own linear
        solve: the n = 24 kernel is ill-conditioned, so one stacked
        right-hand side would round differently."""
        g = kernel_matrix(1.0, 24, 2.0)
        y = stream_rng(72, 13).standard_normal((24, 6))
        sol = l1_map_solve(y, g, mode="constrained", delta=0.0)
        for j in range(6):
            np.testing.assert_array_equal(sol.x_hat[:, j], np.linalg.solve(g, y[:, j]))
        assert sol.converged and sol.column_iterations == (0,) * 6

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("delta", [1e-3, 0.1, 1.0])
    def test_constrained_matches_highs_linear_program(self, n, delta):
        from scipy.optimize import linprog

        g = kernel_matrix(1.0, n, 2.0)
        rng = stream_rng(72, 8 + n)
        signal = random_spike_signal(rng, n, max(1, n // 24), min_spike_separation(1.0, 2.0))
        w = rng.standard_normal(n)
        w *= delta * rng.uniform(0.5, 1.0) / np.sum(np.abs(w))
        y = g @ signal + w
        sol = l1_map_solve(y, g, mode="constrained", delta=delta)
        # min 1'(u + v) s.t. -t <= y - G(u - v) <= t, 1't <= delta, u, v, t >= 0
        eye = np.eye(n)
        a_ub = np.block([[-g, g, -eye], [g, -g, -eye],
                         [np.zeros((1, 2 * n)), np.ones((1, n))]])
        b_ub = np.concatenate([-y, y, [delta]])
        c = np.concatenate([np.ones(2 * n), np.zeros(n)])
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert sol.converged
        assert np.sum(np.abs(sol.x_hat)) == pytest.approx(ref.fun, rel=1e-7)
        assert np.sum(np.abs(y - g @ sol.x_hat)) <= delta + 1e-6

    def test_constrained_solve_does_not_import_scipy_optimize(self, tmp_path):
        # scipy.optimize costs about 0.25 s of start-up and 20 MB of peak RSS
        # per run; the benchmark counts both, so the LP stays in numpy.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("[experiment]\nid = sparse_certificate_sweep\nseed = 0\n\n"
                       "[params]\ndraws = 3\n")
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from chainlab.cli import main\n"
            "from chainlab.sparse import kernel_matrix, l1_map_solve\n"
            "g = kernel_matrix(1.0, 32, 2.0)\n"
            "sol = l1_map_solve(g @ np.eye(32)[10] + 1e-3, g, mode='constrained',"
            " delta=0.05)\n"
            "assert sol.converged and sol.iterations > 0\n"
            f"assert main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "assert 'scipy.optimize' not in sys.modules\n"
        )
        _assert_runs_fresh(code)

    def test_sparse_experiments_do_not_import_numpy_ma(self):
        # numpy.ma costs 10-17 ms of start-up and about 0.9 MB of peak RSS per
        # run; the benchmark counts both, so the sparse solvers avoid np.unique.
        code = (
            "import sys\n"
            "from chainlab.experiments import run_experiment\n"
            "run_experiment('sparse_certificate_sweep', 0)\n"
            "run_experiment('lambda_pipeline', 0, {'replicates': 40})\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        _assert_runs_fresh(code)

    def test_zero_measurement_zero_solution(self):
        g = kernel_matrix(1.0, 32, 2.0)
        sol = l1_map_solve(np.zeros(32), g, mode="constrained", delta=0.0)
        np.testing.assert_array_equal(sol.x_hat, np.zeros(32))

    def test_small_noise_support_recovery_vs_exhaustive_oracle(self):
        """n = 16 instance: the solver finds the oracle's support and stays
        within the certificate bound of its amplitudes."""
        g = kernel_matrix(0.6, 16, 1.5)
        x = np.zeros(16)
        x[4], x[11] = 1.2, -0.9
        rng = stream_rng(72, 1)
        w = rng.standard_normal(16)
        delta = 0.05
        w *= delta * 0.9 / np.sum(np.abs(w))
        y = g @ x + w
        sol = l1_map_solve(y, g, mode="constrained", delta=delta)
        oracle = exhaustive_oracle(y, g, 2)
        assert set(np.flatnonzero(np.abs(sol.x_hat) > 0.1)) == set(np.flatnonzero(oracle))
        cert = recovery_certificate(x, sol.x_hat, 0.6, 1.5, delta)
        assert cert.holds
        assert np.max(np.abs(sol.x_hat - oracle)) <= cert.bound

    def test_penalized_solution_satisfies_kkt(self):
        """Every column of a random batch meets the lasso optimality conditions
        (A x - b)_j = -lam sign(x_j) on the support and |(A x - b)_j| <= lam
        off it, with A = G'G / sigma_z^2 and b = G'y / sigma_z^2, so each is an
        exact minimizer."""
        g = kernel_matrix(1.0, 24, 2.0)
        rng = stream_rng(72, 2)
        x_true = np.where(rng.uniform(size=(24, 40)) < 0.1,
                          rng.exponential(1.0, size=(24, 40)), 0.0)
        y = g @ x_true + 0.1 * rng.standard_normal((24, 40))
        lam, sigma_z = 1.0, 0.1
        sol = l1_map_solve(y, g, mode="penalized", lam=lam, sigma_z=sigma_z, max_iter=20_000)
        assert sol.converged and sol.unconverged == 0
        a, b = g.T @ g / sigma_z**2, g.T @ y / sigma_z**2
        grad = a @ sol.x_hat - b
        on = sol.x_hat != 0
        assert on.any() and not on.all()
        scale = np.abs(a) @ np.abs(sol.x_hat) + np.abs(b) + lam
        assert np.all(np.abs(grad + lam * np.sign(sol.x_hat))[on] <= 1e-10 * scale[on])
        assert np.all(np.abs(grad[~on]) <= lam * (1 + 1e-9))

    def test_certified_objective_not_above_long_proximal_gradient(self):
        """A certified column is the minimizer: no point a long soft-threshold
        iteration reaches has a lower objective."""
        g = kernel_matrix(1.0, 24, 2.0)
        rng = stream_rng(72, 9)
        y = g @ np.where(rng.uniform(size=(24, 6)) < 0.15, 1.0, 0.0) \
            + 0.1 * rng.standard_normal((24, 6))
        lam, inv_var = 1.0, 100.0
        sol = l1_map_solve(y, g, mode="penalized", lam=lam, sigma_z=0.1, max_iter=20_000)
        assert sol.converged

        def objective(x):
            return (0.5 * inv_var * np.sum((g @ x - y) ** 2, axis=0)
                    + lam * np.sum(np.abs(x), axis=0))

        step = 1.0 / (inv_var * np.linalg.eigvalsh(g.T @ g).max())
        x = np.zeros_like(y)
        for _ in range(20_000):
            v = x - step * inv_var * (g.T @ (g @ x - y))
            x = np.sign(v) * np.maximum(np.abs(v) - step * lam, 0.0)
        ref = objective(x)
        assert np.all(objective(sol.x_hat) <= ref * (1 + 1e-12))

    def test_homogeneity_of_constrained_solution(self):
        """Scaling the data and the budget by a power of two scales the
        solution exactly (every simplex pivot is scale equivariant), and the
        solution is the constrained minimizer, which spends the whole budget."""
        g = kernel_matrix(1.0, 32, 2.0)
        rng = stream_rng(72, 3)
        x = random_spike_signal(rng, 32, 2, min_spike_separation(1.0, 2.0))
        w = rng.standard_normal(32)
        delta = 0.08
        w *= delta * 0.9 / np.sum(np.abs(w))
        y = g @ x + w
        sol1 = l1_map_solve(y, g, mode="constrained", delta=delta)
        c = 4.0  # a power of two scales every float operation exactly
        sol2 = l1_map_solve(c * y, g, mode="constrained", delta=c * delta)
        np.testing.assert_array_equal(sol2.x_hat, c * sol1.x_hat)
        assert sol1.converged
        assert np.sum(np.abs(sol1.x_hat)) == pytest.approx(2.99277, abs=1e-5)
        assert np.sum(np.abs(y - g @ sol1.x_hat)) == pytest.approx(delta, abs=1e-9)

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    @pytest.mark.parametrize("c", [2.0**-40, 2.0**40])
    def test_constrained_solve_commutes_with_power_of_two_scaling(self, delta, c):
        """Scaled by 2^-40, ||y||_1 is far below any absolute slack, and by
        2^40 the residual's round-off is far above one: the solve returns c x
        and is converged either way, with the zero budget and with a
        positive one, since its slack is relative to the data."""
        g = kernel_matrix(1.0, 32, 2.0)
        rng = stream_rng(72, 3)
        y = g @ random_spike_signal(rng, 32, 2, min_spike_separation(1.0, 2.0)) \
            + 0.01 * rng.standard_normal(32)
        sol = l1_map_solve(y, g, mode="constrained", delta=delta)
        scaled = l1_map_solve(c * y, g, mode="constrained", delta=c * delta)
        assert sol.converged and scaled.converged and np.any(sol.x_hat)
        np.testing.assert_array_equal(scaled.x_hat, c * sol.x_hat)
        assert scaled.column_iterations == sol.column_iterations

    def test_measurement_within_the_budget_stops_at_zero(self):
        """||y||_1 <= delta makes the simplex's starting basis primal
        feasible, so x = 0 with no pivot, next to a column that pivots."""
        g = kernel_matrix(1.0, 32, 2.0)
        y = np.stack([np.full(32, 0.1 / 32), g[:, 10]], axis=1)
        sol = l1_map_solve(y, g, mode="constrained", delta=0.1)
        assert sol.converged and sol.column_iterations[0] == 0 < sol.column_iterations[1]
        np.testing.assert_array_equal(sol.x_hat[:, 0], np.zeros(32))

    def test_penalty_path_norm_monotone(self):
        g = kernel_matrix(1.0, 48, 2.0)
        rng = stream_rng(72, 4)
        signal = random_spike_signal(rng, 48, 3, min_spike_separation(1.0, 2.0))
        y = g @ signal + 0.02 * rng.standard_normal(48)
        norms = []
        for lam in np.geomspace(2.0, 1e-4, 15):
            sol = l1_map_solve(y, g, mode="penalized", lam=float(lam), sigma_z=1.0,
                               max_iter=20000)
            norms.append(float(np.sum(np.abs(sol.x_hat))))
        assert all(norms[i] <= norms[i + 1] + 1e-9 for i in range(len(norms) - 1))

    def test_unconverged_solve_returns_best_iterate_with_flag(self, monkeypatch):
        """Cut off by both max_iter and the finisher's step cap, a column is
        returned uncertified and counted, with its last iterate."""
        g = kernel_matrix(1.0, 32, 2.0)
        rng = stream_rng(72, 6)
        signal = random_spike_signal(rng, 32, 2, min_spike_separation(1.0, 2.0))
        y = g @ signal
        monkeypatch.setattr(sparse, "_FEATURE_SIGN_STEPS", 0)
        sol = l1_map_solve(y, g, mode="penalized", lam=1e-6, sigma_z=1.0,
                           max_iter=5)
        assert not sol.converged and sol.unconverged == 1 and sol.finished == 0
        assert sol.iterations == 5
        assert np.any(sol.x_hat != 0)

    def test_batched_columns_match_individual_solves(self):
        g = kernel_matrix(1.0, 24, 2.0)
        rng = stream_rng(72, 5)
        ys = rng.standard_normal((24, 3))
        batch = l1_map_solve(ys, g, mode="penalized", lam=0.3, sigma_z=0.5,
                             max_iter=5000)
        for k in range(3):
            single = l1_map_solve(ys[:, k], g, mode="penalized", lam=0.3, sigma_z=0.5,
                                  max_iter=5000)
            np.testing.assert_allclose(batch.x_hat[:, k], single.x_hat, atol=1e-9)

    def test_penalty_path_batch_matches_single_solves(self):
        """The sweep's 20-point path as one call with one lam per column, by
        warm-started feature-sign search within its step cap: each column is
        the certified minimizer that a scalar ADMM solve finds alone.

        G'y as one column of a 20-column product and as a single product
        differ in the last bit, and the exact solve on the support S
        amplifies that by cond(A_SS): at lam = 1e-4, where cond(A_SS) is
        3e5, the columns differ by 1.3e-11, and by at most 5e-17
        cond(A_SS) max|x| on every column, so 1e-15 cond(A_SS) max|x|
        bounds round-off and nothing else."""
        g = kernel_matrix(1.0, 64, 2.0)
        rng = stream_rng(72, 10)
        signal = random_spike_signal(rng, 64, 3, min_spike_separation(1.0, 2.0))
        y = g @ signal + 0.01 * rng.standard_normal(64)
        lam_grid = np.geomspace(1.0, 1e-4, 20)
        path = l1_map_solve(np.repeat(y[:, None], 20, axis=1), g, mode="penalized",
                            lam=lam_grid, sigma_z=1.0)
        assert path.iterations == max(path.column_iterations)
        assert path.iterations <= sparse._FEATURE_SIGN_STEPS * 64
        a = g.T @ g
        for k, lam in enumerate(lam_grid):
            single = l1_map_solve(y, g, mode="penalized", lam=float(lam), sigma_z=1.0,
                                  max_iter=20_000)
            on = single.x_hat != 0
            bound = 1e-15 * np.linalg.cond(a[np.ix_(on, on)]) * np.max(np.abs(single.x_hat))
            assert np.max(np.abs(path.x_hat[:, k] - single.x_hat)) <= max(bound, 1e-12)
            assert single.column_iterations == (single.iterations,)
            assert single.converged
        assert path.converged and path.unconverged == 0

    def test_per_column_lam_on_distinct_columns_matches_scalar_solves(self):
        """A per-column lam need not repeat one y: on five distinct
        measurements, each column started from the previous column's answer,
        every column is certified, is bit for bit the polish of its own sign
        pattern, and is on the sign pattern of its scalar solve and within
        the round-off bound of the test above."""
        g = kernel_matrix(1.0, 64, 2.0)
        rng = stream_rng(72, 13)
        sep = min_spike_separation(1.0, 2.0)
        ys = np.column_stack([g @ random_spike_signal(rng, 64, 3, sep)
                              + 0.01 * rng.standard_normal(64) for _ in range(5)])
        lams = [0.5, 1e-3, 0.05, 1.0, 1e-2]
        path = l1_map_solve(ys, g, mode="penalized", lam=lams, sigma_z=1.0)
        assert path.converged and path.finished == 5
        a, b = g.T @ g, g.T @ ys
        for k, lam in enumerate(lams):
            polished, ok = sparse._polish(a, b[:, [k]], lam, path.x_hat[:, [k]])
            assert ok[0] and np.array_equal(polished[:, 0], path.x_hat[:, k])
            single = l1_map_solve(ys[:, k], g, mode="penalized", lam=lam, sigma_z=1.0,
                                  max_iter=20_000)
            assert single.converged
            on = single.x_hat != 0
            assert np.array_equal(np.sign(path.x_hat[:, k]), np.sign(single.x_hat))
            bound = 1e-15 * np.linalg.cond(a[np.ix_(on, on)]) * np.max(np.abs(single.x_hat))
            assert np.max(np.abs(path.x_hat[:, k] - single.x_hat)) <= max(bound, 1e-12)

    def test_unchanged_sign_pattern_is_not_polished_again(self, monkeypatch):
        """A column is polished only on a sign pattern it was not polished on
        before: column 33 of this pipeline draw fails its polish at iteration
        50, keeps those signs at 100, where it is skipped, and certifies at
        150. The polish is handed the int8 sign pattern alone, and the skip
        is exact: a fresh polish of its iterate at 100 repeats the failed
        result of 50 bit for bit."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 5, 40, 0, 0.1)
        a, b = 100.0 * (g.T @ g), 100.0 * (g.T @ y[:, 33:34])
        real = sparse._polish
        polished = []

        def spy(*args):
            out = real(*args)
            polished.append((args[3].copy(), out))
            return out

        monkeypatch.setattr(sparse, "_polish", spy)
        _, ok, its, finished = _lasso(a, b, 1.0, 2_000)
        assert ok[0] and its[0] == 150 and finished == 0
        assert sum(s.shape[1] for s, _ in polished) == 2
        s50, (x50, ok50) = polished[0]
        assert s50.dtype == np.int8
        monkeypatch.setattr(sparse, "_FEATURE_SIGN_STEPS", 0)
        # A finisher of no steps returns the last ADMM iterate as it is.
        z50, _, _, _ = _lasso(a, b, 1.0, 50)
        z100, ok100, its100, _ = _lasso(a, b, 1.0, 100)
        assert not ok50[0] and not ok100[0] and its100[0] == 100
        assert not np.array_equal(z100, z50)
        np.testing.assert_array_equal(np.sign(z50), s50)
        np.testing.assert_array_equal(np.sign(z100), s50)
        x_fresh, ok_fresh = real(a, b, 1.0, z100)
        assert not ok_fresh[0] and np.array_equal(x_fresh, x50)

    def test_float32_state_is_kept_in_range_by_a_change_of_units(self):
        """y and sigma_z scaled by c = 2^200 and lam by 1/c scale the minimizer
        by c, far beyond float32's range: the ADMM state runs in units of a
        power of two, so the solve repeats bit for bit, iterations included."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 5, 40, 0, 0.1)
        c = 2.0**200
        base = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1,
                            max_iter=sparse._ADMM_HANDOFF)
        with np.errstate(all="raise"):
            big = l1_map_solve(c * y, g, mode="penalized", lam=1.0 / c, sigma_z=0.1 * c,
                               max_iter=sparse._ADMM_HANDOFF)
        assert base.converged and big.converged
        assert big.column_iterations == base.column_iterations
        assert np.array_equal(big.x_hat, c * base.x_hat)

    @pytest.mark.parametrize("c", [2.0**40, 2.0**200])
    def test_later_refill_with_larger_right_hand_sides_lowers_the_unit(self, monkeypatch, c):
        """A refill whose right-hand sides are c times those of the first
        refill arrives while ordinary columns are live: the float32 unit is
        lowered and the live state rescaled exactly, so nothing overflows
        (float32 holds no more than 2^128), and every column's answer is the
        one it has when its own columns are solved alone."""
        monkeypatch.setattr(sparse, "_ADMM_BLOCK", 64)
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 5, 40, 0, 0.1)
        a, ordinary = 100.0 * (g.T @ g), 100.0 * (g.T @ y)
        big = c * ordinary[:, :64]
        b = np.hstack([ordinary, big])
        fetched = []
        source = sparse._column_source([b])

        def fetch(k):
            fetched.append(k)
            return source(k)

        collect, x, ok, _ = _collector(b.shape[1], b.shape[0])
        with np.errstate(over="raise", invalid="raise"):
            sparse._certified_lasso(a, fetch, b.shape[1], 1.0, sparse._ADMM_HANDOFF, collect)
            alone = _lasso(a, ordinary, 1.0, sparse._ADMM_HANDOFF)
            big_alone = _lasso(a, big, 1.0, sparse._ADMM_HANDOFF)
        first_big = np.searchsorted(np.cumsum(fetched), 200, side="right")
        assert fetched[first_big] < 64  # ordinary columns were live when it came
        assert alone[1].all() and ok[:200].all()
        assert np.array_equal(x[:, :200], alone[0])
        assert np.array_equal(ok[200:], big_alone[1])
        assert np.array_equal(x[:, 200:], big_alone[0])

    def test_certified_columns_are_the_polish_of_their_sign_pattern(self):
        """The answer depends only on the sign pattern ADMM ends on: every
        certified column of a pipeline solve is, bit for bit, the polish of
        its own signs, however many iterations found them."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 5, 40, 0, 0.1)
        sol = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1, max_iter=20_000)
        assert sol.converged and len(set(sol.column_iterations)) > 1
        inv_var = 1.0 / 0.1**2
        x, ok = sparse._polish(inv_var * (g.T @ g), inv_var * (g.T @ y), 1.0, sol.x_hat)
        assert ok.all() and np.array_equal(x, sol.x_hat)

    @pytest.mark.parametrize("lam", [[1.0, 0.0, 0.5], [1.0, -0.1, 0.5], [1.0, float("nan"), 0.5],
                                     [1.0, 0.5], [1.0, 0.5, 0.2, 0.1], [[1.0, 0.5, 0.2]]])
    def test_per_column_lam_contract(self, lam):
        """A per-column lam needs one entry per column of y, each > 0."""
        g = kernel_matrix(1.0, 24, 2.0)
        y = stream_rng(72, 11).standard_normal((24, 3))
        with pytest.raises(ContractViolation):
            l1_map_solve(y, g, mode="penalized", lam=lam, sigma_z=1.0)

    @pytest.mark.parametrize("mode, kwargs", [("penalized", {"lam": 1.0, "sigma_z": 0.1}),
                                              ("constrained", {"delta": 0.1})])
    def test_negative_max_iter_rejected(self, mode, kwargs):
        """max_iter counts iterations or pivots, so it must be >= 0."""
        g = kernel_matrix(1.0, 24, 2.0)
        y = stream_rng(72, 12).standard_normal((24, 3))
        with pytest.raises(ContractViolation, match="max_iter"):
            l1_map_solve(y, g, mode=mode, max_iter=-1, **kwargs)

    def test_singular_basis_ends_its_column_unconverged(self):
        """At delta = 1e-11 one of the 100 default sweep draws at seed 1
        pivots onto a basis that is singular in floating point: the pivot
        element, 4e-9 of its row's largest, passes the entering test, though
        no structural zero (_zero_pivots). The basis cannot be re-solved or
        rebuilt, so that column ends unconverged, with its finite maintained
        values as x; the other 99 converge."""
        g = kernel_matrix(1.0, 64, 2.0)
        sol = l1_map_solve(sweep_draws(g, 1, 100, 1e-11), g, mode="constrained", delta=1e-11)
        assert sol.unconverged == 1
        assert np.isfinite(sol.x_hat).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_pivots_are_the_structural_zeros(self, seed):
        """On a random G (n = m = 3), for every nonsingular basis of four of
        the LP's 13 columns, every row r and every nonbasic column j,
        _zero_pivots flags j exactly when the pivot element (B^-1 a_j)_r is
        0: a random G has no zero but those of the LP's structure."""
        n = m = 3
        g = stream_rng(74, 10 + seed).standard_normal((m, n))
        eye = np.eye(m)
        a = np.block([[g, -g, eye, -eye, np.zeros((m, 1))],
                      [np.zeros((1, 2 * n)), np.ones((1, 2 * m + 1))]])
        flagged = 0
        for basis in itertools.combinations(range(2 * n + 2 * m + 1), m + 1):
            b = a[:, basis]
            if np.linalg.cond(b) > 1e8:
                continue
            alpha = np.linalg.solve(b, a)
            for r in range(m + 1):
                js = np.setdiff1d(np.arange(a.shape[1]), basis)
                zero = sparse._zero_pivots(np.tile(basis, (js.size, 1)), np.full(js.size, r),
                                           js, n, m)
                np.testing.assert_array_equal(zero, np.abs(alpha[r, js]) < 1e-9)
                flagged += int(zero.sum())
        assert flagged > 0

    @pytest.mark.parametrize("seed, delta", [(0, 1e-9), (0, 1e-12), (1, 1e-12), (2, 1e-10),
                                             (6, 1e-9)])
    def test_sweep_never_enters_a_zero_pivot(self, seed, delta):
        """Each of these sweeps had a column pivot onto an exactly singular
        basis, on a pivot element that is 0 in exact arithmetic and negative
        by round-off alone (_zero_pivots), and ended it unconverged: every
        column now converges. At seed 0 with delta 1e-9 and seed 6 with 1e-9
        every verdict passes; on the others the error bound of some draw
        still fails by the round-off of its x (under 2e-8)."""
        report, _, _ = run_experiment("sparse_certificate_sweep", seed=seed,
                                      overrides={"delta": delta})
        assert report["results"]["constrained_unconverged"]["value"] == 0
        if delta == 1e-9:
            assert report["all_passed"], report["verdicts"]

    def test_stacked_solve_skips_only_the_singular_systems(self):
        """A stack that holds one singular system solves the others to the
        numbers of a stacked solve without it, and marks that one unsolved."""
        a = stream_rng(72, 13).standard_normal((3, 5, 5))
        b = stream_rng(72, 14).standard_normal((3, 5))
        a[1, :, 4] = a[1, :, 0]
        x, solved = sparse._solve_stack(a, b)
        assert solved.tolist() == [True, False, True]
        assert np.isnan(x[1]).all()
        np.testing.assert_array_equal(x[[0, 2]], sparse._solve_stack(a[[0, 2]], b[[0, 2]])[0])
        np.testing.assert_array_equal(x[[0, 2]],
                                      np.linalg.solve(a[[0, 2]], b[[0, 2], :, None])[..., 0])

    def test_sweep_pivot_count(self):
        """The equality-form simplex from its dual-feasible starting basis:
        the 100 default sweep draws at seed 0 take 4 905 pivots (8 790 in the
        inequality form from the all-slack basis)."""
        report, _, _ = run_experiment("sparse_certificate_sweep", seed=0)
        assert report["results"]["constrained_unconverged"]["value"] == 0
        assert report["results"]["constrained_pivots"]["value"] < 6000

    def test_sweep_at_fs_4_42_passes_at_seeds_0_to_9(self):
        """At fs = 4.42 ADMM stalls on some path columns (20 000 float64
        iterations left 2, 1 and 1 uncertified at seeds 0-2, failing the
        path verdict); warm-started feature-sign search certifies every
        column."""
        for seed in range(10):
            report, _, _ = run_experiment("sparse_certificate_sweep", seed=seed,
                                          overrides={"fs": 4.42})
            res = report["results"]
            assert report["all_passed"], (seed, report["verdicts"])
            assert res["penalized_uncertified"]["value"] == 0

    def test_sweep_draws_match_highs_linear_program(self):
        """The first 20 default sweep draws at seed 0, solved as one call (two
        blocks of columns), each reach the HiGHS optimum of the inequality-form
        LP and agree with their own one-column solve."""
        from scipy.optimize import linprog

        n, delta = 64, 0.1
        g = kernel_matrix(1.0, n, 2.0)
        eye = np.eye(n)
        a_ub = np.block([[-g, g, -eye], [g, -g, -eye], [np.zeros((1, 2 * n)), np.ones((1, n))]])
        c = np.concatenate([np.ones(2 * n), np.zeros(n)])
        ys = sweep_draws(g, 0, 20, delta)
        sol = l1_map_solve(ys, g, mode="constrained", delta=delta)
        assert sol.converged and sol.unconverged == 0
        assert sol.x_hat.shape == (n, 20) and len(sol.column_iterations) == 20
        assert sol.iterations == max(sol.column_iterations)
        for i in range(20):
            ref = linprog(c, A_ub=a_ub, b_ub=np.concatenate([-ys[:, i], ys[:, i], [delta]]),
                          bounds=(0, None), method="highs")
            assert ref.status == 0
            assert np.sum(np.abs(sol.x_hat[:, i])) == pytest.approx(ref.fun, rel=1e-7)
            single = l1_map_solve(ys[:, i], g, mode="constrained", delta=delta)
            assert single.converged and single.column_iterations == (single.iterations,)
            np.testing.assert_allclose(sol.x_hat[:, i], single.x_hat, rtol=0, atol=1e-12)

    def test_simplex_does_not_depend_on_memory_order(self):
        """The 100 default sweep draws at seeds 0-4, passed to the simplex C-
        and F-ordered, give the same x and pivots: every pivot records its
        entering column in the basis whatever the layout of y."""
        g = kernel_matrix(1.0, 64, 2.0)
        for seed in range(5):
            ys = sweep_draws(g, seed, 100)
            x_c, pivots_c, ok_c = sparse._dual_simplex(g, np.ascontiguousarray(ys), 0.1,
                                                       100_000)
            x_f, pivots_f, ok_f = sparse._dual_simplex(g, np.asfortranarray(ys), 0.1,
                                                       100_000)
            assert ok_c.all() and ok_f.all()
            assert np.array_equal(x_c, x_f) and np.array_equal(pivots_c, pivots_f)

    def test_mixed_batch_reports_per_column(self):
        """A batch whose first column has ||y||_1 <= delta returns x = 0 there
        with no pivots, solves the other columns as it would alone to
        round-off, and reports pivots and convergence per column."""
        n, delta = 32, 0.05
        g = kernel_matrix(1.0, n, 2.0)
        rng = stream_rng(72, 12)
        small = rng.standard_normal(n)
        small *= 0.5 * delta / np.sum(np.abs(small))
        spikes = np.zeros((n, 3))
        spikes[[8, 16, 24], [0, 1, 2]] = [1.0, -0.7, 1.3]
        y = np.column_stack([small, g @ spikes + 1e-3 * rng.standard_normal((n, 3))])
        sol = l1_map_solve(y, g, mode="constrained", delta=delta)
        assert sol.x_hat.shape == (n, 4)
        np.testing.assert_array_equal(sol.x_hat[:, 0], np.zeros(n))
        assert len(sol.column_iterations) == 4 and sol.column_iterations[0] == 0
        assert min(sol.column_iterations[1:]) > 0
        assert sol.iterations == max(sol.column_iterations)
        assert sol.converged and sol.unconverged == 0
        for j in range(1, 4):
            single = l1_map_solve(y[:, j], g, mode="constrained", delta=delta)
            np.testing.assert_allclose(sol.x_hat[:, j], single.x_hat, rtol=0, atol=1e-12)
        # One pivot is too few for the noisy columns: each counts as unconverged.
        capped = l1_map_solve(y, g, mode="constrained", delta=delta, max_iter=1)
        assert capped.column_iterations == (0, 1, 1, 1)
        assert capped.unconverged == 3 and not capped.converged


def _oracle(a, b, lam):
    """The one sign pattern of min 0.5 x'Ax - b'x + lam ||x||_1 whose polish
    is certified, found among all 3^n, and its polish."""
    n = len(b)
    patterns = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n))).T
    xs, ok = sparse._polish(a, np.repeat(b[:, None], patterns.shape[1], axis=1), lam, patterns)
    assert np.count_nonzero(ok) == 1
    return xs[:, ok][:, 0]


class TestFeatureSignFinisher:
    """Float64 feature-sign search, run in lock-step over the columns that
    float32 ADMM has not certified at the hand-off, and over each column of a
    penalty path in turn."""

    @pytest.mark.parametrize("seed,col,rho", [(73, 7103, 0.004), (18, 20_596, 0.008)])
    def test_float32_stragglers_are_finished_exactly(self, monkeypatch, seed, col, rho):
        """Two default pipeline columns on which float32 ADMM stalls at the
        given rho, though float64 ADMM certified them at rho 0.004 (after
        1 150 and 300 iterations). The finisher certifies each from its
        iterate at the hand-off, bit for bit the float64 polish of its sign
        pattern and the answer at the other rho."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 25, 1000, seed, 0.1)
        a, b = 100.0 * (g.T @ g), 100.0 * (g.T @ y[:, col:col + 1])
        answers = {}
        for r in (0.004, 0.008):
            monkeypatch.setattr(sparse, "_ADMM_RHO", r)
            x, ok, its, finished = _lasso(a, b, 1.0, sparse._ADMM_HANDOFF)
            assert ok[0]
            answers[r] = x, its[0], finished
        x, its, finished = answers[rho]
        assert finished == 1 and its == sparse._ADMM_HANDOFF
        polished, ok = sparse._polish(a, b, 1.0, x)
        assert ok[0] and np.array_equal(polished, x)
        assert np.array_equal(answers[0.004][0], answers[0.008][0])
        monkeypatch.setattr(sparse, "_ADMM_RHO", rho)
        monkeypatch.setattr(sparse, "_FEATURE_SIGN_STEPS", 0)
        assert not _lasso(a, b, 1.0, sparse._ADMM_HANDOFF)[1][0]

    def test_matches_exhaustive_sign_pattern_oracle(self):
        """On small random lassos (n = 6), exactly one of the 3^6 sign
        patterns has a certified polish, and the search, from zero and from
        a random point side by side in one block, certifies it in both
        columns."""
        n = 6
        rng = stream_rng(72, 20)
        sizes = set()
        for _ in range(12):
            m = rng.standard_normal((n + 2, n))
            a, b, lam = m.T @ m, 3.0 * rng.standard_normal(n), rng.uniform(0.2, 2.0)
            oracle = _oracle(a, b, lam)
            sizes.add(np.count_nonzero(oracle))
            starts = np.column_stack([np.zeros(n), rng.standard_normal(n)])
            x, _, ok = sparse._feature_sign_polish(a, np.column_stack([b, b]), lam, starts)
            assert ok.all() and np.array_equal(x, np.column_stack([oracle, oracle]))
        assert len(sizes) > 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exact_reference_at_any_scale(self, n):
        """A random positive definite lasso of n <= 5 unknowns, scaled by
        2^-40, 1 and 2^40 (A, b and lam alike, so the minimizer is the same):
        exactly one of the 3^n sign patterns passes the polish, with the same
        x bit for bit at every scale, and the search from zero and from a
        random start returns that x bit for bit."""
        rng = stream_rng(72, 40 + n)
        for _ in range(8):
            m = rng.standard_normal((n + 1, n))
            a = m.T @ m + 0.1 * np.eye(n)
            b, lam = 2.0 * rng.standard_normal(n), rng.uniform(0.2, 1.0)
            start = rng.standard_normal(n)
            for scale in (2.0**-40, 1.0, 2.0**40):
                oracle = _oracle(scale * a, scale * b, scale * lam)
                assert np.array_equal(oracle, _oracle(a, b, lam))
                for x0 in (np.zeros(n), start):
                    x, _, ok = sparse._feature_sign_polish(scale * a, scale * b[:, None],
                                                           scale * lam, x0[:, None])
                    assert ok[0] and np.array_equal(x[:, 0], oracle)

    def test_column_in_a_block_runs_as_it_would_alone(self, monkeypatch):
        """64 columns of a pipeline draw at sigma_n = 0.01, searched in one
        block from zero and from their ADMM iterates at 50 iterations, get the
        x, step count and certificate that each gets searched alone."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 16, 4, 0, 0.01)
        a, b = 1e4 * (g.T @ g), 1e4 * (g.T @ y)
        with monkeypatch.context() as m:
            m.setattr(sparse, "_FEATURE_SIGN_STEPS", 0)
            z = _lasso(a, b, 1.0, 50)[0]  # the ADMM iterates, as they are
        for starts in (np.zeros_like(b), z):
            x, steps, ok = sparse._feature_sign_polish(a, b, 1.0, starts)
            assert ok.all() and steps.max() > 10
            for k in range(b.shape[1]):
                alone = sparse._feature_sign_polish(a, b[:, [k]], 1.0, starts[:, [k]])
                assert np.array_equal(alone[0][:, 0], x[:, k])
                assert alone[1][0] == steps[k] and alone[2][0] == ok[k]

    def test_exactly_singular_active_set_ends_the_search_from_its_start(self):
        """With A = [[1, 1], [1, 1]], the pattern (+, +) has an exactly
        singular A_SS: its polish leaves NaN on S and no certificate, so a
        search started there stops after that one step and is retried from
        zero, which certifies x = (1.5, 0)."""
        a, b = np.ones((2, 2)), np.array([[2.0], [2.0]])
        x, ok = sparse._polish(a, b, 0.5, np.ones((2, 1)))
        assert np.isnan(x).all() and not ok[0]
        x, steps, ok = sparse._feature_sign_polish(a, b, 0.5, np.ones((2, 1)))
        assert ok[0] and steps[0] == 2 and np.array_equal(x[:, 0], [1.5, 0.0])

    def test_retry_from_zero_certifies_a_column_its_admm_iterate_does_not(self, monkeypatch):
        """Column 478 of the pipeline draw at sigma_n = 1e-6 (40 replicates,
        seed 0), solved alone: from its ADMM iterate at the hand-off the
        search uses up its 4n = 96 steps uncertified, and the retry from zero
        certifies it in 48 more. The answer is, bit for bit, the search's
        from zero and the polish of its own sign pattern."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 25, 40, 0, 1e-6)
        a, b = 1e12 * (g.T @ g), 1e12 * (g.T @ y[:, 478:479])
        x, ok, its, finished = _lasso(a, b, 1.0, sparse._ADMM_HANDOFF)
        assert ok[0] and finished == 1 and its[0] == sparse._ADMM_HANDOFF
        polished, certified = sparse._polish(a, b, 1.0, x)
        assert certified[0] and np.array_equal(polished, x)
        with monkeypatch.context() as m:
            m.setattr(sparse, "_FEATURE_SIGN_STEPS", 0)
            z = _lasso(a, b, 1.0, sparse._ADMM_HANDOFF)[0]  # the ADMM iterate, as it is
        retried, steps, ok = sparse._feature_sign_polish(a, b, 1.0, z)
        from_zero, zero_steps, zero_ok = sparse._feature_sign_polish(a, b, 1.0, np.zeros_like(z))
        assert ok[0] and zero_ok[0] and np.array_equal(retried, x)
        assert np.array_equal(from_zero, x)
        assert steps[0] == sparse._FEATURE_SIGN_STEPS * 24 + zero_steps[0] == 96 + 48

    def test_finisher_alone_matches_admm(self):
        """With no ADMM iteration (max_iter = 0) every column whose minimizer
        is not zero goes to the finisher from zero; it certifies all of them,
        bit for bit as ADMM's certified answers."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 5, 40, 0, 0.1)
        admm = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1,
                            max_iter=sparse._ADMM_HANDOFF)
        alone = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1, max_iter=0)
        assert admm.converged and admm.finished == 0
        assert alone.converged and alone.finished == 200 and alone.iterations == 0
        assert np.array_equal(alone.x_hat, admm.x_hat)

    def test_zero_hand_off_polishes_zero_first(self):
        """At max_iter = 0 the ADMM loop takes no step: a column whose
        minimizer is x = 0 is certified by the polish of zero and is not
        counted as finished; the other goes to the finisher. The answers
        equal ADMM's. An empty y is a converged empty solve."""
        g = kernel_matrix(1.0, 24, 2.0)
        y = g[:, [5, 8]] * [1.0, 1e-6]
        admm = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1,
                            max_iter=sparse._ADMM_HANDOFF)
        alone = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1, max_iter=0)
        assert admm.converged and alone.converged
        assert alone.iterations == 0 and alone.column_iterations == (0, 0)
        assert alone.finished == 1
        assert np.array_equal(alone.x_hat, admm.x_hat) and not alone.x_hat[:, 1].any()
        empty = l1_map_solve(np.zeros((24, 0)), g, mode="penalized", lam=1.0, sigma_z=0.1,
                             max_iter=0)
        assert empty.converged and empty.x_hat.shape == (24, 0)
        assert empty.iterations == empty.unconverged == empty.finished == 0
        assert empty.column_iterations == ()

    def test_only_the_polish_certifies_a_settled_column(self, monkeypatch):
        """With no round-off allowed in the polish's stationarity check, the
        finisher still settles every column, but the polish rejects those
        whose stationarity holds only to round-off: they stay uncertified."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 5, 40, 0, 0.1)
        monkeypatch.setattr(sparse, "_KKT_ROUNDOFF", 0.0)
        sol = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1, max_iter=0)
        assert sol.unconverged > 0 and sol.finished == 200 - sol.unconverged

    def test_penalty_path_is_warm_started(self):
        """Each column of the sweep's default path at seed 0 starts from the
        previous column's answer: the path takes 116 feature-sign steps in
        all, against 503 with every column started from zero."""
        report, _, _ = run_experiment("sparse_certificate_sweep", seed=0)
        assert report["results"]["penalized_uncertified"]["value"] == 0
        assert sum(report["results"]["penalized_iterations"]["value"]) <= 150

    def test_exhausted_step_cap_fails_the_penalty_path(self, monkeypatch):
        """With no step allowed, no column of the sweep's path settles: each
        is returned uncertified and counted, and the path verdict fails,
        though the l1 norms of the zero columns it returns are monotone."""
        monkeypatch.setattr(sparse, "_FEATURE_SIGN_STEPS", 0)
        report, _, _ = run_experiment("sparse_certificate_sweep", seed=0)
        res = report["results"]
        assert res["penalized_uncertified"]["value"] == 20
        assert res["penalized_iterations"]["value"] == [0] * 20
        assert res["l1_norm_path"]["value"] == [0.0] * 20
        assert not report["verdicts"]["penalty_path_l1_monotone"]
        assert report["verdicts"]["error_bound_never_violated"]
        assert not report["all_passed"]

    def test_exhausted_step_cap_leaves_the_column_uncertified(self, monkeypatch):
        """A column that runs out of steps is not certified, whatever the
        polish of its signs says: the solve returns it uncertified and
        counts it. From zero the column needs more than one step and fewer
        than n; with n steps allowed it is certified in as many."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 5, 40, 0, 0.1)
        a, b = 100.0 * (g.T @ g), 100.0 * (g.T @ y[:, [0]])
        _, needed, ok = sparse._feature_sign_polish(a, b, 1.0, np.zeros_like(b))
        assert ok[0] and 1 < needed[0] < 24
        monkeypatch.setattr(sparse, "_FEATURE_SIGN_STEPS", 1)
        _, steps, ok = sparse._feature_sign_polish(a, b, 1.0, np.zeros_like(b))
        assert ok[0] and steps[0] == needed[0]
        monkeypatch.setattr(sparse, "_FEATURE_SIGN_STEPS", 0)
        x, steps, ok = sparse._feature_sign_polish(a, b, 1.0, np.zeros_like(b))
        assert not ok[0] and steps[0] == 0 and not x.any()
        sol = l1_map_solve(y[:, :3], g, mode="penalized", lam=1.0, sigma_z=0.1, max_iter=0)
        assert not sol.converged and sol.unconverged == 3 and sol.finished == 0
        assert not sol.x_hat.any()


class TestCertificate:
    def test_zero_budget_exact_recovery(self):
        x = np.zeros(32)
        x[10] = 1.0
        cert = recovery_certificate(x, x.copy(), 1.0, 2.0, 0.0)
        assert cert.bound == 0.0 and cert.achieved == 0.0 and cert.holds

    def test_bound_linear_in_budget(self):
        x = np.zeros(32)
        c1 = recovery_certificate(x, x, 1.0, 2.0, 0.1)
        c2 = recovery_certificate(x, x, 1.0, 2.0, 0.2)
        assert c2.bound == pytest.approx(2.0 * c1.bound)

    def test_only_the_l1_bound(self):
        """The bound is on the l1 error, the only norm: the certificate names
        it, and takes no norm to choose."""
        cert = recovery_certificate(np.zeros(32), np.zeros(32), 1.0, 2.0, 0.3)
        assert cert.norm == "l1"
        with pytest.raises(TypeError):
            recovery_certificate(np.zeros(32), np.zeros(32), 1.0, 2.0, 0.3, norm="l1")

    def test_holds_on_seeded_noisy_draws(self):
        g = kernel_matrix(1.0, 48, 2.0)
        sep = min_spike_separation(1.0, 2.0)
        delta = 0.1
        for i in range(25):
            rng = stream_rng(73, i)
            x = random_spike_signal(rng, 48, 3, sep)
            w = rng.standard_normal(48)
            w *= delta * rng.uniform(0.5, 1.0) / np.sum(np.abs(w))
            sol = l1_map_solve(g @ x + w, g, mode="constrained", delta=delta)
            assert recovery_certificate(x, sol.x_hat, 1.0, 2.0, delta).holds

    def test_problem_serialization(self):
        """The document reads the support and amplitudes off the spike vector."""
        g = kernel_matrix(1.0, 32, 2.0)
        x = random_spike_signal(stream_rng(73, 99), 32, 2, min_spike_separation(1.0, 2.0))
        y = g @ x
        cert = recovery_certificate(x, x, 1.0, 2.0, 0.0)
        doc = problem_doc(x, 1.0, 2.0, y, x, cert)
        assert doc["n"] == 32 and doc["Fs"] == 2.0 and doc["sigma"] == 1.0
        support = np.flatnonzero(x)
        assert doc["support"] == support.tolist() and len(support) == 2
        assert doc["amplitudes"] == x[support].tolist()
        assert doc["certificate"]["holds"] is True


class TestLambdaPipeline:
    def test_noiseless_solver_matches_clean_per_replicate(self):
        """With no noise the reconstruction is essentially exact, so the two
        rate estimates agree replicate by replicate."""
        rep = lambda_pipeline_experiment(1.0, 4, 40, seed=2, sigma_n=0.0, restorer="map_l1")
        assert rep.solver_unconverged == 0
        assert abs(rep.mse_restored - rep.mse_clean) <= 1e-3 * max(rep.mse_clean, 1e-9)

    @pytest.mark.parametrize("rate", [1e6, 1e8])
    def test_noiseless_restored_mse_matches_clean_at_large_rates(self, rate):
        """Spike masses near 1 / rate: the exact inversion keeps every column,
        however small its l1 norm, so the restored MSE is the clean one to
        round-off and finite."""
        rep = lambda_pipeline_experiment(rate, 25, 20, seed=0, sigma_n=0.0, restorer="map_l1")
        assert rep.solver_unconverged == 0 and math.isfinite(rep.mse_restored)
        assert rep.mse_restored == pytest.approx(rep.mse_clean, rel=1e-8)

    def test_norm_oracle_closes_gap_exactly(self):
        rep = lambda_pipeline_experiment(1.0, 10, 100, seed=3, sigma_n=0.1,
                                         restorer="norm_oracle")
        assert rep.mse_restored == rep.mse_clean

    @pytest.mark.parametrize("sigma_n", [0.1, 0.0])
    def test_draw_matches_a_per_spike_loop(self, monkeypatch, sigma_n):
        """Replicate r's spikes, then its noise, from stream (seed, r), placed
        one spike at a time as a reference; the draw comes in chunks of whole
        replicates."""
        g = kernel_matrix(1.0, 24, 2.0)
        sep = min_spike_separation(1.0, 2.0)
        m, replicates = 6, 7
        x = np.zeros((24, m * replicates))
        noise = np.zeros_like(x)
        amps = np.zeros(m * replicates)
        for r in range(replicates):
            rng = stream_rng(9, r)
            locs = rng.integers(sep, 24 - sep, size=m)
            amps[r * m:(r + 1) * m] = rng.exponential(1.0 / 2.0, size=m)
            for i in range(m):
                x[locs[i], r * m + i] = amps[r * m + i]
            if sigma_n > 0:
                noise[:, r * m:(r + 1) * m] = rng.standard_normal((24, m))
        monkeypatch.setattr(sparse, "_PIPELINE_COLUMNS", 13)  # 2 replicates per chunk
        amps_drawn = np.full(m * replicates, np.nan)
        chunks, filled = [], []
        for chunk in _pipeline_draw(g, sep, 2.0, m, replicates, 9, sigma_n, amps_drawn):
            chunks.append(chunk)
            filled.append(int(np.count_nonzero(~np.isnan(amps_drawn))))
        assert [c.shape[1] for c in chunks] == [12, 12, 12, 6]
        assert filled == [12, 24, 36, 42]  # a chunk's amplitudes are in place when it comes
        assert np.array_equal(amps_drawn, amps)
        assert np.array_equal(np.hstack(chunks), g @ x + sigma_n * noise)

    def test_restorers_share_one_draw(self):
        """A tuple of restorers gives the reports that separate calls give."""
        both = lambda_pipeline_experiment(1.0, 5, 30, seed=6, sigma_n=0.1,
                                          restorer=("map_l1", "norm_oracle"))
        assert both == tuple(lambda_pipeline_experiment(1.0, 5, 30, seed=6, sigma_n=0.1,
                                                        restorer=name)
                             for name in ("map_l1", "norm_oracle"))

    def test_noisy_ordering_holds(self):
        rep = lambda_pipeline_experiment(1.0, 15, 300, seed=4, sigma_n=0.1,
                                         restorer="map_l1")
        assert rep.solver_unconverged == 0 and rep.solver_iterations > 0
        assert rep.mse_restored >= rep.mse_clean - _FLAG_SIGMAS * rep.stderr_paired_diff
        assert rep.mse_clean >= rep.crb - _FLAG_SIGMAS * rep.stderr_clean
        assert rep.mse_restored >= rep.mse_clean

    def test_pipeline_column_iterations(self):
        """Over-relaxed float32 ADMM at rho 0.008, polished every 50
        iterations: the 25 000 default pipeline columns at seed 0 take
        1 618 600 column-iterations, all certified without the finisher
        (2 229 600 in float64 at rho 0.004; 4 189 000 with plain ADMM
        polished every 100)."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 25, 1000, 0, 0.1)
        sol = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1,
                           max_iter=sparse._ADMM_HANDOFF)
        assert sol.converged and sol.finished == 0 and len(sol.column_iterations) == 25_000
        assert sum(sol.column_iterations) <= 1_700_000

    def test_solution_does_not_depend_on_column_order(self):
        """The pipeline streams its columns through the solver in any order
        of refills: on a permutation of a pipeline draw's columns the solve
        returns the permuted x_hat and iterations, bit for bit."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 25, 200, 7, 0.1)
        perm = stream_rng(7, 1).permutation(y.shape[1])
        sol = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1,
                           max_iter=sparse._ADMM_HANDOFF)
        shuffled = l1_map_solve(y[:, perm], g, mode="penalized", lam=1.0, sigma_z=0.1,
                                max_iter=sparse._ADMM_HANDOFF)
        assert sol.converged and shuffled.converged
        assert np.array_equal(shuffled.x_hat, sol.x_hat[:, perm])
        assert shuffled.column_iterations == tuple(np.array(sol.column_iterations)[perm])

    def test_streamed_draw_matches_a_dense_solve(self, monkeypatch):
        """Chunks of 2 replicates (50 columns) feed refills of up to 1 024
        columns: the streamed solve returns, bit for bit, the x_hat and
        iterations of one solve on the joined measurements, and the pipeline's
        masses are the column sums of that x_hat."""
        monkeypatch.setattr(sparse, "_PIPELINE_COLUMNS", 60)
        g = kernel_matrix(1.0, 24, 2.0)
        inv_var = 1.0 / 0.1**2
        _, y = _draw(g, 1.0, 25, 200, 7, 0.1)
        dense = l1_map_solve(y, g, mode="penalized", lam=1.0, sigma_z=0.1,
                             max_iter=sparse._ADMM_HANDOFF)
        collect, x, certified, its = _collector(y.shape[1], y.shape[0])
        amps = np.empty(y.shape[1])
        chunks = _pipeline_draw(g, _PIPELINE_SEP, 1.0, 25, 200, 7, 0.1, amps)
        assert {chunk.shape[1] for chunk in chunks} == {50}
        chunks = _pipeline_draw(g, _PIPELINE_SEP, 1.0, 25, 200, 7, 0.1, amps)
        finished = sparse._certified_lasso(
            inv_var * (g.T @ g), sparse._column_source(inv_var * (g.T @ c) for c in chunks),
            y.shape[1], 1.0, sparse._ADMM_HANDOFF, collect)
        assert certified.all() and finished == 0
        assert np.array_equal(x, dense.x_hat)
        assert tuple(its.tolist()) == dense.column_iterations
        masses, iterations, unconverged, _ = sparse._map_l1_masses(
            _pipeline_draw(g, _PIPELINE_SEP, 1.0, 25, 200, 7, 0.1, amps), g, 1.0, 0.1, y.shape[1])
        assert np.array_equal(masses, np.abs(dense.x_hat).sum(axis=0))
        assert (iterations, unconverged) == (dense.iterations, 0)

    def test_verdict_fails_on_uncertified_reconstructions(self, monkeypatch):
        """Cut the solver off before it certifies, at the hand-off and in the
        finisher: the restored MSE is then not the minimizer's, so the
        ordering verdict must fail, whatever it reads."""
        overrides = {"m": 5, "replicates": 40}
        report, _, _ = run_experiment("lambda_pipeline", seed=0, overrides=overrides)
        assert report["verdicts"]["restoration_does_not_help"]
        assert report["results"]["penalized_uncertified"]["value"] == 0
        monkeypatch.setattr(sparse, "_ADMM_HANDOFF", 5)
        monkeypatch.setattr(sparse, "_FEATURE_SIGN_STEPS", 0)
        report, _, _ = run_experiment("lambda_pipeline", seed=0, overrides=overrides)
        assert report["results"]["penalized_uncertified"]["value"] > 0
        assert report["results"]["penalized_iterations"]["value"] == 5
        assert report["results"]["penalized_finished"]["value"] == 0
        assert not report["verdicts"]["restoration_does_not_help"]
        assert not report["all_passed"]

    def test_clean_estimate_checked_against_its_exact_mse(self):
        """m / S with S ~ Gamma(m, rate) has MSE rate^2 (m+2)/((m-1)(m-2)) and
        the biased-estimator bound rate^2 (m+1)/(m-1)^2: 0.048913 and 0.045139
        at the defaults, where the Monte Carlo MSE lies within 4 se of it."""
        report, _, _ = run_experiment("lambda_pipeline", seed=0)
        res = report["results"]
        assert res["mse_clean_exact"]["value"] == pytest.approx(0.048913, abs=5e-7)
        assert res["crb_biased"]["value"] == pytest.approx(0.045139, abs=5e-7)
        assert report["verdicts"]["clean_mse_matches_exact_within_4se"]
        assert report["verdicts"]["exact_mse_respects_biased_bound"]
        assert report["all_passed"]
        report, _, _ = run_experiment("lambda_pipeline", seed=0,
                                      overrides={"rate": 2.0, "m": 5, "replicates": 40})
        res = report["results"]
        assert res["mse_clean_exact"]["value"] == pytest.approx(4.0 * 7 / 12, rel=1e-15)
        assert res["crb_biased"]["value"] == pytest.approx(4.0 * 6 / 16, rel=1e-15)

    def test_peak_memory_under_one_measurement_array(self):
        """The pipeline streams its draw through the solver a chunk of
        replicates at a time and keeps only each column's l1 mass: at the
        defaults, with both restorers, its traced peak stays under one
        n x (replicates * m) float array, the noiseless branch's too. At 4x
        the replicates the peak grows by no more than 17 bytes per added
        column, the bound that lambda_pipeline's parameter check rests on.
        The arrays of one entry per column take 16 (amplitudes and masses,
        float64; the solver keeps none); the last byte, 75 kB here, covers
        the few kB by which the interpreter's free lists move a traced peak
        from run to run."""
        both = ("map_l1", "norm_oracle")
        per_column = 2 * 8 + 1
        for sigma_n in (0.1, 0.0):  # first-call allocations
            lambda_pipeline_experiment(1.0, 3, 4, seed=0, sigma_n=sigma_n, restorer=both)
        for sigma_n in (0.1, 0.0):
            peaks = []
            for replicates in (1000, 4000):
                tracemalloc.start()
                try:
                    lambda_pipeline_experiment(1.0, 25, replicates, seed=0, sigma_n=sigma_n,
                                               restorer=both)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[0] < 24 * 25_000 * np.dtype(np.float64).itemsize, sigma_n
            assert peaks[1] - peaks[0] <= 3 * 25_000 * per_column, sigma_n

    def test_solver_holds_nothing_per_column(self):
        """The certified lasso's buffers have the width of its live block, and
        it hands every finished column's answer, ADMM count and certificate
        to collect: streaming 8 000 columns through it, from a generator of
        blocks, peaks where streaming 2 000 does, within a few KiB."""
        g = kernel_matrix(1.0, 24, 2.0)
        _, y = _draw(g, 1.0, 25, 10, 0, 0.1)
        a, block = 100.0 * (g.T @ g), 100.0 * (g.T @ y)
        seen = []

        def collect(cols, x, iterations, certified):
            seen.append(int(np.count_nonzero(certified)))

        def solve(c):
            blocks = (block for _ in range(c // block.shape[1]))
            sparse._certified_lasso(a, sparse._column_source(blocks), c, 1.0,
                                    sparse._ADMM_HANDOFF, collect)

        solve(2000)  # first-call allocations
        peaks = []
        for c in (2000, 8000):
            seen.clear()
            tracemalloc.start()
            try:
                solve(c)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sum(seen) == c
        assert peaks[1] - peaks[0] <= 4096

    def test_replicate_restored_to_zero_mass_has_infinite_error(self):
        """At rate 100 the penalty zeroes every column of some replicate, whose
        rate estimate m / 0 is infinite: the restored MSE and its standard
        errors are infinite, so restoration did not help, and the clean side
        is untouched."""
        rep, oracle = lambda_pipeline_experiment(100.0, 4, 10, seed=0,
                                                 restorer=("map_l1", "norm_oracle"))
        assert rep.solver_unconverged == 0
        assert rep.mse_restored == rep.stderr_restored == rep.stderr_paired_diff == math.inf
        assert rep.mse_restored >= rep.mse_clean - _FLAG_SIGMAS * rep.stderr_paired_diff
        assert (rep.mse_clean, rep.stderr_clean) == (oracle.mse_clean, oracle.stderr_clean)
        assert math.isfinite(rep.mse_clean) and oracle.mse_restored == oracle.mse_clean

    def test_zero_mass_guard(self):
        with pytest.raises(ContractViolation):
            lambda_pipeline_experiment(1.0, 0, 10, seed=0)

    def test_empty_restorer_tuple_is_rejected(self):
        """No restorer asks for no report: that is refused before any draw."""
        with pytest.raises(ContractViolation, match="at least one restorer"):
            lambda_pipeline_experiment(1.0, 25, 1000, seed=0, restorer=())
