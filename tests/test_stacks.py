"""Per-shape chain stacks: every per-chain number a stack gives equals the
one the same chain gives alone and the one the per-chain formulas below give,
and a stack is checked as its tables are."""

import numpy as np
import pytest

from chainlab.classification import bayes_risk, separability, theorem_ordering_audit
from chainlab.errors import (
    InvalidDistribution,
    NegativeWeight,
    OrderingViolation,
    SupportMismatch,
)
from chainlab import experiments
from chainlab.experiments import (
    _CHAIN_SIZES,
    _CHAIN_STREAM,
    _COND_SIZES,
    _COND_STREAM,
    _PE_SIZES,
    _random_chains,
)
from chainlab.information import dpi_audit
from chainlab.instances import random_chain
from chainlab.probability import (
    ChainStack,
    ConditionalTable,
    assemble_joint,
    marginal,
    stage_pair,
)
from chainlab.rng import stream_rng

SEED = 314
N_CHAINS = 60
# (sizes, stream, invertible) of the three random-chain runners' draws.
DRAWS = {
    "full": (_CHAIN_SIZES, _CHAIN_STREAM, False),
    "binary": (_PE_SIZES, _CHAIN_STREAM, False),
    "conditional": (_COND_SIZES, _COND_STREAM, True),
}


def alone(i: int, sizes: dict, stream: int, invertible: bool = False):
    """Chain i of ``_random_chains`` drawn by itself from the documented
    layout: its sizes are row i of the size stream's (n, 4) block, and its
    tables the j-th run of one row's cells in its shape's stream, j counting
    the earlier chains of that shape."""
    bounds = [(s, s + 1) if isinstance(s, int) else (0, 1) if s is None else s
              for s in sizes.values()]
    low, high = zip(*bounds)
    drawn = stream_rng(SEED, stream).integers(low, high, size=(i + 1, 4)).tolist()
    shape = drawn[i]
    theta, x, y, xhat = shape
    if invertible:
        y = max(x, y)
    cells = theta + theta * x + (y if invertible else x * y) + y * xhat
    rng = stream_rng(SEED, stream, *shape)
    rng.standard_exponential(drawn[:i].count(shape) * cells)
    return random_chain(rng, *shape[:3], xhat or None, invertible_channel=invertible)


def tables(stacks) -> dict:
    """Chain number -> its (prior, family, channel, restorer) rows."""
    out = {}
    for s in stacks:
        for j, i in enumerate(s.index):
            out[i] = (s.prior[j], s.family[j], s.channel[j],
                      None if s.restorer is None else s.restorer[j])
    return out


# Per-chain reference formulas, one chain at a time with no chain axis.

def reference_joint(chain) -> np.ndarray:
    t = np.einsum("t,tx,xy->txy", chain.prior.probs, chain.family.rows, chain.channel.rows)
    return t if chain.restorer is None else np.einsum("txy,yz->txyz", t, chain.restorer.rows)


def reference_class_restored(chain) -> np.ndarray:
    """Joint with the per-class restorer p(x | y, theta), built class by class."""
    t = reference_joint(chain)
    rows = []
    for k in range(t.shape[0]):
        yx = t[k].T
        mass = yx.sum(axis=1, keepdims=True)
        rows.append(np.where(mass > 0, yx / np.where(mass > 0, mass, 1.0), 1.0 / yx.shape[1]))
    return np.einsum("txy,tyz->txyz", t, np.stack(rows))


def reference_pair(t: np.ndarray, stage: str) -> np.ndarray:
    keep = ("x", "y", "xhat").index(stage) + 1
    return t.sum(axis=tuple(a for a in range(1, t.ndim) if a != keep))


def reference_information(pair: np.ndarray) -> float:
    outer = np.outer(pair.sum(axis=1), pair.sum(axis=0))
    nz = pair > 0
    return max(float(np.sum(pair[nz] * (np.log(pair[nz]) - np.log(outer[nz])))), 0.0)


def reference_error(pair: np.ndarray) -> float:
    return float(max(1.0 - pair.max(axis=0).sum(), 0.0))


def stacks_and_chains(draw: str):
    sizes, stream, invertible = DRAWS[draw]
    stacks = _random_chains(SEED, N_CHAINS, stream, **sizes, invertible=invertible)
    assert sorted(i for s in stacks for i in s.index) == list(range(N_CHAINS))
    assert len(stacks) > 1 and max(len(s.index) for s in stacks) >= 3  # mixed shapes, real stacks
    chains = [alone(i, sizes, stream, invertible) for i in range(N_CHAINS)]
    for i, drawn in tables(stacks).items():  # the same draws, table for table
        one = chains[i]
        assert np.array_equal(drawn[0], one.prior.probs)
        assert np.array_equal(drawn[1], one.family.rows)
        assert np.array_equal(drawn[2], one.channel.rows)
        assert (drawn[3] is None) == (one.restorer is None)
        assert drawn[3] is None or np.array_equal(drawn[3], one.restorer.rows)
    return stacks, chains


class TestStackEqualsOneChain:
    def test_full_chains_joint_information_and_errors(self):
        stacks, chains = stacks_and_chains("full")
        for stack in stacks:
            joints = assemble_joint(stack)
            info = dpi_audit(stack)
            errors = theorem_ordering_audit(stack)
            for j, i in enumerate(stack.index):
                t = reference_joint(chains[i])
                assert np.array_equal(joints[j], t)
                assert np.array_equal(assemble_joint(chains[i]).tensor, t)
                one = dpi_audit(chains[i])
                stacked = (info.i_theta_x[j], info.i_theta_y[j], info.i_theta_xhat[j])
                assert stacked == (one.i_theta_x, one.i_theta_y, one.i_theta_xhat)
                assert stacked == tuple(reference_information(reference_pair(t, s))
                                        for s in ("x", "y", "xhat"))
                assert info.monotone[j] == one.monotone
                stacked = (errors.pe_x[j], errors.pe_y[j], errors.pe_xhat[j])
                one = theorem_ordering_audit(chains[i])
                assert stacked == (one.pe_x, one.pe_y, one.pe_xhat)
                assert stacked == tuple(reference_error(reference_pair(t, s))
                                        for s in ("x", "y", "xhat"))

    def test_binary_chains_risk_and_separability(self):
        stacks, chains = stacks_and_chains("binary")
        for stack in stacks:
            joints = assemble_joint(stack)
            for stage in ("x", "y"):
                pair = stage_pair(joints, stage)
                rows = pair / pair.sum(axis=2, keepdims=True)
                risk, j1 = bayes_risk(stack.prior, rows), separability(stack.prior, rows)
                for j, i in enumerate(stack.index):
                    chain = chains[i]
                    one = marginal(assemble_joint(chain), ["theta", stage])
                    assert np.array_equal(one.tensor, reference_pair(reference_joint(chain), stage))
                    cond = ConditionalTable(chain.prior.support, one.supports[1],
                                            one.tensor / one.tensor.sum(axis=1, keepdims=True))
                    w = chain.prior.probs[:, None] * cond.rows
                    assert risk[j] == bayes_risk(chain.prior, cond) == w.min(axis=0).sum()
                    assert j1[j] == separability(chain.prior, cond) == np.abs(w[0] - w[1]).sum()

    def test_invertible_conditional_perception_chains(self):
        stacks, chains = stacks_and_chains("conditional")
        for stack in stacks:
            errors = theorem_ordering_audit(stack, mode="conditional_perception")
            for j, i in enumerate(stack.index):
                one = theorem_ordering_audit(chains[i], mode="conditional_perception")
                stacked = (errors.pe_x[j], errors.pe_y[j], errors.pe_xhat[j])
                assert stacked == (one.pe_x, one.pe_y, one.pe_xhat)
                t = reference_class_restored(chains[i])
                assert stacked == tuple(reference_error(reference_pair(t, s))
                                        for s in ("x", "y", "xhat"))


class TestStackChecks:
    @staticmethod
    def _stack():
        return random_chain(stream_rng(SEED, 100), 2, 3, 3, 3, index=(0, 1, 2))

    @pytest.mark.parametrize("entry,error", [(1.1, InvalidDistribution), (-0.5, NegativeWeight)])
    def test_one_bad_row_raises_as_a_table_does(self, entry, error):
        stack = self._stack()
        channel = stack.channel.copy()
        channel[1, 2, 0] = entry
        with pytest.raises(error) as stacked:
            ChainStack(stack.prior, stack.family, channel, stack.restorer)
        with pytest.raises(error) as alone_:
            ConditionalTable((0, 1, 2), (0, 1, 2), channel[1])
        assert type(stacked.value) is type(alone_.value)
        assert "at (1, 2" in str(stacked.value)  # chain 1, row 2

    def test_tables_without_a_chain_axis_are_rejected(self):
        chain = random_chain(stream_rng(SEED, 100), 2, 3, 3, None)
        with pytest.raises(SupportMismatch):
            ChainStack(chain.prior.probs, chain.family.rows, chain.channel.rows)

    def test_stacked_conditionals_are_checked(self):
        stack = self._stack()
        rows = np.tile(np.eye(3)[:2], (3, 1, 1))
        rows[2, 0, 0] = 0.5
        with pytest.raises(InvalidDistribution):
            bayes_risk(stack.prior, rows)

    def test_class_dependent_restorer_breaks_the_ordering(self):
        """A restorer that reads the class can beat the measurement; the
        class-agnostic audit raises and names the chain at fault."""
        stack = self._stack()
        restorer = np.repeat(stack.restorer[:, None], 2, axis=1)  # (chain, theta, y, xhat)
        restorer[1, :, :, :] = 0.0
        restorer[1, 0, :, 0] = restorer[1, 1, :, 1] = 1.0  # xhat names the class
        leaky = ChainStack(stack.prior, stack.family, stack.channel, restorer, (7, 8, 9))
        with pytest.raises(OrderingViolation, match="chain 8: error ordering broken"):
            theorem_ordering_audit(leaky)


class TestDraws:
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_a_chain_does_not_depend_on_the_chain_count(self, draw):
        sizes, stream, invertible = DRAWS[draw]
        few, many = (tables(_random_chains(SEED, n, stream, **sizes, invertible=invertible))
                     for n in (20, 57))
        assert sorted(few) == list(range(20))
        for i in range(20):
            for a, b in zip(few[i], many[i], strict=True):
                assert (a is None and b is None) or np.array_equal(a, b)

    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_one_generator_for_the_sizes_and_one_per_shape(self, monkeypatch, draw):
        keys = []

        def spy(*key):
            keys.append(key)
            return stream_rng(*key)

        monkeypatch.setattr(experiments, "stream_rng", spy)
        sizes, stream, invertible = DRAWS[draw]
        stacks = _random_chains(SEED, 1000, stream, **sizes, invertible=invertible)
        assert len(keys) == 1 + len(stacks)

    @pytest.mark.parametrize("exp_id", ["dpi_random_chains", "bayes_ordering_audit",
                                        "pe_separability_identity"])
    def test_every_generator_of_an_audit_run_is_its_own(self, monkeypatch, exp_id):
        """SeedSequence pads a key with zeros up to four words, so keys that
        differ only in trailing zeros would draw the same numbers."""
        keys = []

        def spy(*key):
            keys.append(key)
            return stream_rng(*key)

        monkeypatch.setattr(experiments, "stream_rng", spy)
        report, _, _ = experiments.run_experiment(exp_id, 0, {})
        assert report["all_passed"]
        padded = {k + (0,) * (4 - len(k)) for k in keys}
        assert len(padded) == len(keys)
        first = {stream_rng(*k).random() for k in keys}
        assert len(first) == len(keys)
