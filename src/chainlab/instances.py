"""Ready-made chains and families used across audits and experiments.

The "naive tree" is the two-class toy chain with disjoint source alphabets
whose measurement alphabets partially coincide: class 1 has prior 0.8 over
sources {0,1,2}, class 2 prior 0.2 over {3,4,5}, both conditionally uniform;
measurement 1.5 is reachable from source 1 (probability 0.4) and source 4
(probability 1), so the likelihood and the posterior disagree about it.
The remaining mass of source 1 is split evenly between its other two
measurements, which the original description leaves open.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .information import TableFamily
from .probability import (
    ChainStack,
    ConditionalTable,
    FiniteDistribution,
    PipelineChain,
    normalize,
)

NAIVE_TREE_Y_AMBIGUOUS = 1.5


def naive_tree_chain() -> PipelineChain:
    prior = FiniteDistribution(("class1", "class2"), np.array([0.8, 0.2]))
    x_support = (0, 1, 2, 3, 4, 5)
    third = 1.0 / 3.0
    family = ConditionalTable(
        ("class1", "class2"),
        x_support,
        np.array(
            [
                [third, third, third, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, third, third, third],
            ]
        ),
    )
    y_support = (0.5, 1.5, 2.5, 3.5, 4.5)
    channel = ConditionalTable.from_rows(
        x_support,
        y_support,
        {
            0: {0.5: 1.0},
            1: {0.5: 0.3, 1.5: 0.4, 2.5: 0.3},
            2: {2.5: 1.0},
            3: {3.5: 1.0},
            4: {1.5: 1.0},
            5: {4.5: 1.0},
        },
    )
    return PipelineChain(prior, family, channel)


def naive_tree_partition() -> dict:
    return {"class1": {0, 1, 2}, "class2": {3, 4, 5}}


def random_stochastic_rows(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n_out), size=n_in)


def random_chain(
    rng: np.random.Generator,
    n_theta: int = 2,
    n_x: int = 4,
    n_y: int = 4,
    n_xhat: Optional[int] = 4,
    invertible_channel: bool = False,
    index: Optional[Sequence[int]] = None,
) -> PipelineChain | ChainStack:
    """Random chains of one shape with Dirichlet(1) tables and numeric supports.

    All chains come from one ``standard_exponential`` block of ``rng``, one
    row of ``cells`` draws per chain. A row is cut into segments, in the
    order prior (theta cells), family (theta x), channel (x y) and restorer
    (y xhat), and each table row is its segment normalised to sum 1: a
    normalised row of iid Exp(1) draws is a Dirichlet(1) row (Devroye 1986,
    ch. XI). With invertible_channel the degradation is a random injective
    relabelling, the argsort of a channel segment of y draws (so no class
    information is lost at the measurement stage).

    ``index`` None draws one chain and returns a labelled ``PipelineChain``;
    a sequence of k chain numbers draws k chains and returns them as one
    ``ChainStack``. Chain j is the j-th run of ``cells`` draws in the stream,
    the same whatever k is.
    """
    if invertible_channel:
        n_y = max(n_y, n_x)
    k = 1 if index is None else len(index)
    widths = (n_theta, n_theta * n_x, n_y if invertible_channel else n_x * n_y,
              n_y * (n_xhat or 0))
    draws = rng.standard_exponential((k, sum(widths)))
    prior, family, channel, restorer = np.split(draws, np.cumsum(widths)[:-1], axis=1)
    prior = prior / prior.sum(axis=1, keepdims=True)
    family = _stochastic_rows(family, n_theta, n_x)
    if invertible_channel:
        relabel = np.argsort(channel, axis=1)[:, :n_x]
        channel = np.zeros((k, n_x, n_y))
        channel[np.arange(k)[:, None], np.arange(n_x), relabel] = 1.0
    else:
        channel = _stochastic_rows(channel, n_x, n_y)
    restorer = None if n_xhat is None else _stochastic_rows(restorer, n_y, n_xhat)
    if index is not None:
        return ChainStack(prior, family, channel, restorer, index)
    labels = [tuple(range(n)) for n in (n_theta, n_x, n_y, n_xhat or 0)]
    return PipelineChain(
        FiniteDistribution(labels[0], prior[0]),
        ConditionalTable(labels[0], labels[1], family[0]),
        ConditionalTable(labels[1], labels[2], channel[0]),
        None if restorer is None else ConditionalTable(labels[2], labels[3], restorer[0]),
    )


def _stochastic_rows(draws: np.ndarray, n_in: int, n_out: int) -> np.ndarray:
    """(k, n_in * n_out) Exp(1) draws as k row-stochastic (n_in, n_out) tables."""
    rows = draws.reshape(len(draws), n_in, n_out)
    return rows / rows.sum(axis=2, keepdims=True)


def sufficient_statistic_instance(rng: np.random.Generator) -> tuple:
    """Family plus a statistic that is sufficient by construction.

    Outcomes are generated by splitting each value of a base family through
    class-independent split weights, so collapsing them back (the statistic)
    preserves all class information. Returns (family, statistic_map, chain)
    where the chain's degradation applies the statistic deterministically.
    """
    # classes, statistic values, and the most outcomes one value splits into
    n_theta, n_t, max_split = 3, 3, 3
    base = random_stochastic_rows(rng, n_theta, n_t)  # p(t | theta)
    splits = [int(rng.integers(1, max_split + 1)) for _ in range(n_t)]
    x_rows = []
    statistic = {}
    x = 0
    for t, k in enumerate(splits):
        w = rng.dirichlet(np.ones(k))
        for j in range(k):
            x_rows.append(base[:, t] * w[j])
            statistic[x] = t
            x += 1
    rows = np.stack(x_rows, axis=1)  # (theta, x)
    family = TableFamily.from_rows(np.arange(n_theta, dtype=np.float64), rows)
    theta_support = tuple(float(v) for v in range(n_theta))
    prior = normalize(rng.dirichlet(np.ones(n_theta)), support=theta_support)
    fam_table = ConditionalTable(prior.support, family.support, rows)
    channel = ConditionalTable.deterministic(
        family.support, tuple(range(n_t)), statistic
    )
    chain = PipelineChain(prior, fam_table, channel, None)
    return family, statistic, chain


# Heads probabilities of two_toss_coin_family.
_COIN_GRID = (0.2, 0.35, 0.5, 0.65, 0.8)


def two_toss_coin_family() -> TableFamily:
    """Two independent tosses of a coin with unknown heads probability.

    Outcomes are 'tt', 'th', 'ht', 'hh'; the head count is the classic
    sufficient statistic.
    """
    grid = np.asarray(_COIN_GRID, dtype=np.float64)
    rows = np.stack(
        [
            np.array([(1 - p) ** 2, (1 - p) * p, p * (1 - p), p**2])
            for p in grid
        ]
    )
    return TableFamily.from_rows(grid, rows, support=("tt", "th", "ht", "hh"))


def head_count_statistic(outcome: str) -> int:
    return outcome.count("h")


def first_toss_estimator(outcome: str) -> float:
    return 1.0 if outcome[0] == "h" else 0.0
