"""Semantic exception hierarchy.

Every contract violation raises a named error rather than a bare ValueError,
so callers (and tests) can distinguish modeling mistakes from numerics.
"""


class ChainlabError(Exception):
    """Base class for all package errors."""


class ContractViolation(ChainlabError):
    """Caller broke a documented precondition (mismatched reports, domains...)."""


# --- probability engine ---------------------------------------------------


class AllZeroWeights(ChainlabError):
    """normalize() received weights that are all zero."""


class NegativeWeight(ChainlabError):
    """A weight or probability is negative."""


class InvalidDistribution(ChainlabError):
    """Probabilities do not form a distribution (sum/negativity/duplicates)."""


class SupportMismatch(ChainlabError):
    """Consecutive pipeline stages disagree on an outcome alphabet."""


class UnknownAxis(ChainlabError):
    """A joint-distribution operation referenced an axis that does not exist."""


class ZeroEvidence(ChainlabError):
    """Conditioning on an outcome of probability zero."""


# --- information metrics --------------------------------------------------


class NotSufficient(ChainlabError):
    """Statistic fails the sufficiency check required by the operation."""


# --- channels ---------------------------------------------------------------


class SupportTooSmall(ChainlabError):
    """Kernel half-width truncates more mass than tolerated."""


# --- restorers / estimators -------------------------------------------------


class NonNumericSupport(ChainlabError):
    """Operation needs numeric outcome labels (e.g. conditional means)."""


# --- classification ---------------------------------------------------------


class NotBinary(ChainlabError):
    """Separability is defined here for exactly two classes."""


class PartitionIncomplete(ChainlabError):
    """Class partition does not cover the source support."""


class OrderingViolation(ChainlabError):
    """An exact error-ordering theorem failed; implementation bug."""


# --- domain shift -----------------------------------------------------------


class DimensionMismatch(ChainlabError):
    """Targets or weights disagree on dimensions."""


class DomainsCoincide(ChainlabError):
    """All domain inverses agree everywhere; nothing to average."""


class Diverged(ChainlabError):
    """A fit left non-finite parameters."""


# --- sparse recovery --------------------------------------------------------


class ZeroL1Norm(ChainlabError):
    """Rate estimate undefined: all samples have zero l1 mass."""


# --- experiment harness -----------------------------------------------------


class UnknownExperiment(ChainlabError):
    """Experiment id not in the catalog."""


class InvalidOverride(ChainlabError):
    """Config key unknown or value out of range for the experiment schema."""
