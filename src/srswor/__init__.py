"""srswor: simple random sampling without replacement.

Samplers with optimal draw and memory cost, exact discrete distributions
driven by a seeded uniform source, and distributed split/merge of samples.
The chi-square verification harness lives in srswor.statcheck and
srswor.suite; it is not imported here, so sampling code does not load it.
"""

from .distributed import (
    MergeInput,
    MergeState,
    downsample,
    merge_all_with_state,
    split_sample_counts,
)
from .distributions import (
    bernoulli,
    beta,
    beta_binomial,
    binomial,
    hypergeometric,
)
from .rng import DrawStats, RandomSource, ScriptedSource, ScriptExhaustedError
from .samplers import (
    SampleOrder,
    SampleResult,
    SparseFisherYatesIterator,
    default_samplers,
    fisher_yates_sample,
    inorder_sample,
    membership_checking_sample,
    permutation_from_transpositions,
    preinit_fy_sample_with_undo,
    reservoir_sample,
    selection_sample,
    sparse_fisher_yates,
)

__version__ = "0.1.0"

__all__ = [
    "DrawStats",
    "MergeInput",
    "MergeState",
    "RandomSource",
    "SampleOrder",
    "SampleResult",
    "ScriptExhaustedError",
    "ScriptedSource",
    "SparseFisherYatesIterator",
    "bernoulli",
    "beta",
    "beta_binomial",
    "binomial",
    "default_samplers",
    "downsample",
    "fisher_yates_sample",
    "hypergeometric",
    "inorder_sample",
    "membership_checking_sample",
    "merge_all_with_state",
    "permutation_from_transpositions",
    "preinit_fy_sample_with_undo",
    "reservoir_sample",
    "selection_sample",
    "sparse_fisher_yates",
    "split_sample_counts",
]
