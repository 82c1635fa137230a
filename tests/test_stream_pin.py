"""One digest over the outputs of every public draw path, for a few seeds.

The stream of draws for a given seed is a contract.  Each path below runs
on a fresh RandomSource per seed; its output, the vars(draw_stats) of any
SampleResult in it, and the source's vars(stats) and words_generated all
go into one sha256.  A refactor that keeps the stream keeps the digest.  A
change that alters the stream on purpose must say so, and replace PINNED
with the digest that the failure message reports.  That message also
lists a short digest for each path, so a run at the parent and one at the
change name the paths that moved.  Floats are hashed by
repr, so a libm that rounds exp, log or pow differently would change the
digest as well.  A second digest, over downsample's draws route alone,
was taken before that function gained its marks route and still holds.
"""

import hashlib

from srswor import (MergeInput, MergeState, RandomSource, SampleResult,
                    SparseFisherYatesIterator, bernoulli, beta, beta_binomial, binomial,
                    default_samplers, downsample, hypergeometric, merge_all_with_state,
                    permutation_from_transpositions, preinit_fy_sample_with_undo,
                    split_sample_counts, sparse_fisher_yates)

PINNED = "2187ebb996e28ffc51eb96dd982f002c874863519d086206a75c7df8803b94af"

SEEDS = (0, 1, 2, 3, 42, 2**63 + 7, -5)


def _each(draw, *cases):
    return lambda s: [draw(s, *case) for case in cases]


def _preinit(s):
    x = [3 * i for i in range(30)]
    res, swaps = preinit_fy_sample_with_undo(s, x, 9)
    return res, swaps, x


PATHS = {
    "uniform_int": lambda s: [s.next_uniform_int(m)
                              for m in (1, 6, 2**32 + 1, 2**64, 2**64 + 1, 3**80)],
    "uniform_real": lambda s: [s.next_uniform_real() for _ in range(5)],
    "bernoulli": _each(bernoulli, (0.0,), (0.3,), (0.5,), (1.0,)),
    # inversion, BTRD, the p > 1/2 reflection, n past 2^64 and huge n
    "binomial": _each(binomial, (0, 0.5), (10, 0.3), (1000, 0.4), (5000, 0.9),
                      (2**64 + 1, 0.5), (10**30, 1e-27)),
    # the quantile map, its expm1 branch, BB both ways round and at huge b,
    # the b = 1 power and the point mass
    "beta": _each(beta, (1.0, 4.0), (1.0, 2.0**60), (3.0, 2.0), (40.0, 5.0), (3.0, 2.0**60),
                  (6.0, 1.0), (2.0, 0.0)),
    "beta_binomial": _each(beta_binomial, (1, 1, 5), (1, 3, 80), (2, 2, 6), (1, 7, 10**20)),
    # inversion (mean 1, 4.5, 4.5 and 12), HRUA, both symmetries and huge n
    "hypergeometric": _each(hypergeometric, (2, 4, 2), (991, 1000, 500), (9, 20, 10),
                            (40, 1000, 300), (500, 2000, 300), (10**29, 10**30, 4000)),
    **{f"sampler-{name}": _each(sampler, (40, 7), (6, 6), (9, 0))
       for name, sampler in default_samplers().items()},
    "sparse-huge-n": lambda s: sparse_fisher_yates(s, 2**80, 5),
    "iterator": lambda s: list(SparseFisherYatesIterator(12, s)),
    "permutation": lambda s: permutation_from_transpositions(s, 12),
    "preinit-swaps": _preinit,
    "split": _each(split_sample_counts, ((3, 50, 7, 2**70), 40), ((4, 4), 3)),
    "merge": lambda s: merge_all_with_state(s, [MergeInput(*shard) for shard in (
        (range(1, 6), 20), ([], 9), (range(100, 104), 4), (range(200, 230), 10**6))]),
    # the case above keeps all or none of each shard; here the loser is thinned
    "merge-thinning": lambda s: merge_all_with_state(
        s, [MergeInput(range(1, 9), 16), MergeInput(range(20, 28), 16)]),
    # the marks route, then the draws route on both sides
    "downsample": _each(downsample, (range(50), 10), (range(50), 40), (range(100), 5),
                        (range(100), 95)),
}

# downsample's draws route (min(t, n - t) small: 5 of 100 here) takes the
# draws of a partial shuffle; this digest was taken before the marks route
# existed, and pins that route to the same stream.
DRAWS_ROUTE = {"downsample": _each(downsample, (range(100), 5), (range(100), 95))}
PINNED_DRAWS_ROUTE = "bf16c36484db1921a89a6fbd9230c953f27d212b6c1e4cbb98293bdaf8e55ca1"


def _plain(value):
    """value with each SampleResult and MergeState spelled out field by field."""
    if isinstance(value, SampleResult):
        return (value.indices, value.order.value, value.n, sorted(vars(value.draw_stats).items()))
    if isinstance(value, MergeState):
        return (value.thresholds, value.kappas)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _digest(paths) -> str:
    h = hashlib.sha256()
    for name, path in paths.items():
        for seed in SEEDS:
            s = RandomSource(seed)
            out = _plain(path(s))
            h.update(repr((name, seed, out, sorted(vars(s.stats).items()),
                           s.words_generated)).encode())
    return h.hexdigest()


def _per_path(digest: str) -> str:
    lines = [f"the stream changed: the sweep now hashes to {digest}; per path:"]
    lines += [f"  {name} {_digest({name: path})[:16]}" for name, path in PATHS.items()]
    return "\n".join(lines)


def test_stream_is_pinned():
    digest = _digest(PATHS)
    assert digest == PINNED, _per_path(digest)


def test_downsample_draws_route_is_pinned():
    digest = _digest(DRAWS_ROUTE)
    assert digest == PINNED_DRAWS_ROUTE, f"the draws route changed: it now hashes to {digest}"
