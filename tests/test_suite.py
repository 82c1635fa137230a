"""The verify table as tier-1 runs it: every quick row once at seed 1, its text
pinned, and every tagged sampling route reached by some row."""

import hashlib
import math
import pathlib
import sys

import pytest

from srswor import distributed, distributions, rng, samplers, statcheck, suite

QUICK_ROWS = [(name, scale, check) for name, scale, check in suite._checks() if scale[0]]

# the rows whose records a law test of test_rng, test_distributions,
# test_distributed or test_samplers asserts under its own name
NAMED_ROWS = {
    "uniform-int-equidist-m6", "uniform-int-thirds-m3x2^64", "binomial-pmf-n10-p0.3",
    "binomial-btrd-n400-p0.4", "beta-binomial-uniform-1-1-5", "beta-binomial-pmf-2-2-6",
    "beta-binomial-pmf-1-3-5", "hypergeometric-pmf-2-4-2", "beta-quantile-ks-a1-b4",
    "beta-ks-a3-b2", "beta-ks-a1-b2^60", "beta-ks-a1-b1e17", "beta-ks-a3-b2^60",
    "beta-ks-a3-b1e17", "beta-ks-a2-b1", "beta-ks-a6-b1", "beta-ks-a5-b40", "beta-ks-a40-b5",
    "first-position-inorder-5-2", "split-counts-2-2-k2", "split-counts-3-4-5-k4",
    "merge-item-inclusion-4-4", "merge-inclusion-drop-side-8-8", "merge-symmetric-3-3",
    "merge-beside-empty-1e5-1e17", "downsample-items-5-2", "reservoir-max-position-60-3"}

QUICK_SEED1_SHA256 = "4a1fafb4cd58a0edd2e557cb3df930829f30f6a3b8ccca0105babcf786c07410"


@pytest.mark.parametrize("name", [name for name, _, _ in QUICK_ROWS if name not in NAMED_ROWS])
def test_row_passes(quick_law, name):
    quick_law(name)


@pytest.mark.parametrize("result, alpha, p, verdict", [
    ((2.0, 0.01), 0.01, 0.01, "PASS"),
    ((2.0, math.nextafter(0.01, 0.0)), 0.01, math.nextafter(0.01, 0.0), "FAIL"),
    (suite._exact(0), 1.0, 1.0, "PASS"),
    # the chi-square passes, the side condition fails: p 0, not the test's own
    (suite._given(statcheck.chi_square_gof([50, 50], [0.5, 0.5]), False), 0.001, 0.0, "FAIL"),
], ids=["p-at-alpha", "p-below-alpha", "exact-at-alpha-1", "side-condition-fails"])
def test_run_row_passes_when_p_reaches_alpha(result, alpha, p, verdict):
    records = suite.run_row("stub", lambda source, size, seed_of: result, 1, 0, alpha)
    assert suite.format_report(records).endswith(f"p={p:<12.6g} {verdict}\n")


def test_quick_seed1_text_is_pinned(quick_seed1):
    # a change that moves the stream on purpose updates this digest and says so
    text = suite.format_report([r for name, _, _ in QUICK_ROWS for r in quick_seed1(name)])
    assert hashlib.sha256(text.encode()).hexdigest() == QUICK_SEED1_SHA256, text


def _routes() -> dict:
    """(path, line) -> label of each line of the sampling modules that ends
    in a `# route: label` comment, the first line of a sampling route."""
    return {(module.__file__, lineno): text.split("# route:")[1].strip()
            for module in (rng, distributions, distributed, samplers)
            for lineno, text in enumerate(pathlib.Path(module.__file__).read_text().splitlines(), 1)
            if "# route:" in text}


def test_every_route_is_reached(monkeypatch):
    # every row at a hundredth of its quick scale (a thousandth of the full
    # one for a full-only row): the draws reach the same routes, and the
    # verdicts are not read
    routes = _routes()
    assert len(routes) >= 30
    reached = set()
    pending = {}  # code object -> its routes not yet reached

    def on_line(frame, event, arg):
        key = frame.f_code.co_filename, frame.f_lineno
        if key in routes:
            reached.add(key)
            todo = pending[frame.f_code]
            todo.discard(key)
            if not todo:
                frame.f_trace_lines = False
        return on_line

    def on_call(frame, event, arg):
        # line events only in functions that hold a route not yet reached
        code = frame.f_code
        todo = pending.get(code)
        if todo is None:
            todo = pending[code] = {(code.co_filename, line)
                                    for *_, line in code.co_lines()} & routes.keys()
        todo -= reached
        return on_line if todo else None

    def untraced(walk):
        # the oracle walks a law's whole pmf, a million steps at n = 10^9;
        # it draws nothing, so it runs with the tracer off
        def call(*args):
            sys.settrace(None)
            try:
                return walk(*args)
            finally:
                sys.settrace(on_call)
        return call

    monkeypatch.setattr(statcheck, "_walk", untraced(statcheck._walk))
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        for name, (quick, full), check in suite._checks():
            suite.run_row(name, check, max(20, quick // 100 or full // 1000), 0, 0.001)
    finally:
        sys.settrace(previous)
    missed = [f"{pathlib.Path(path).name}:{line} {label}"
              for (path, line), label in routes.items() if (path, line) not in reached]
    assert not missed, "routes that no verify row reaches:\n" + "\n".join(missed)
