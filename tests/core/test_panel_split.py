"""One-row-block calls split their reference panels: same answer at any p.

A call with fewer row blocks than free cores (a short batch, a serve
window) deals contiguous runs of reference panels to the workers; each
runs its panels' GEMMs into its own tile and selects into its own
lists, and the lists merge once on ``(distance, id)``. Every panel GEMM
is the one a single worker runs, so distances keep their bits, and ties
break on the id, so ids do not depend on ``p`` either. Coordinates here
are small integers and some rows repeat, so exact ties are common.

``p`` is forced by patching the host probe
(``repro.core.workers.host_threads``): (1, 1) against (2, 1).
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import gsknn
from repro.core import GsknnPlan, workers
from repro.core.neighbors import KnnResult
from repro.core.table import ALL_ROWS
from repro.obs.trace import Tracer, set_tracer
from repro.serve import KnnQueryService

#: A tile is 128 candidates, and every problem below holds at least two
#: tiles' worth, so two workers may split its panels.
BLOCK_M, BLOCK_N = 16, 8
NORMS = ["l2", "cosine", 1]


def _at(monkeypatch, p: int, solve):
    monkeypatch.setattr(workers, "host_threads", lambda: (p, 1))
    return solve()


def _assert_same(a: KnnResult, b: KnnResult) -> None:
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(
        a.distances.view(np.int64), b.distances.view(np.int64)
    )


def _both(monkeypatch, solve):
    """``solve()`` at p = 1 and at p = 2, where its kernel calls split
    their panels (a call over a single panel has none to split)."""
    tracer = Tracer(enabled=True)
    one = _at(monkeypatch, 1, solve)
    old = set_tracer(tracer)
    try:
        two = _at(monkeypatch, 2, solve)
    finally:
        set_tracer(old)
    assert any(
        s.attrs.get("split") == "panels" and s.attrs["workers"] == 2
        for s in tracer.spans
    )
    return one, two


@st.composite
def problem(draw):
    """A table of small-integer rows, some repeated, and one row block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    n = draw(st.integers(256, 500))
    d = draw(st.integers(1, 6))
    X = rng.integers(0, 4, (n, d)).astype(np.float64)
    X[: n // 8] = X[n // 8 : 2 * (n // 8)]  # exact duplicate rows
    m = draw(st.integers(1, BLOCK_M))
    q = rng.choice(n, m, replace=False)
    r = rng.permutation(n)[: draw(st.integers(256, n))]
    k = draw(st.integers(1, min(24, r.size)))
    return X, q, r, k


def _settings(examples: int):
    # monkeypatch is reset by each example's own setattr
    return settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


SETTINGS = _settings(25)


@SETTINGS
@given(problem(), st.sampled_from(NORMS), st.sampled_from([1, 5]))
def test_one_shot(monkeypatch, prob, norm, variant):
    X, q, r, k = prob
    one, two = _both(monkeypatch, lambda: gsknn(
        X, q, r, k, norm=norm, variant=variant,
        block_m=BLOCK_M, block_n=BLOCK_N,
    ))
    _assert_same(two, one)


@SETTINGS
@given(problem(), st.sampled_from(NORMS), st.sampled_from([1, 5]))
def test_plan_cold_warm_and_seeded(monkeypatch, prob, norm, variant):
    """Cold, an auto warm repeat, and ``initial=`` from a plan over a
    prefix of the references that ends on a panel boundary (so its
    distances are the ones this plan computes for the same pairs)."""
    X, q, r, k = prob
    prefix = r[: 2 * BLOCK_N]
    k = min(k, prefix.size)

    def solve():
        seed = GsknnPlan(
            X, prefix, norm=norm, block_m=BLOCK_M, block_n=BLOCK_N
        ).execute(q, k, variant=variant)
        plan = GsknnPlan(X, r, norm=norm, block_m=BLOCK_M, block_n=BLOCK_N)
        cold = plan.execute(q, k, variant=variant)
        warm = plan.execute(q, k, variant=variant)
        seeded = plan.execute(q, k, variant=variant, initial=seed)
        return cold, warm, seeded

    for a, b in zip(*_both(monkeypatch, solve)):
        _assert_same(b, a)


@SETTINGS
@given(problem(), st.sampled_from(NORMS), st.sampled_from([1, 5]))
def test_execute_rows(monkeypatch, prob, norm, variant):
    X, q, r, k = prob
    rows = X[q] + 0.5  # literal rows, off the table: ties stay exact
    plan = GsknnPlan(X, r, norm=norm, block_m=BLOCK_M, block_n=BLOCK_N)
    one, two = _both(
        monkeypatch, lambda: plan.execute_rows(rows, k, variant=variant)
    )
    _assert_same(two, one)


@_settings(10)
@given(
    st.integers(0, 2**31), st.integers(2, 8), st.integers(1, BLOCK_M),
    st.integers(1, 24), st.sampled_from(NORMS),
)
def test_budget_streamed_panels(monkeypatch, seed, d, m, k, norm):
    """A budget that streams the panels of a 20000-row table but affords
    two panel workers, each gathering into its own buffer."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, (20000, d)).astype(np.float64)
    q = rng.choice(20000, m, replace=False)

    def solve():
        plan = GsknnPlan(
            X, ALL_ROWS, norm=norm, block_m=BLOCK_M, block_n=BLOCK_N,
            memory_budget="512KiB",
        )
        assert plan.streams_panels
        assert (plan.block_m, plan.block_n) == (BLOCK_M, BLOCK_N)
        got = plan.execute(q, k), plan.execute_rows(X[q] + 0.5, k)
        budget = plan.memory_budget
        assert budget.peak_bytes <= budget.limit_bytes
        plan.release()
        return got

    for a, b in zip(*_both(monkeypatch, solve)):
        _assert_same(b, a)


@_settings(5)
@given(st.integers(0, 2**31), st.integers(1, 24))
def test_serve_window(monkeypatch, seed, k):
    """A window of one 64-row request over four default-width screen
    panels: two tiles' worth of candidates at the default blocking."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, (16384, 5)).astype(np.float64)
    X[:2000] = X[2000:4000]
    q = rng.choice(16384, 64, replace=False)

    def solve():
        with KnnQueryService(X.copy()) as svc:  # it freezes its table
            return (
                svc.submit(q, k).result(timeout=60),
                svc.submit_rows(X[q] + 0.5, k).result(timeout=60),
            )

    for a, b in zip(*_both(monkeypatch, solve)):
        _assert_same(b, a)


class TestSplitDecision:
    """The root span records which loop was split, ``p`` and why."""

    @pytest.fixture
    def tracer(self):
        tracer = Tracer(enabled=True)
        old = set_tracer(tracer)
        try:
            yield tracer
        finally:
            set_tracer(old)

    @pytest.fixture
    def cloud(self, rng):
        return rng.random((600, 5))

    def _root(self, monkeypatch, tracer, cores, solve):
        monkeypatch.setattr(workers, "host_threads", lambda: (cores, 1))
        solve()
        root = [s for s in tracer.spans if "split" in s.attrs][-1]
        return root.attrs["split"], root.attrs["workers"], root.attrs["reason"]

    def test_short_batch_splits_panels_on_the_cores(
        self, monkeypatch, tracer, cloud
    ):
        # 2400 candidates, 4 tiles of 8 x 64; 5 screen panels 128 wide
        got = self._root(monkeypatch, tracer, 2, lambda: gsknn(
            cloud, np.arange(4), np.arange(600), 5, block_m=8, block_n=64
        ))
        assert got == ("panels", 2, "cores")

    def test_long_batch_splits_rows_on_the_cores(
        self, monkeypatch, tracer, cloud
    ):
        got = self._root(monkeypatch, tracer, 2, lambda: gsknn(
            cloud, np.arange(300), np.arange(600), 5, block_m=64
        ))
        assert got == ("rows", 2, "cores")

    def test_few_panels_bound_the_panel_split(
        self, monkeypatch, tracer, cloud
    ):
        # 3 screen panels 256 wide, 4 tiles of 4 x 128
        got = self._root(monkeypatch, tracer, 8, lambda: gsknn(
            cloud, np.arange(4), np.arange(600), 5, block_m=4, block_n=128
        ))
        assert got == ("panels", 3, "panels")

    def test_each_panel_worker_gets_a_tile(self, monkeypatch, tracer, cloud):
        # 5 panels, but 4 tiles' worth of candidates
        got = self._root(monkeypatch, tracer, 8, lambda: gsknn(
            cloud, np.arange(4), np.arange(600), 5, block_m=8, block_n=64
        ))
        assert got == ("panels", 4, "tiles")

    def test_a_call_under_two_tiles_stays_on_one_worker(
        self, monkeypatch, tracer, cloud
    ):
        # 2400 candidates at the default blocking: a fraction of a tile
        got = self._root(monkeypatch, tracer, 2, lambda: gsknn(
            cloud, np.arange(4), np.arange(600), 5, block_n=64
        ))
        assert got == ("rows", 1, "row_blocks")

    def test_row_blocks_bound_the_row_split(self, monkeypatch, tracer, cloud):
        # Var#6 never splits panels: its 3 row blocks bound p
        got = self._root(monkeypatch, tracer, 8, lambda: gsknn(
            cloud, np.arange(150), np.arange(600), 5, variant=6, block_m=64
        ))
        assert got == ("rows", 3, "row_blocks")

    def test_one_core_runs_one_worker(self, monkeypatch, tracer, cloud):
        got = self._root(monkeypatch, tracer, 1, lambda: gsknn(
            cloud, np.arange(4), np.arange(600), 5, block_m=8, block_n=64
        ))
        assert got == ("rows", 1, "cores")

    def test_budget_caps_the_workers(self, monkeypatch, tracer, rng):
        X = rng.random((3000, 8))

        def solve():
            plan = GsknnPlan(
                X, ALL_ROWS, block_m=64, block_n=64, memory_budget="200KiB"
            )
            plan.execute(np.arange(4), 5)

        got = self._root(monkeypatch, tracer, 8, solve)
        assert got[0] == "panels" and got[2] == "budget" and got[1] < 8

    def test_nested_calls_stay_serial(self, monkeypatch, tracer, cloud):
        def solve():
            with workers.serial_kernels():
                gsknn(
                    cloud, np.arange(4), np.arange(600), 5,
                    block_m=8, block_n=64,
                )

        got = self._root(monkeypatch, tracer, 2, solve)
        assert got == ("rows", 1, "nested")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_two_worker_kernel(monkeypatch, rng):
    """Helper threads live across calls; a forked child, which inherits
    none of their threads, starts its own and answers correctly."""
    X = rng.random((2000, 6))
    q = np.arange(4)
    monkeypatch.setattr(workers, "host_threads", lambda: (2, 1))
    blocks = dict(block_m=8, block_n=64)  # 15 tiles' worth: a split
    want = gsknn(X, q, np.arange(2000), 7, **blocks)  # helpers now live
    assert workers._helper_pool
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only on the parent's exact answer
        code = 1
        try:
            got = gsknn(X, q, np.arange(2000), 7, **blocks)
            code = int(not (
                np.array_equal(got.indices, want.indices)
                and np.array_equal(got.distances, want.distances)
            ))
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on its kernel call")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
