"""The workspace contract (:mod:`repro.core.workspace`), as properties.

Two halves, over d, k, m (up to a few row blocks), the norm, the variant,
one or two workers and the budget:

* **Monotone.** A budgeted plan fits its blocking to one row block's
  workspace at ``k = FIT_K`` and never to ``m``; an execute whose whole
  batch does not fit runs in groups of whole row blocks. So for
  ``k <= FIT_K``, if a budget runs, every larger budget runs, and its
  ids equal ``ref_knn``'s.
* **Exact peak.** The kernel takes its buffers only through the
  workspace, each at its described size: on a fresh arena the arena's
  peak equals the bytes the workspace predicts for the rows per group
  and the workers the execute chose (read back from the root span).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import workers
from repro.core.plan import GsknnPlan
from repro.core.ref_kernel import ref_knn
from repro.core.variants import Variant
from repro.core.workspace import FIT_K, Workspace
from repro.errors import MemoryBudgetError, ValidationError
from repro.obs.trace import Tracer, set_tracer

N, BLOCK = 1200, 128  # 600 references: every second row


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(31)
    return {d: rng.random((N, d)) for d in (2, 7, 16, 24)}


def _predicted(plan: GsknnPlan, attrs: dict, k: int) -> int:
    """The bytes of the workspace the execute recorded on its root span."""
    var = Variant(attrs["variant"])
    screen = var is Variant.VAR1 and plan.norm.is_l2
    count = -(-plan.n // plan._panel_n(screen))
    ws = Workspace(
        plan, var, k, attrs["group_rows"], attrs["workers"],
        count if attrs["split"] == "panels" else 0, attrs["panels_per_tile"],
        streamed=not plan._panels.get(screen),
    )
    return ws.nbytes


def _run(X, r, q, k, norm, variant, budget):
    """Execute on a fresh plan; the result, or None when the budget
    refuses it. Checks the arena's peak against the workspace."""
    tracer = Tracer(enabled=True)
    old = set_tracer(tracer)
    try:
        plan = GsknnPlan(
            X, r, norm=norm, variant=variant, block_m=BLOCK, block_n=BLOCK,
            memory_budget=budget,
        )
        got = plan.execute(q, k)
    except MemoryBudgetError:
        return None
    finally:
        set_tracer(old)
    (root,) = tracer.find("plan.execute")
    assert plan.arena_pool.peak_nbytes == _predicted(plan, root.attrs, k)
    if budget is not None:
        assert plan.memory_budget.peak_bytes <= plan.memory_budget.limit_bytes
        plan.release()
    return got


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 7, 16, 24]),
    k=st.integers(1, FIT_K),
    m=st.integers(1, 3 * BLOCK),
    norm=st.sampled_from(["l2", "l1", "cosine"]),
    variant=st.sampled_from(["auto", 1, 5]),
    cores=st.sampled_from([1, 2]),
    start=st.integers(16, 512),
    step=st.sampled_from([1.1, 1.25, 1.6]),
    seed=st.integers(0, 2**16),
)
def test_larger_budgets_run_with_the_predicted_peak(
    tables, d, k, m, norm, variant, cores, start, step, seed
):
    X = tables[d]
    r = np.arange(0, N, 2)
    q = np.random.default_rng(seed).choice(N, m, replace=False)
    want = ref_knn(X, q, r, k, norm=norm)
    ladder = [None] + [int(start * step**i) << 10 for i in range(6)]
    with mock.patch.object(workers, "host_threads", lambda: (cores, 1)):
        ran = False
        for budget in ladder:
            out = _run(X, r, q, k, norm, variant, budget)
            if out is None:
                assert not ran, f"{budget} bytes failed where a smaller budget ran"
                continue
            ran = budget is not None
            np.testing.assert_array_equal(out.indices, want.indices)


def test_groups_are_whole_row_blocks_and_keep_the_bits(monkeypatch):
    """A budget that holds a few row blocks but not the whole batch runs
    it in groups, with the ungrouped call's ids and distance bits."""
    monkeypatch.setattr(workers, "host_threads", lambda: (2, 1))
    X = np.random.default_rng(5).random((N, 12))
    r, q = np.arange(0, N, 2), np.arange(N)
    for norm, variant in [("l2", 1), ("l2", 5), ("l1", 1), ("cosine", 5)]:
        tracer = Tracer(enabled=True)
        old = set_tracer(tracer)
        try:
            plan = GsknnPlan(
                X, r, norm=norm, variant=variant, memory_budget="200KiB"
            )
            got = plan.execute(q, 9)
        finally:
            set_tracer(old)
        (root,) = tracer.find("plan.execute")
        group = root.attrs["group_rows"]
        assert group < N and group % plan.block_m == 0
        want = GsknnPlan(
            X, r, norm=norm, variant=variant,
            block_m=plan.block_m, block_n=plan.block_n,
        ).execute(q, 9)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.distances, want.distances)


def test_a_buffer_outside_the_description_is_refused():
    from repro.core.arena import WorkspaceArena

    plan = GsknnPlan(np.random.default_rng(1).random((300, 4)), np.arange(300))
    ws = Workspace(plan, Variant.VAR1, 3, 10, streamed=False)
    buffers = ws.bind(WorkspaceArena())
    assert buffers.take("Q32").shape == (10, 6)
    assert buffers.take("Q32").dtype == np.float32
    with pytest.raises(ValidationError, match="not in this execute"):
        buffers.take("Q")
