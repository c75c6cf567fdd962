"""Equivalence and failure-mode tests of the execution choices that remain.

Two choices say where kernels run, and neither may change an answer:

* a task-parallel schedule (:func:`repro.parallel.scheduler.execute_schedule`,
  here through ``gsknn_batch``) runs on the ``serial`` or ``threads``
  backend;
* a sharded solve (:class:`repro.shard.ShardedAllKnn`) runs on the
  in-process ``local`` transport or on ``process`` workers over shared
  memory.

The contract is bit-identity: ``(distances, indices)`` must match
``np.testing.assert_array_equal`` — not merely ``allclose`` — across
every norm and kernel variant. The crash test pins the other half of
the contract: a dead worker process on a one-rung ladder surfaces as a
clean ``BackendError`` (a ``ReproError``), never a hang or a bare pool
exception.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import KnnProblem, gsknn_batch
from repro.core.gsknn import gsknn
from repro.core.table import TableHandle
from repro.errors import BackendError, ReproError, ValidationError
from repro.parallel.scheduler import (
    ScheduledTask,
    execute_schedule,
    lpt_schedule,
)
from repro.resilience import RetryPolicy, run_ladder
from repro.shard import ShardedAllKnn
from repro.shard.transport import (
    TRANSPORTS,
    LocalTransport,
    ProcessTransport,
    ShardWorld,
    _TransportRung,
    resolve_transport,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

#: shard panels of 64 rows, so both shards own part of the table
BLOCKS = {"block_m": 64, "block_n": 64}


@pytest.fixture(scope="module")
def cloud() -> np.ndarray:
    X = np.random.default_rng(777).random((400, 19))
    X.flags.writeable = False  # shared by every test of the module
    return X


def _problems(rng: np.random.Generator) -> list[KnnProblem]:
    return [
        KnnProblem(rng.integers(0, 400, 45), rng.permutation(400)[:250], 12)
        for _ in range(3)
    ]


def _sharded(X, transport: str, **kwargs) -> ShardedAllKnn:
    return ShardedAllKnn(X, 2, transport=transport, **BLOCKS, **kwargs)


def _assert_same(got, want) -> None:
    np.testing.assert_array_equal(got.distances, want.distances)
    np.testing.assert_array_equal(got.indices, want.indices)


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("norm", ["l2", "l1", "cosine"])
    @pytest.mark.parametrize("variant", [1, 6])
    def test_backends_bit_identical(self, cloud, backend, norm, variant):
        """Threads against the serial schedule, process shards against
        their in-process twin: same decomposition, same bits."""
        q = np.random.default_rng(42).integers(0, 400, 90)
        if backend == "threads":
            problems = _problems(np.random.default_rng(42))
            kwargs = dict(p=2, norm=norm, variant=variant)
            want = gsknn_batch(cloud, problems, backend="serial", **kwargs)
            got = gsknn_batch(cloud, problems, backend="threads", **kwargs)
            for a, b in zip(got, want):
                _assert_same(a, b)
            return
        with _sharded(cloud, "local", norm=norm, variant=variant) as twin:
            want = twin.solve(q, 12)
        with _sharded(cloud, "process", norm=norm, variant=variant) as router:
            got = router.solve(q, 12)
        _assert_same(got, want)

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("norm", ["l2", "l1", "cosine"])
    @pytest.mark.parametrize("variant", [1, 6])
    def test_matches_plain_gsknn(self, cloud, backend, norm, variant):
        if backend == "processes":
            q = np.random.default_rng(42).integers(0, 400, 90)
            want = gsknn(
                cloud, q, np.arange(400), 12, norm=norm, variant=variant,
                **BLOCKS,
            )
            with _sharded(cloud, "process", norm=norm, variant=variant) as r:
                got = [r.solve(q, 12)]
            want = [want]
        else:
            problems = _problems(np.random.default_rng(42))
            want = [
                gsknn(cloud, p.q_idx, p.r_idx, p.k, norm=norm, variant=variant)
                for p in problems
            ]
            got = gsknn_batch(
                cloud, problems, p=2, norm=norm, variant=variant,
                backend=backend,
            )
        for a, b in zip(got, want):
            np.testing.assert_allclose(a.distances, b.distances, atol=1e-12)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_auto_variant_matches_serial_backend(self, cloud, backend):
        """variant="auto" resolves on the whole problem: per batch
        problem in a schedule, on the global shape across shards."""
        rng = np.random.default_rng(7)
        if backend == "threads":
            problems = _problems(rng)
            want = gsknn_batch(cloud, problems, p=2, backend="serial")
            got = gsknn_batch(cloud, problems, p=2, backend="threads")
            for a, b in zip(got, want):
                _assert_same(a, b)
            return
        q = rng.integers(0, 400, 64)
        with _sharded(cloud, "process", variant="auto") as router:
            _assert_same(router.solve(q, 8), router.solve_reference(q, 8))

    def test_processes_with_precomputed_norms(self, cloud):
        from repro.core.norms import squared_norms

        table = TableHandle(cloud, squared_norms(cloud))
        q = np.arange(50)
        with ShardedAllKnn(table, 2, transport="process", **BLOCKS) as router:
            _assert_same(router.solve(q, 9), router.solve_reference(q, 9))


class TestCrashHandling:
    def test_dead_worker_raises_backend_error(self, cloud, kill_first_worker):
        """A killed worker on a one-rung, one-attempt ladder must
        surface as BackendError, not hang."""
        transport = ProcessTransport()
        transport.start(
            ShardWorld(
                table=TableHandle(cloud), local_ids=[np.arange(400)], epoch=0
            )
        )
        try:
            with pytest.raises(BackendError) as excinfo:
                run_ladder(
                    {0: ("idx", np.arange(60), 5)},
                    [_TransportRung(transport)],
                    retry=RetryPolicy(max_attempts=1),
                )
        finally:
            transport.close()
        assert kill_first_worker
        assert "worker process died" in str(excinfo.value)

    def test_backend_error_is_repro_error(self):
        assert issubclass(BackendError, ReproError)


class TestBackendResolution:
    def test_by_name(self):
        tasks = [ScheduledTask(i, float(i)) for i in range(5)]
        schedule = lpt_schedule(tasks, 3)
        runs = {
            name: execute_schedule(
                schedule, lambda t: t.task_id**2, backend=name
            )
            for name in ("serial", "threads")
        }
        assert runs["serial"] == runs["threads"]
        assert runs["serial"] == {i: i * i for i in range(5)}

    def test_instance_passthrough(self):
        transport = LocalTransport()
        assert resolve_transport(transport) is transport

    def test_unknown_backend(self):
        schedule = lpt_schedule([ScheduledTask(0, 1.0)], 1)
        for bad in ("mpi", "processes", 42):
            with pytest.raises(ValidationError):
                execute_schedule(schedule, lambda t: t, backend=bad)
        with pytest.raises(ValidationError):
            resolve_transport("mpi")

    def test_registry_names_stable(self):
        assert sorted(TRANSPORTS) == ["local", "process"]
