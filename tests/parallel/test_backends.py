"""Cross-backend equivalence and failure-mode tests.

The backend contract is bit-identity: serial, threads, and processes all
consume the same ``contiguous_chunks`` decomposition with the variant
resolved once on the full problem, so ``(distances, indices)`` must match
``np.testing.assert_array_equal`` — not merely ``allclose`` — across every
norm and kernel variant. The crash test pins the other half of the
contract: a dead worker process surfaces as a clean ``BackendError``
(a ``ReproError``), never a hang or a bare pool exception.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gsknn import gsknn
from repro.errors import BackendError, ReproError, ValidationError
from repro.parallel import gsknn_data_parallel
from repro.parallel.backends import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture(scope="module")
def cloud() -> np.ndarray:
    return np.random.default_rng(777).random((400, 19))


class TestBitIdentity:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    @pytest.mark.parametrize("norm", ["l2", "l1", "cosine"])
    @pytest.mark.parametrize("variant", [1, 6])
    def test_backends_bit_identical(self, cloud, backend, norm, variant):
        """Every backend executes the same chunk list → bit-equal results.

        (Bit-identity is asserted *across backends*, which share one
        chunk decomposition — not against the unchunked kernel, whose
        BLAS calls see a different matrix shape and may round the last
        ulp differently.)
        """
        rng = np.random.default_rng(42)
        q = rng.integers(0, 400, 90)
        r = rng.permutation(400)[:250]
        k = 12
        want = gsknn_data_parallel(
            cloud, q, r, k, p=3, norm=norm, variant=variant, backend="serial"
        )
        got = gsknn_data_parallel(
            cloud, q, r, k, p=3, norm=norm, variant=variant, backend=backend
        )
        np.testing.assert_array_equal(want.distances, got.distances)
        np.testing.assert_array_equal(want.indices, got.indices)

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("norm", ["l2", "l1", "cosine"])
    @pytest.mark.parametrize("variant", [1, 6])
    def test_matches_plain_gsknn(self, cloud, backend, norm, variant):
        rng = np.random.default_rng(42)
        q = rng.integers(0, 400, 90)
        r = rng.permutation(400)[:250]
        k = 12
        want = gsknn(cloud, q, r, k, norm=norm, variant=variant)
        got = gsknn_data_parallel(
            cloud, q, r, k, p=3, norm=norm, variant=variant, backend=backend
        )
        np.testing.assert_allclose(want.distances, got.distances, atol=1e-12)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_auto_variant_matches_serial_backend(self, cloud, backend):
        """variant="auto" must resolve on the full problem, not per chunk."""
        rng = np.random.default_rng(7)
        q = rng.integers(0, 400, 64)
        r = rng.permutation(400)[:300]
        want = gsknn_data_parallel(
            cloud, q, r, 8, p=3, variant="auto", backend="serial"
        )
        got = gsknn_data_parallel(
            cloud, q, r, 8, p=3, variant="auto", backend=backend
        )
        np.testing.assert_array_equal(want.distances, got.distances)
        np.testing.assert_array_equal(want.indices, got.indices)

    def test_processes_with_precomputed_norms(self, cloud):
        from repro.core.norms import squared_norms

        q = np.arange(50)
        r = np.arange(400)
        X2 = squared_norms(cloud)
        want = gsknn_data_parallel(
            cloud, q, r, 9, p=2, backend="serial", X2=X2
        )
        got = gsknn_data_parallel(
            cloud, q, r, 9, p=2, backend="processes", X2=X2
        )
        np.testing.assert_array_equal(want.distances, got.distances)
        np.testing.assert_array_equal(want.indices, got.indices)


class TestCrashHandling:
    def test_dead_worker_raises_backend_error(
        self, cloud, monkeypatch, kill_first_worker
    ):
        """A killed worker must surface as BackendError, not hang.

        An ambient $REPRO_FAULT_PLAN (the CI fault-matrix job) would
        route this solve through the resilient executor, which *recovers*
        from the crash — this test pins the plain backend's failure
        semantics, so the plan is stripped.
        """
        monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
        with pytest.raises(BackendError) as excinfo:
            gsknn_data_parallel(
                cloud, np.arange(60), np.arange(400), 5,
                p=2, backend="processes",
            )
        assert kill_first_worker
        assert "worker process died" in str(excinfo.value)

    def test_backend_error_is_repro_error(self):
        assert issubclass(BackendError, ReproError)


class TestBackendResolution:
    def test_by_name(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("threads", 3), ThreadBackend)
        assert isinstance(resolve_backend("processes", 2), ProcessBackend)
        assert resolve_backend("threads", 3).p == 3

    def test_instance_passthrough(self):
        engine = ThreadBackend(5)
        assert resolve_backend(engine) is engine

    def test_unknown_backend(self):
        with pytest.raises(ValidationError):
            resolve_backend("mpi")
        with pytest.raises(ValidationError):
            resolve_backend(42)  # type: ignore[arg-type]

    def test_registry_names_stable(self):
        assert sorted(BACKENDS) == ["processes", "serial", "threads"]
