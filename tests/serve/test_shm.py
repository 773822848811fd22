"""SharedOperatorStore: publish/attach lifecycle, naming, teardown.

Single-process coverage of the shared-memory manifest the worker pool
builds on — cross-process behaviour (worker attach, factor seeding
after a kill) lives in ``test_pool.py``.
"""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.fsai.extended import setup_fsai
from repro.serve.shm import AttachedOperator, SharedOperatorStore


@pytest.fixture()
def store():
    s = SharedOperatorStore()
    yield s
    s.close()


class TestPublish:
    def test_publish_returns_spec_and_is_idempotent(self, store):
        a = poisson2d(6)
        spec = store.publish(a, method="fsai", config={})
        assert spec.fingerprint == a.fingerprint()
        assert spec.n_rows == a.n_rows
        assert spec.nnz == a.nnz
        again = store.publish(a, method="fsai", config={})
        assert again is spec  # exactly-once: same manifest entry
        assert len(store) == 1

    def test_segment_name_fits_posix_limit(self, store):
        a = poisson2d(6)
        spec = store.publish(a, method="fsai", config={})
        assert len(spec.segment) <= 31
        assert spec.segment == f"{store.prefix}-{a.fingerprint()[:12]}"

    def test_attached_view_is_zero_copy_and_exact(self, store):
        a = poisson2d(7)
        spec = store.publish(a, method="fsai", config={})
        att = AttachedOperator(spec)
        try:
            m = att.matrix
            assert m.fingerprint() == a.fingerprint()
            np.testing.assert_array_equal(m.data, a.data)
            np.testing.assert_array_equal(m.indices, a.indices)
            assert att.spec.method == "fsai"
        finally:
            att.close()

    def test_attached_entry_solves_like_the_original(self, store):
        a = poisson2d(6)
        spec = store.publish(a, method="fsai", config={})
        att = AttachedOperator(spec)
        try:
            setup = setup_fsai(att.matrix)
            assert setup.application is not None
        finally:
            att.close()


class TestFactors:
    """Teardown and stats (the store holds operators only: a pool's
    factors travel over its queues, see ``test_pool.py``)."""

    def test_close_unlinks_everything(self):
        store = SharedOperatorStore()
        specs = [
            store.publish(poisson2d(n), method="fsai", config={})
            for n in (5, 6)
        ]
        store.close()
        assert store.stats()["live_segments"] == 0
        for spec in specs:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=spec.segment)

    def test_stats_shape(self, store):
        store.publish(poisson2d(6), method="fsai", config={})
        assert store.stats() == {"published": 1, "live_segments": 1}
