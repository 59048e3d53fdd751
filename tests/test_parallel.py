"""Tests for repro.experiments.parallel."""

import multiprocessing
import os
import time

import pytest

from repro.experiments.fig8_same_energy import run_fig8
from repro.experiments.parallel import (
    MIN_ITEMS_FOR_POOL,
    default_workers,
    parallel_map,
)


def _square(i: int) -> int:
    return i * i


def _worker_pid(i: int) -> int:
    return os.getpid()


def _slow_pid(i: int) -> int:
    # Long enough that both workers take items from a chunk_size=1 sweep.
    time.sleep(0.05)
    return os.getpid()


def _reciprocal(i: int) -> float:
    return 1 / i


class TestParallelMap:
    def test_empty(self):
        assert parallel_map(_square, 0) == []

    def test_serial_path(self):
        assert parallel_map(_square, 5) == [0, 1, 4, 9, 16]

    def test_parallel_matches_serial(self):
        serial = parallel_map(_square, 40, n_jobs=1)
        parallel = parallel_map(_square, 40, n_jobs=2)
        assert parallel == serial

    def test_small_inputs_stay_serial(self):
        # Below the advisory threshold the result is the same either way.
        assert parallel_map(_square, 4, n_jobs=4) == [0, 1, 4, 9]

    def test_explicit_n_jobs_engages_pool_below_threshold(self):
        # Regression: an explicit n_jobs > 1 used to be silently demoted to
        # the serial path when n_items < MIN_ITEMS_FOR_POOL.  Worker pids
        # prove real subprocesses ran even for a tiny item count.
        n_items = MIN_ITEMS_FOR_POOL - 1
        pids = parallel_map(_worker_pid, n_items, n_jobs=2)
        assert len(pids) == n_items
        assert os.getpid() not in pids

    def test_default_n_jobs_stays_serial(self):
        # n_jobs=None is the dependency-free default: same process, no pool.
        pids = parallel_map(_worker_pid, MIN_ITEMS_FOR_POOL + 2)
        assert set(pids) == {os.getpid()}

    def test_chunking_preserves_order(self):
        out = parallel_map(_square, 30, n_jobs=3, chunk_size=4)
        assert out == [i * i for i in range(30)]

    def test_validation(self):
        with pytest.raises(ValueError):
            parallel_map(_square, -1)
        with pytest.raises(ValueError):
            parallel_map(_square, 5, n_jobs=0)

    def test_chunk_size_validation(self):
        # Regression: chunk_size=0 used to escape as an opaque
        # "range() arg 3 must not be zero" from the block splitter.
        with pytest.raises(ValueError, match="chunk_size must be >= 1, got 0"):
            parallel_map(_square, 5, n_jobs=2, chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size must be >= 1, got -3"):
            parallel_map(_square, 5, n_jobs=2, chunk_size=-3)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestParallelExperiments:
    def test_fig8_parallel_bitwise_identical(self):
        serial = run_fig8(n_trials=10, n_jobs=1)
        parallel = run_fig8(n_trials=10, n_jobs=2)
        assert serial.costs("ira") == parallel.costs("ira")
        assert serial.costs("aaml") == parallel.costs("aaml")
        assert [t.lc for t in serial.trials] == [t.lc for t in parallel.trials]


class TestPoolReuse:
    """Sweeps lease the shared pool: its workers outlive each call."""

    def test_consecutive_sweeps_run_on_the_same_workers(self):
        first = parallel_map(_slow_pid, 8, n_jobs=2, chunk_size=1)
        second = parallel_map(_slow_pid, 8, n_jobs=2, chunk_size=1)
        assert len(set(first)) == 2
        assert set(second) == set(first)
        assert os.getpid() not in first

    def test_race_with_the_same_worker_count_reuses_the_sweep_workers(self):
        from repro.engine import race_builders
        from repro.network.topology import random_graph

        pids = set(parallel_map(_slow_pid, 8, n_jobs=2, chunk_size=1))
        before = {p.pid for p in multiprocessing.active_children()}
        outcomes = race_builders(
            random_graph(12, 0.5, seed=3), ("mst", "bfs"), n_jobs=2
        )
        assert [o.status for o in outcomes] == ["ok", "ok"]
        # The sweep's workers are still alive and the race forked no other.
        after = {p.pid for p in multiprocessing.active_children()}
        assert pids <= after <= before

    def test_reused_pool_matches_serial(self):
        serial = parallel_map(_square, 40, n_jobs=1)
        assert parallel_map(_square, 40, n_jobs=2) == serial
        assert parallel_map(_square, 40, n_jobs=2, chunk_size=3) == serial

    def test_failing_sweep_kills_its_workers(self):
        pids = set(parallel_map(_slow_pid, 8, n_jobs=2, chunk_size=1))
        with pytest.raises(ZeroDivisionError):
            parallel_map(_reciprocal, 4, n_jobs=2)
        # The executor's own thread may still be reaping a killed worker.
        time.sleep(0.5)
        alive = {p.pid for p in multiprocessing.active_children()}
        assert not alive & pids
        assert parallel_map(_square, 4, n_jobs=2) == [0, 1, 4, 9]
