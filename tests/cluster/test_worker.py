"""Unit tests for the cluster worker: draining, refusal, status reporting."""

import json
import time

import pytest

from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    ClaimSet,
    claims_dir,
    default_worker_id,
    load_manifest,
    remaining_cells,
    workers_dir,
)
from repro.cluster.manifest import Manifest, ManifestCell
from repro.cluster.worker import manifest_scale
from repro.core.experiment import SweepSpec
from repro.store import ResultStore


SPEC = SweepSpec(
    programs=("dyfesm",), latencies=(1, 50), architectures=("ref", "dva"),
    scale=0.2,
)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


@pytest.fixture()
def prepared(store):
    return ClusterCoordinator(store).prepare(SPEC)


class TestDraining:
    def test_one_worker_drains_the_manifest(self, store, prepared):
        worker = ClusterWorker(store, worker_id="w1", lease_seconds=5.0)
        counters = worker.run_sweep(prepared.sweep_id)
        assert counters["completed"] == prepared.unfinished
        assert counters["claimed"] == prepared.unfinished
        assert counters["failed"] == 0
        manifest = load_manifest(store, prepared.sweep_id)
        assert remaining_cells(manifest, store) == []
        # Completed claims were released.
        assert list(claims_dir(store, prepared.sweep_id).glob("*.claim")) == []

    def test_worker_walks_cells_costliest_first(self, store, prepared):
        executed = []
        worker = ClusterWorker(store, worker_id="w1", lease_seconds=5.0)
        original = worker._execute

        def spy(cell):
            executed.append(cell.cost)
            return original(cell)

        worker._execute = spy
        worker.run_sweep(prepared.sweep_id)
        assert executed == sorted(executed, reverse=True)

    def test_worker_observes_cells_a_peer_finished(self, store, prepared):
        first = ClusterWorker(store, worker_id="w1", lease_seconds=5.0)
        first.run_sweep(prepared.sweep_id)
        second = ClusterWorker(store, worker_id="w2", lease_seconds=5.0)
        counters = second.run_sweep(prepared.sweep_id)
        assert counters["completed"] == 0
        assert counters["observed_done"] == prepared.unfinished

    def test_run_discovers_manifests_and_exits_with_once(self, store, prepared):
        worker = ClusterWorker(store, worker_id="w1", lease_seconds=5.0)
        counters = worker.run(once=True)
        assert counters["completed"] == prepared.unfinished

    def test_results_match_what_the_runner_would_produce(
        self, store, prepared, tmp_path
    ):
        from repro.core.experiment import Runner

        ClusterWorker(store, worker_id="w1", lease_seconds=5.0).run_sweep(
            prepared.sweep_id
        )
        distributed = ClusterCoordinator(store).assemble(prepared)
        serial = Runner(jobs=1, store=ResultStore(tmp_path / "other")).run(SPEC)
        assert distributed == serial

    def test_worker_merges_written_cells_into_the_index(self, store, prepared):
        ClusterWorker(store, worker_id="w1", lease_seconds=5.0).run_sweep(
            prepared.sweep_id
        )
        index_keys = set(store.read_index())
        assert {cell.key for cell in prepared.manifest.cells} <= index_keys


class TestStealing:
    def test_worker_steals_a_dead_peers_expired_claim(self, store, prepared):
        # A "crashed" holder: claims the costliest cell with a tiny lease and
        # never heartbeats — deterministic stand-in for a SIGKILLed worker.
        dead = ClaimSet(
            claims_dir(store, prepared.sweep_id), "dead-peer", lease_seconds=0.1
        )
        target = prepared.manifest.cells[0]
        assert dead.try_claim(target.key)
        time.sleep(0.15)
        worker = ClusterWorker(
            store, worker_id="w1", lease_seconds=5.0, poll_seconds=0.02
        )
        counters = worker.run_sweep(prepared.sweep_id)
        assert counters["stolen"] == 1
        assert counters["completed"] == prepared.unfinished
        assert target.key in store

    def test_worker_waits_out_a_live_claim_until_released(self, store, prepared):
        # A peer validly holds one cell; the worker must not steal it, and
        # with wait=False must return leaving exactly that cell unfinished.
        holder = ClaimSet(
            claims_dir(store, prepared.sweep_id), "live-peer", lease_seconds=60.0
        )
        target = prepared.manifest.cells[0]
        assert holder.try_claim(target.key)
        worker = ClusterWorker(store, worker_id="w1", lease_seconds=60.0)
        counters = worker.run_sweep(prepared.sweep_id, wait=False)
        assert counters["stolen"] == 0
        assert counters["completed"] == prepared.unfinished - 1
        assert target.key not in store


class TestRefusal:
    def test_key_mismatch_is_refused_and_reported(self, store, prepared):
        manifest = load_manifest(store, prepared.sweep_id)
        forged = Manifest(
            sweep_id=manifest.sweep_id,
            spec=manifest.spec,
            created_unix=manifest.created_unix,
            cells=tuple(
                ManifestCell(
                    key="0" * 64,  # not what any worker derives
                    program=cell.program,
                    latency=cell.latency,
                    architecture=cell.architecture,
                    scale=cell.scale,
                    cost=cell.cost,
                )
                for cell in manifest.cells[:1]
            ),
        )
        forged.write(store)
        worker = ClusterWorker(store, worker_id="w1", lease_seconds=5.0)
        counters = worker.run_sweep(prepared.sweep_id, wait=False)
        assert counters["failed"] == 1
        assert counters["completed"] == 0
        # The claim is abandoned, not released: it stays on disk to expire.
        assert len(list(claims_dir(store, prepared.sweep_id).glob("*.claim"))) == 1
        status = json.loads(
            (workers_dir(store, prepared.sweep_id) / "w1.json").read_text()
        )
        assert "mismatch" in status["errors"][0]["error"]

    def test_unknown_architecture_is_refused(self, store, prepared):
        manifest = load_manifest(store, prepared.sweep_id)
        forged = Manifest(
            sweep_id=manifest.sweep_id,
            spec=manifest.spec,
            created_unix=manifest.created_unix,
            cells=(
                ManifestCell(
                    key="1" * 64,
                    program="DYFESM",
                    latency=1,
                    architecture="no-such-arch",
                    scale=0.2,
                    cost=1,
                ),
            ),
        )
        forged.write(store)
        worker = ClusterWorker(store, worker_id="w1", lease_seconds=5.0)
        counters = worker.run_sweep(prepared.sweep_id, wait=False)
        assert counters["failed"] == 1


class TestStatus:
    def test_status_file_is_written_and_carries_counters(self, store, prepared):
        worker = ClusterWorker(store, worker_id="w1", lease_seconds=5.0)
        worker.run_sweep(prepared.sweep_id)
        path = workers_dir(store, prepared.sweep_id) / "w1.json"
        status = json.loads(path.read_text())
        assert status["worker"] == "w1"
        assert status["sweep"] == prepared.sweep_id
        assert status["counters"]["completed"] == prepared.unfinished
        assert status["lease_seconds"] == 5.0

    def test_default_worker_id_is_filesystem_safe(self):
        worker_id = default_worker_id()
        assert "/" not in worker_id
        assert worker_id.rsplit("-", 1)[-1].isdigit()

    def test_slash_in_worker_id_is_rejected(self, store):
        from repro.cluster import ClusterError

        with pytest.raises(ClusterError):
            ClusterWorker(store, worker_id="a/b")


class TestManifestScale:
    def test_scale_comes_from_the_cells(self):
        manifest = Manifest(
            sweep_id="sw-1", spec={}, created_unix=0.0,
            cells=(ManifestCell("k", "X", 1, "ref", 0.5, 1),),
        )
        assert manifest_scale(manifest) == 0.5

    def test_scale_falls_back_to_the_spec_then_one(self):
        drained = Manifest(
            sweep_id="sw-1", spec={"scale": 2.0}, created_unix=0.0, cells=()
        )
        assert manifest_scale(drained) == 2.0
        bare = Manifest(sweep_id="sw-1", spec={}, created_unix=0.0, cells=())
        assert manifest_scale(bare) == 1.0
