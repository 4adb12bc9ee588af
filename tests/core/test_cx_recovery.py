"""Cx recovery protocol tests (paper §III.D / Table V)."""

import pytest

from repro.cluster import FailureInjector
from repro.cluster.builder import ROOT_HANDLE
from repro.core.records import RecordType
from repro.fs.ops import FileOperation, OpType
from repro.params import SimParams
from tests.conftest import build_cluster, run_to_completion


def cross_create(cluster, proc, parent, tag=""):
    for i in range(128):
        name = f"r{tag}{i}"
        h = cluster.placement.allocate_handle()
        if cluster.placement.is_cross_server(parent, name, h):
            return FileOperation(OpType.CREATE, proc.new_op_id(), parent=parent,
                                 name=name, target=h)
    raise AssertionError("no cross-server name")


def settle_cluster(cluster, extra=2.0):
    cluster.sim.run(until=cluster.sim.now + extra)


class TestRecoveryBasics:
    def _pending_crash_cluster(self):
        """Run ops with a huge commit timeout so they stay pending, then
        crash the coordinator of the last op."""
        cluster = build_cluster("cx", params=SimParams(commit_timeout=3600.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        ops = [cross_create(cluster, proc, d, tag=i) for i in range(6)]
        runner = cluster.run_ops(proc, ops)
        results = run_to_completion(cluster, runner)
        assert all(r.ok for r in results)
        victim = cluster.placement.dirent_server(d, ops[0].name)
        return cluster, d, ops, victim

    def test_recovery_recommits_pending_ops(self):
        cluster, d, ops, victim = self._pending_crash_cluster()
        server = cluster.servers[victim]
        pending_before = [
            op for op in ops if op.op_id in server.role.pending
            and server.role.pending[op.op_id].role in ("coord", "single")
        ]
        assert pending_before  # victim coordinates at least op[0]
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        report_proc = injector.recover_server(victim)
        report = run_to_completion(cluster, report_proc, limit=600)
        settle_cluster(cluster)
        for op in pending_before:
            assert server.role.completed[op.op_id]["committed"] is True
        assert report.duration > cluster.params.recovery_reboot_cost

    def test_namespace_consistent_after_recovery(self):
        from repro.analysis.consistency import check_namespace_invariants

        cluster, d, ops, victim = self._pending_crash_cluster()
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        report = run_to_completion(cluster, injector.recover_server(victim), limit=600)
        cluster.quiesce_protocol()
        assert check_namespace_invariants(cluster, known_dirs=[d]) == []

    def test_durable_effects_survive_crash(self):
        """Operations committed+flushed before the crash stay visible."""
        from repro.fs.objects import dirent_key

        cluster = build_cluster("cx", params=SimParams(commit_timeout=0.05))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        settle_cluster(cluster)  # lazy commit + flush done
        victim = cluster.placement.dirent_server(d, op.name)
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        run_to_completion(cluster, injector.recover_server(victim), limit=600)
        server = cluster.servers[victim]
        assert server.kv.get(dirent_key(d, op.name)) is not None

    def test_recovery_quiesces_and_resumes_service(self):
        cluster, d, ops, victim = self._pending_crash_cluster()
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        rec = injector.recover_server(victim)
        run_to_completion(cluster, rec, limit=600)
        # All peers are unquiesced again and serve new requests.
        assert all(not s.quiesced for s in cluster.servers)
        proc = cluster.client_process(1, 0)
        op = cross_create(cluster, proc, d, tag="post")
        runner = cluster.run_ops(proc, [op])
        (res,) = run_to_completion(cluster, runner)
        assert res.ok

    def test_logs_pruned_after_recovery(self):
        cluster, d, ops, victim = self._pending_crash_cluster()
        injector = FailureInjector(cluster)
        injector.crash_server(victim)
        run_to_completion(cluster, injector.recover_server(victim), limit=600)
        settle_cluster(cluster)
        assert cluster.servers[victim].wal.ops_in_log() == []


class TestParticipantCrash:
    def test_coordinator_retries_after_participant_reboot(self):
        """A commitment that hits a crashed participant reverts the ops
        to pending; the next trigger after recovery commits them."""
        cluster = build_cluster("cx", params=SimParams(commit_timeout=1.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        part_idx = cluster.placement.inode_server(op.target)
        injector = FailureInjector(cluster)
        injector.crash_server(part_idx)
        # Let the lazy trigger fire against the dead participant.
        cluster.sim.run(until=cluster.sim.now + 2.0)
        coord = cluster.servers[cluster.placement.dirent_server(d, op.name)]
        assert op.op_id in coord.role.pending  # still pending, not lost
        run_to_completion(cluster, injector.recover_server(part_idx), limit=600)
        cluster.sim.run(until=cluster.sim.now + 3.0)
        assert coord.role.completed[op.op_id]["committed"] is True

    def test_participant_redo_from_result_record(self):
        """The participant's deferred updates are volatile; recovery
        must redo them from the Result-Record."""
        from repro.fs.objects import inode_key

        cluster = build_cluster("cx", params=SimParams(commit_timeout=3600.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        runner = cluster.run_ops(proc, [op])
        run_to_completion(cluster, runner)
        part_idx = cluster.placement.inode_server(op.target)
        part = cluster.servers[part_idx]
        assert part.kv.get(inode_key(op.target)) is not None
        injector = FailureInjector(cluster)
        injector.crash_server(part_idx)
        assert part.kv.get(inode_key(op.target)) is None  # volatile, lost
        run_to_completion(cluster, injector.recover_server(part_idx), limit=600)
        cluster.quiesce_protocol()
        assert part.kv.get(inode_key(op.target)) is not None  # redone


class TestCrashDuringRecovery:
    def test_crash_mid_fan_out_then_recover_again(self):
        """A second crash while RECOVERY-BEGIN is still in flight fails
        every per-peer marker RPC.  The recovery pass unwinds instead of
        aborting the simulation on the later failures; recovering again
        releases every peer and leaves the namespace consistent."""
        from repro.analysis.consistency import check_namespace_invariants

        cluster = build_cluster("cx", params=SimParams(commit_timeout=3600.0))
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        ops = [cross_create(cluster, proc, d, tag=i) for i in range(4)]
        run_to_completion(cluster, cluster.run_ops(proc, ops))
        server = cluster.servers[0]
        injector = FailureInjector(cluster)
        injector.crash_server(0)
        first = injector.recover_server(0)
        while len(server._pending_rpcs) < 3:  # one marker per peer
            cluster.sim.step()
        injector.crash_server(0)
        run_to_completion(cluster, first)
        run_to_completion(cluster, injector.recover_server(0), limit=600)
        assert not any(s.quiesced for s in cluster.servers)
        cluster.quiesce_protocol()
        assert check_namespace_invariants(cluster, known_dirs=[d]) == []


class TestRecoveryTiming:
    def test_recovery_time_grows_sublinearly_with_log(self):
        """Table V's shape: 100x the valid records << 100x the time."""
        def recovery_time(n_ops):
            cluster = build_cluster(
                "cx", num_servers=4, params=SimParams(commit_timeout=3600.0)
            )
            d = cluster.preload_dir(ROOT_HANDLE, "dir")
            proc = cluster.client_process(0, 0)
            ops = [cross_create(cluster, proc, d, tag=i) for i in range(n_ops)]
            runner = cluster.run_ops(proc, ops)
            run_to_completion(cluster, runner, limit=3000)
            victim = cluster.placement.dirent_server(d, ops[0].name)
            injector = FailureInjector(cluster)
            injector.crash_server(victim)
            report = run_to_completion(
                cluster, injector.recover_server(victim), limit=3000
            )
            return report.duration

        t_small = recovery_time(4)
        t_large = recovery_time(40)
        assert t_large > t_small
        assert t_large < 10 * t_small  # strongly sublinear


class TestClientRetry:
    def test_client_retry_after_server_crash(self):
        """With the retry timeout armed, an operation whose request died
        with the server completes after recovery (deduplicated)."""
        cluster = build_cluster(
            "cx",
            params=SimParams(commit_timeout=0.5, client_retry_timeout=2.0),
        )
        d = cluster.preload_dir(ROOT_HANDLE, "dir")
        proc = cluster.client_process(0, 0)
        op = cross_create(cluster, proc, d)
        victim = cluster.placement.dirent_server(d, op.name)
        injector = FailureInjector(cluster)
        injector.crash_server(victim)  # crash BEFORE the request

        def scenario():
            res = yield from proc.perform(op)
            return res

        runner = cluster.sim.process(scenario())

        def recover_later():
            yield cluster.sim.timeout(0.5)
            yield injector.recover_server(victim)

        cluster.sim.process(recover_later())
        res = run_to_completion(cluster, runner, limit=600)
        assert res.ok
