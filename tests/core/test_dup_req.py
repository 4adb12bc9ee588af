"""A duplicate REQ for a pending operation is answered, not re-executed.

A client that retries (or a network that duplicates) can deliver the
same sub-op request twice.  While the operation is executed but not yet
committed, the server answers the copy from the pending op's stored
response fields: the resent YES/NO must equal the first response field
by field, and the sub-op must neither run nor log a Result-Record a
second time.  Both Cx roles are covered, on a plain op and on one that
was conflicted (so every hint field is non-trivial).
"""

from __future__ import annotations

from repro import SimParams
from repro.fs.ops import FileOperation, OpType
from repro.net.message import MessageKind
from tests.conftest import build_cluster, run_to_completion

ROOT = 0
#: Late enough that the first copy has executed and answered, early
#: enough that the lazy commitment (10 s timer) has not run yet.
DUP_DELAY = 0.5


def _cross_op(proc, op_type, name, target):
    return FileOperation(op_type, proc.new_op_id(), parent=ROOT, name=name,
                         target=target)


def _cross_target(cluster, name):
    """An inode handle homed off ``name``'s dirent server."""
    placement = cluster.placement
    other = (placement.dirent_server(ROOT, name) + 1) % len(cluster.servers)
    return placement.allocate_handle(other)


def _run():
    cluster = build_cluster(protocol="cx", num_servers=4,
                            params=SimParams(commit_timeout=10.0))
    dup_ops = set()
    responses = {}  # (op_id, role) -> [(kind, payload)]
    dups = []

    def hook(msg):
        if msg.kind is MessageKind.REQ:
            op_id = msg.payload["subop"].op_id
            if op_id in dup_ops:
                dups.append(op_id)
                return ("dup", DUP_DELAY)
        elif msg.kind in (MessageKind.YES, MessageKind.NO) and "role" in msg.payload:
            p = msg.payload
            responses.setdefault((p["op_id"], p["role"]), []).append(
                (msg.kind, dict(p))
            )
        return None

    cluster.network.fault_hook = hook
    executed = {}
    for server in cluster.servers:
        shard = server.shard

        def counting(subop, now, _execute=shard.execute, _idx=server.index):
            key = (subop.op_id, _idx)
            executed[key] = executed.get(key, 0) + 1
            return _execute(subop, now)

        shard.execute = counting

    p1 = cluster.client_process(0, 0)
    p2 = cluster.client_process(1, 0)
    target = _cross_target(cluster, "x")
    # a: stays pending (lazily), holding x's entry and inode.
    a = _cross_op(p1, OpType.CREATE, "x", target)
    run_to_completion(cluster, cluster.run_ops(p1, [a]))
    # b: conflicts with a on both servers, so it executes after a's
    # immediate commitment with hint [a] and saw_commits (a,).
    b = _cross_op(p2, OpType.REMOVE, "x", target)
    # c: a plain, unconflicted cross-server create.
    c = _cross_op(p1, OpType.CREATE, "y", _cross_target(cluster, "y"))
    dup_ops.update({b.op_id, c.op_id})
    results = run_to_completion(cluster, cluster.run_ops(p2, [b]))
    results += run_to_completion(cluster, cluster.run_ops(p1, [c]))
    assert all(r.ok for r in results)
    cluster.sim.run(until=cluster.sim.now + 2 * DUP_DELAY)
    return cluster, a, (b, c), responses, executed, dups


def test_duplicate_req_resends_the_first_response():
    _cluster, a, ops, responses, _executed, dups = _run()
    assert sorted(dups) == sorted(op.op_id for op in ops for _ in range(2))
    for op in ops:
        for role in ("coord", "part"):
            sent = responses[(op.op_id, role)]
            assert len(sent) == 2, (op.op_id, role, sent)
            (kind1, first), (kind2, resent) = sent
            assert kind2 is kind1 is MessageKind.YES
            assert list(resent) == list(first)
            for field, value in first.items():
                assert resent[field] == value, (op.op_id, role, field)
    b, c = ops
    b_coord = responses[(b.op_id, "coord")][0][1]
    assert b_coord["conflicted"] is True
    assert b_coord["hint"] == a.op_id
    assert b_coord["saw_commits"] == (a.op_id,)
    c_coord = responses[(c.op_id, "coord")][0][1]
    assert c_coord["hint"] is None and c_coord["saw_commits"] == ()


def test_duplicate_req_is_not_executed_or_logged_again():
    cluster, _a, ops, _responses, executed, _dups = _run()
    for op in ops:
        servers = [i for (op_id, i) in executed if op_id == op.op_id]
        assert len(servers) == 2
        for idx in servers:
            assert executed[(op.op_id, idx)] == 1
            role = cluster.servers[idx].role
            # The duplicates were served from the pending table.
            assert op.op_id in role.pending
            records = cluster.servers[idx].wal.records_of(op.op_id)
            assert [r.rtype for r in records] == ["RESULT"]
