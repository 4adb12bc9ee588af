"""Cx recovery protocol (paper §III.D / §V).

"The recovery process for node starts when the failure detection
subsystem confirms a crash on any node.  After a crashed server
reboots, it informs all other collaborating servers to go into the
recovery state ... In the recovery process, the whole file system stops
responding new requests.  The main idea of our recovery protocol is to
resume all half-completed commitments of cross-server operations left
in the log file on a server before it crashed."

Per surviving record set of an operation, the rebooted server acts as:

===========  ==========================  =====================================
role         records found               action
===========  ==========================  =====================================
any          Complete                    prune (fully done)
coordinator  Commit/Abort, no Complete   reconcile the shard against the
                                         decision, re-register the op pending
                                         and park it: the commit manager's
                                         parked re-delivery re-sends the
                                         decision and completes it
coordinator  Result only                 redo the update from the record,
                                         re-register it pending, commit now
participant  Commit/Abort                reconcile the shard against the
                                         decision, then prune (terminal)
participant  Result only                 redo the update, re-register pending;
                                         the (alive) coordinator re-commits it
===========  ==========================  =====================================

The *reconcile* step is the orphan-scan: a crash inside the commitment
window can leave the decision durable in the log while the namespace
shard misses (or wrongly keeps) the operation's objects — exactly the
orphan inodes / dangling entries the consistency oracle flags.
Reconciliation re-links keys that should exist and reclaims keys that
should not, but never rewrites a key that exists with a *different*
value (shared parent-stub counters may legitimately have moved on).

The recovery markers travel on tolerant RPCs: bounded retries on a
virtual-time reply timeout, ConnectionError treated as "peer still
down, try again".  A peer that stays unreachable is skipped (recovery
must not wedge on a second crash).  Decided operations finish through
the same completion path as every commitment: their decisions are
re-delivered during recovery, and one whose peer is unreachable stays
parked for the trigger scan.

The role is determined from the Result-Record itself ("From the
Result-Record of an operation, the rebooted server can determine
whether it is the coordinator").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from repro.analysis.consistency import classify_namespace
from repro.core.active import conflict_keys
from repro.core.records import PendingOp, PendingState, RecordType, StaleEpoch
from repro.fs.objects import DirEntry, Inode
from repro.net.message import MessageKind
from repro.storage.wal import LogRecord, OpId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.role import CxRole


class CxRecovery:
    """Log-driven recovery for one rebooted Cx server."""

    def __init__(self, role: "CxRole") -> None:
        self.role = role
        self.recoveries = 0
        self.last_resumed_ops = 0
        # Lazily resolved meter handles (eager creation would change
        # metrics snapshots — see CommitManager).
        self._m_rpc_retries = None
        self._m_rpc_abandoned = None
        self._m_reclaimed = None
        self._m_relinked = None
        self._m_suspect = None

    # -- tolerant RPC -------------------------------------------------------

    def _rpc_tolerant(
        self, dst: str, kind: MessageKind, payload: dict
    ) -> Generator:
        """Request with bounded per-attempt timeout and bounded retries.

        Returns the reply message, or ``None`` once every attempt
        failed (dead-lettered, partition-dropped, or timed out) — the
        caller decides whether to skip the peer or park the work.
        """
        role = self.role
        sim = role.sim
        server = role.server
        metrics = server.metrics
        tracer = server.tracer
        epoch = role.epoch
        attempts = max(1, role.params.recovery_rpc_retries)
        per_try = role.params.recovery_rpc_timeout
        for attempt in range(attempts):
            if attempt:
                m = self._m_rpc_retries
                if m is None:
                    m = self._m_rpc_retries = metrics.counter(
                        "recovery.rpc_retries"
                    )
                m.inc()
                if tracer.enabled:
                    tracer.event(
                        "recovery.rpc_retry", server.node_id, cat="recovery",
                        kind=kind.value, peer=dst, attempt=attempt,
                    )
            try:
                ev = server.request(dst, kind, payload)
                winner, val = yield sim.any_of([ev, sim.timeout(per_try)])
            except ConnectionError:
                if role.epoch != epoch:
                    raise StaleEpoch
                continue  # dead-lettered: peer down right now; retry
            if role.epoch != epoch:
                raise StaleEpoch  # crashed again mid-recovery RPC
            if winner is ev:
                return val
        m = self._m_rpc_abandoned
        if m is None:
            m = self._m_rpc_abandoned = metrics.counter(
                "recovery.rpc_abandoned"
            )
        m.inc()
        if tracer.enabled:
            tracer.event(
                "recovery.rpc_abandoned", server.node_id, cat="recovery",
                kind=kind.value, peer=dst,
            )
        return None

    def _fan_out(self, peers, kind: MessageKind) -> Generator:
        """Deliver a recovery marker to every peer, each on its own
        tolerant retry loop, concurrently.  Unreachable peers are
        skipped — they are crashed themselves and will quiesce/resume
        through their own recovery."""
        sim = self.role.sim

        def one(peer):
            yield from self._rpc_tolerant(peer.node_id, kind, {})

        procs = [sim.process(one(p)) for p in peers]
        if procs:
            yield sim.all_of(procs)

    # -- the recovery pass --------------------------------------------------

    def run(self) -> Generator:
        try:
            yield from self._run()
        except StaleEpoch:
            # Crashed again mid-recovery.  Everything this pass rebuilt
            # died with the crash; the next reboot's recovery re-derives
            # it all from the (durable) log.
            return

    def _run(self) -> Generator:
        role = self.role
        server = role.server
        sim = role.sim
        epoch = role.epoch
        self.recoveries += 1

        # 1. Tell every collaborating server to enter the recovery
        #    state; the whole file system stops serving new requests.
        peers = [
            s for s in role.cluster.servers if s.index != server.index
        ]
        server.quiesce()
        yield from self._fan_out(peers, MessageKind.RECOVERY_BEGIN)

        # 2. Reboot overhead, then sequentially scan the on-disk log.
        yield sim.timeout(role.params.recovery_reboot_cost)
        yield sim.timeout(server.wal.scan_cost())
        if role.epoch != epoch:
            raise StaleEpoch

        # 3. Classify every operation left in the log.
        resumed: List[PendingOp] = []
        decided_ops: List[tuple] = []
        redo_events: List = []
        reconcile_events: List = []
        for op_id in list(server.wal.ops_in_log()):
            records = server.wal.records_of(op_id)
            types = {r.rtype for r in records if not r.invalid}
            result_rec = next(
                (
                    r
                    for r in records
                    if r.rtype == RecordType.RESULT.value and not r.invalid
                ),
                None,
            )
            if RecordType.COMPLETE.value in types:
                server.wal.prune_op(op_id)
                continue
            if result_rec is None:
                # Only invalidated/decision records: nothing to resume.
                server.wal.prune_op(op_id)
                continue
            subop = result_rec.payload["subop"]
            is_coord = subop.role in ("coord", "single")
            decided = (
                RecordType.COMMIT.value in types
                or RecordType.ABORT.value in types
            )
            if decided:
                committed = RecordType.COMMIT.value in types
                if not is_coord:
                    # Terminal for the participant — but the decided
                    # objects may still have been volatile at the crash:
                    # reconcile the shard before letting the records go.
                    ev = self._reconcile_decided(
                        op_id, result_rec.payload, committed
                    )
                    if ev is not None:
                        reconcile_events.append(ev)
                    server.wal.prune_op(op_id)
                else:
                    decided_ops.append((result_rec, committed))
                continue
            # Result only: redo and re-register as pending.
            pend, ev = self._redo(op_id, result_rec)
            if ev is not None:
                redo_events.append(ev)
            if is_coord:
                resumed.append(pend)

        self.last_resumed_ops = len(resumed) + len(decided_ops)

        # Redo writes go to the store conservatively (one transaction
        # per operation): the paper's recovery "submit[s] metadata
        # objects to BDB", which is what dominates large-footprint
        # recoveries (Table V).
        if redo_events:
            yield sim.all_of(redo_events)
        if reconcile_events:
            yield sim.all_of(reconcile_events)
        if role.epoch != epoch:
            raise StaleEpoch

        # 4. Finish half-completed commitments: reconcile our half
        #    against the logged decision, then hand the op to the commit
        #    manager exactly as a decided op whose COMMIT-REQ was lost —
        #    parked, and re-delivered (never re-voted) right here.  Only
        #    cross-server ops log a decision, so every one has a peer.
        #    A peer that stays unreachable keeps its ops parked for the
        #    post-recovery trigger scan.
        mgr = role.commit_mgr
        for result_rec, committed in decided_ops:
            ev = self._reconcile_decided(
                result_rec.op_id, result_rec.payload, committed
            )
            if ev is not None:
                yield ev
                if role.epoch != epoch:
                    raise StaleEpoch
            pend = self._register_pending(result_rec, PendingState.COMMITTING)
            # Re-emit the logged decision: the completion's write-back
            # must follow a decision in this incarnation's history.
            mgr._record_decision(pend, committed)
            mgr._park(pend)
        yield from mgr.redeliver_parked()
        if role.epoch != epoch:
            raise StaleEpoch

        # 5. Commit everything that was still pending, in bounded
        #    batches (a crash with a huge valid-record footprint must
        #    not turn into one unbounded commitment burst).  Each batch
        #    wait is bounded: a participant that is itself crashed or
        #    partitioned must not wedge our recovery — its ops stay
        #    pending and the post-recovery triggers retry them.
        chunk_size = max(1, role.params.recovery_commit_batch)
        chunk_bound = (
            role.params.recovery_rpc_timeout
            * max(1, role.params.recovery_rpc_retries)
            + role.params.recovery_rpc_timeout
        )
        for start in range(0, len(resumed), chunk_size):
            batch = mgr.launch_ops(resumed[start:start + chunk_size], "recovery")
            yield sim.any_of([batch, sim.timeout(chunk_bound)])
            if role.epoch != epoch:
                raise StaleEpoch

        # 6. Advisory orphan sweep over the local shard (metrics only).
        self._orphan_sweep()

        # 7. Write back the store, resume the file system.
        flush = server.kv.flush()
        if flush is not None:
            yield flush
            if role.epoch != epoch:
                raise StaleEpoch
        yield from self._fan_out(peers, MessageKind.RECOVERY_END)
        server.unquiesce()

    # -- helpers ----------------------------------------------------------------

    def _redo(self, op_id: OpId, result_rec: LogRecord) -> PendingOp:
        """Rebuild a pending op from its Result-Record (redo updates)."""
        role = self.role
        payload = result_rec.payload
        redo_event = None
        if payload["ok"]:
            # Conservative redo: write-through, one txn per operation.
            events = role.server.shard.apply_sync(payload["updates"])
            redo_event = events[0] if events else None
        pend = self._register_pending(result_rec, PendingState.EXECUTED)
        if pend.role in ("coord", "single"):
            role.commit_mgr.lazy[op_id] = pend
        else:
            # A coordinator's commitment may already be waiting on this
            # op's vote (it retried while we were down).
            role.participant.fulfill_vote_waiters(op_id)
        return pend, redo_event

    def _register_pending(self, result_rec: LogRecord, state: PendingState) -> PendingOp:
        """Re-register a logged op as pending, its objects active again."""
        role = self.role
        subop = result_rec.payload["subop"]
        keys = []
        if result_rec.payload["ok"] and subop.role in ("coord", "part"):
            keys = conflict_keys(subop)
            role.active.register(result_rec.op_id, keys)
        pend = PendingOp(result_rec, keys=keys, state=state)
        # The Result-Record was read back from the durable log.
        pend.logged = True
        role.pending[result_rec.op_id] = pend
        return pend

    def _reconcile_decided(
        self, op_id: OpId, payload: dict, committed: bool
    ) -> Optional[object]:
        """Reconcile the durable shard against a *logged* decision.

        The decision is the authority: a committed op's updates must be
        durable, an aborted op's undo state must be.  A crash between
        the decision record and the write-back leaves orphan inodes
        (expected key missing) or zombie objects (expected-deleted key
        present); this re-links the former and reclaims the latter.

        A key that exists with a *different* value is left alone: shared
        objects (parent-directory stubs and their counters) may have
        been legitimately modified by later operations, and clobbering
        them with this op's stale image would corrupt the namespace.

        Returns the disk event of the fix-up transaction, or None.
        """
        role = self.role
        server = role.server
        expected = payload["updates"] if committed else payload["undo"]
        kv = server.kv
        fixes = []
        reclaimed = 0
        relinked = 0
        for key, value in expected:
            current = kv.get(key)
            if value is None:
                if current is not None:
                    # Expected absent, still present: reclaim.
                    fixes.append((key, None))
                    reclaimed += 1
            elif current is None:
                # Expected present, missing: re-link from the record.
                fixes.append((key, value))
                relinked += 1
            # else: present with some value — possibly newer; hands off.
        if not fixes:
            return None
        metrics = server.metrics
        if reclaimed:
            m = self._m_reclaimed
            if m is None:
                m = self._m_reclaimed = metrics.counter(
                    "recovery.orphans_reclaimed"
                )
            m.inc(reclaimed)
        if relinked:
            m = self._m_relinked
            if m is None:
                m = self._m_relinked = metrics.counter("recovery.relinked")
            m.inc(relinked)
        if server.tracer.enabled:
            server.tracer.event(
                "recovery.reconcile", server.node_id, cat="recovery",
                op_id=op_id, committed=committed,
                reclaimed=reclaimed, relinked=relinked,
            )
        events = role.server.shard.apply_sync(fixes)
        return events[0] if events else None

    def _orphan_sweep(self) -> None:
        """Advisory post-recovery sweep of the *local* durable shard.

        Only pairs whose entry and inode are both homed here can be
        judged locally (a cross-server op's halves live on different
        servers by construction, and WAL-attributed reconciliation
        already handled everything this log knows about).  Anything
        suspicious surfaces as the ``recovery.orphans_suspect`` counter
        plus a tracer event — triage material for ``analyze``, never a
        destructive reclaim.
        """
        role = self.role
        server = role.server
        placement = role.cluster.placement
        in_flight = set()
        for pend in role.pending.values():
            target = pend.subop.args.get("target")
            if target is not None:
                in_flight.add(target)
        for op_id in server.wal.ops_in_log():
            for rec in server.wal.records_of(op_id):
                if rec.rtype == RecordType.RESULT.value and not rec.invalid:
                    target = rec.payload["subop"].args.get("target")
                    if target is not None:
                        in_flight.add(target)
        dirents = {}
        inodes = {}
        for key, val in server.kv.durable_items():
            if not isinstance(key, tuple):
                continue
            if key[0] == "d" and isinstance(val, DirEntry):
                # Only entries whose target inode is also homed here are
                # locally judgeable.
                if placement.inode_server(val.target) == server.index:
                    dirents[(val.parent, val.name)] = val
            elif key[0] == "i" and isinstance(val, Inode):
                inodes[key[1]] = val
        # Reuse the oracle's classification; the orphan-inode side is
        # not locally judgeable (the entry may be homed on a peer), so
        # every inode is passed as "known" to suppress it.
        violations = classify_namespace(
            dirents, inodes,
            known=set(inodes),
            transient_targets=in_flight,
        )
        suspects = sum(1 for v in violations if v.kind == "dangling-entry")
        if suspects:
            m = self._m_suspect
            if m is None:
                m = self._m_suspect = server.metrics.counter(
                    "recovery.orphans_suspect"
                )
            m.inc(suspects)
            if server.tracer.enabled:
                server.tracer.event(
                    "recovery.orphan_suspect", server.node_id,
                    cat="recovery", count=suspects,
                )
