"""Cx log records and pending-operation bookkeeping (paper §III.A).

Three record families, each tagged with the operation id that owns it:

* **Result-Record** — "the result of corresponding sub-operation at
  each server".  Ours additionally carries the sub-op, the computed
  updates and their undo so a rebooted server can redo/rollback from
  the log alone.
* **Commit-Record / Abort-Record** — the commitment decision.  For the
  participant this is terminal (its records become prunable).
* **Complete-Record** — coordinator only; the whole operation is done
  and all its records are prunable.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

from repro.fs.namespace import ExecResult
from repro.fs.ops import SubOp
from repro.net.message import Message, MessageKind
from repro.storage.wal import LogRecord, OpId


class RecordType(str, enum.Enum):
    RESULT = "RESULT"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    COMPLETE = "COMPLETE"


class StaleEpoch(Exception):
    """The server crashed underneath a long-lived protocol generator.

    Commitment batches, parked-decision re-deliveries, and the recovery
    pass all run as free simulator processes — a crash interrupts the
    server's message-handler slots but cannot reach into these.  Worse,
    a WAL flush that was in flight at the crash still fires its
    completion handles when the disk IO lands, so such a generator can
    *wake up* after the crash and act on records the crash already tore
    out of the log (emit a decision, message a peer) — a zombie writing
    protocol history for a dead server.  Every such generator snapshots
    ``role.epoch`` when it starts and raises this after any yield that
    observed a newer epoch; owners unwind without side effects.
    """


class PendingState(str, enum.Enum):
    #: Executed and logged; commitment not yet launched.
    EXECUTED = "executed"
    #: A commitment (lazy or immediate) is in flight.
    COMMITTING = "committing"
    #: Commitment finished; kept only in the completed side-table.
    DONE = "done"


class ResultPayload:
    """The payload of a Result-Record: a sub-op's outcome, updates and
    undo, plus what recovery needs to resume it (the sub-op and the
    peer server).

    It is also the pending op's view of its result (``PendingOp.result``),
    so an executed-but-uncommitted op holds one object for both.  It is
    slotted and shares the :class:`ExecResult`'s update and undo lists
    rather than copying them (nothing mutates those after execution):
    under lazy commitment every byte here is held once per pending
    sub-op until its batch commits.  Recovery reads it with mapping keys
    (``payload["subop"]``, ``payload["updates"]``, ...).
    """

    __slots__ = ("ok", "errno", "subop", "updates", "undo", "other_server")

    def __init__(
        self, subop: SubOp, res: ExecResult, other_server: Optional[int]
    ) -> None:
        self.ok = res.ok
        self.errno = res.errno
        self.subop = subop
        self.updates = res.updates
        self.undo = res.undo
        self.other_server = other_server

    def __getitem__(self, key: str) -> Any:
        if key not in ResultPayload.__slots__:
            raise KeyError(key)
        return getattr(self, key)


def make_result_record(
    op_id: OpId,
    subop: SubOp,
    res: ExecResult,
    other_server: Optional[int],
    record_size: int,
) -> LogRecord:
    """Build the Result-Record carrying redo/undo info for recovery."""
    return LogRecord(
        op_id,
        RecordType.RESULT.value,
        payload=ResultPayload(subop, res, other_server),  # type: ignore[arg-type]
        size=record_size * max(1, len(res.updates)),
    )


class PendingOp:
    """One executed-but-uncommitted operation on one server.

    ``__slots__`` class (not a dataclass): one is built per executed
    sub-op and lives until its batch commits, and its attributes sit on
    the protocol's hottest paths.  The response sent to the client is
    not kept; :meth:`response` rebuilds it for a duplicate REQ.
    """

    __slots__ = (
        "op_id", "subop", "role", "other_server", "result", "record",
        "keys", "state", "hint", "req_msg", "all_no_dst",
        "conflicted", "hint_covers_other", "saw_commits",
        "lcom_sent", "immediate_requested",
        "vote_errno", "enqueued_at", "commit_span", "exec_span_id",
        "logged", "decided", "resolicit_at", "resolicit_backoff",
    )

    def __init__(
        self,
        record: LogRecord,
        keys: Optional[List[Any]] = None,
        state: PendingState = PendingState.EXECUTED,
        hint: Optional[OpId] = None,
        req_msg: Optional[Message] = None,
    ) -> None:
        #: The op's Result-Record; its payload is the op's result.
        self.record = record
        result: ResultPayload = record.payload  # type: ignore[assignment]
        self.result = result
        self.op_id = record.op_id
        self.subop = result.subop
        #: "coord" (we own the dirent / drive commitment), "part", or
        #: "single" (single-server operation: local commitment only).
        self.role = result.subop.role
        #: The peer server index (participant for coord-role,
        #: coordinator for part-role, None for single).
        self.other_server = result.other_server
        #: Conflict keys registered in the active-object table.
        self.keys = [] if keys is None else keys
        self.state = state
        #: Hint attached to the execution response ([null] or [op_id']).
        self.hint = hint
        #: The original client REQ, kept (by the executing role) only
        #: where participant-side invalidation may re-queue it.
        self.req_msg = req_msg
        #: Node id of a client waiting for ALL-NO after an L-COM.
        self.all_no_dst = None
        #: The response fields not derivable from the op itself, set
        #: when the YES/NO is sent (``saw_commits`` is None until then).
        #: ``saw_commits`` reflects the active table *at send time*, so
        #: it is stored rather than recomputed for a resend.
        self.conflicted = False
        self.hint_covers_other = False
        self.saw_commits: Optional[Tuple[OpId, ...]] = None
        #: Participant-role only: an L-COM for this op was already sent
        #: to the coordinator (avoid spamming on repeated conflicts).
        self.lcom_sent = False
        #: An immediate commitment was requested before this op executed
        #: here (pre-request); honored as soon as it is enqueued.
        self.immediate_requested = False
        #: Coordinator-role only: the participant's errno from its vote.
        self.vote_errno: Optional[str] = None
        #: Virtual time this op entered the lazy queue (feeds the
        #: commitment-latency histogram).
        self.enqueued_at: Optional[float] = None
        #: Open tracing span for the in-flight commitment on this server
        #: (:class:`repro.obs.tracer.Span`; None without a tracer).
        self.commit_span: Any = None
        #: Span id of this op's execution span here (the causal parent
        #: of its eventual commitment; None without a tracer).
        self.exec_span_id: Optional[int] = None
        #: True once the Result-Record is durable.  A participant may
        #: only vote on durable results (a YES whose record is still in
        #: flight could not be honored after a crash).
        self.logged = False
        #: Coordinator-role only: the logged commitment decision, set
        #: the moment the Commit/Abort record is appended.  Once set,
        #: retry paths must re-deliver this decision — never re-vote.
        self.decided: Optional[bool] = None
        #: Participant-role only: virtual time of the next re-solicit
        #: toward the coordinator (armed by the trigger scan).
        self.resolicit_at: Optional[float] = None
        #: Current re-solicit backoff interval (doubles per retry, up
        #: to ``vote_retry_timeout * vote_retry_backoff_cap``).
        self.resolicit_backoff: Optional[float] = None

    def response(self) -> Tuple[MessageKind, Dict[str, Any]]:
        """The YES/NO execution response, built from the stored fields.

        Sent once after the Result-Record is durable, and rebuilt
        identically for a duplicate REQ.
        """
        res = self.result
        return (MessageKind.YES if res.ok else MessageKind.NO), {
            "op_id": self.op_id,
            "role": self.role,
            "ok": res.ok,
            "errno": res.errno,
            "conflicted": self.conflicted,
            "hint": self.hint,
            "hint_covers_other": self.hint_covers_other,
            "saw_commits": self.saw_commits,
        }

    def __repr__(self) -> str:
        return (
            f"<PendingOp {self.op_id!r} role={self.role!r} "
            f"state={self.state!r}>"
        )

    @property
    def ok(self) -> bool:
        return self.result.ok
