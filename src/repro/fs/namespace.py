"""Per-server namespace shard: sub-op execution over the KV store.

The shard is a *pure planner*: :meth:`NamespaceShard.execute` validates
a sub-op against the current store contents and returns the resulting
updates plus their inverse (value-level undo), **without touching the
store**.  The protocol layer decides how to persist the updates —
synchronously (OFS, 2PC, CE) or deferred-and-batched (OFS-batched,
OFS-Cx) — and how to abort (apply the undo list).  This keeps every
protocol byte-identical in *what* it changes and different only in
*when and how* it hits the disk, which is the paper's comparison.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.fs.errors import (
    ErrEexist,
    ErrEnoent,
    ErrEnotempty,
)
from repro.fs.objects import DirEntry, FileType, Inode, dirent_key, inode_key
from repro.fs.ops import SubOp, SubOpAction
from repro.storage.kvstore import KVStore

#: (key, value) — value None means "delete the key".
Update = Tuple[Any, Optional[Any]]

#: Scratch-miss sentinel (None is a legal scratch value: a deletion).
_MISS = object()


class ExecResult:
    """Outcome of executing (planning) one sub-op.

    ``__slots__`` class (not a dataclass): one is built per sub-op
    execution, three list fields and all.
    """

    __slots__ = ("ok", "errno", "updates", "undo", "value")

    def __init__(
        self,
        ok: bool,
        errno: Optional[str] = None,
        updates: Optional[List[Update]] = None,
        undo: Optional[List[Update]] = None,
        value: Any = None,
    ) -> None:
        self.ok = ok
        self.errno = errno
        #: Writes to apply, in order.
        self.updates = [] if updates is None else updates
        #: Inverse writes restoring the pre-execution state, in order.
        self.undo = [] if undo is None else undo
        #: Read result for read-only actions (inode / dirent).
        self.value = value

    def __repr__(self) -> str:
        return (
            f"ExecResult(ok={self.ok!r}, errno={self.errno!r}, "
            f"updates={self.updates!r}, undo={self.undo!r}, "
            f"value={self.value!r})"
        )


class NamespaceShard:
    """One server's slice of the namespace, stored in its KV store."""

    def __init__(self, kv: KVStore, server_id: int) -> None:
        self.kv = kv
        self.server_id = server_id

    # -- typed accessors -----------------------------------------------------

    def get_inode(self, handle: int) -> Optional[Inode]:
        return self.kv.get(inode_key(handle))

    def get_dirent(self, parent: int, name: str) -> Optional[DirEntry]:
        return self.kv.get(dirent_key(parent, name))

    # -- persistence (called by the protocol layer) ---------------------------

    def apply_deferred(self, updates: List[Update]) -> None:
        """Apply updates to memory + dirty set (batched write-back)."""
        for key, value in updates:
            if value is None:
                self.kv.delete_deferred(key)
            else:
                self.kv.put_deferred(key, value)

    def apply_sync(self, updates: List[Update]) -> List[Any]:
        """Apply updates write-through; returns the disk events to await.

        All updates of one sub-op go out as a single merged disk request
        (one store transaction), like a BDB txn commit.
        """
        if not updates:
            return []
        event = self.kv.put_sync_many(
            [(key, value) for key, value in updates]
        )
        return [event]

    # -- execution -------------------------------------------------------------

    def execute(self, subop: SubOp, now: float) -> ExecResult:
        """Validate ``subop`` and compute its updates and undo.

        All actions of the sub-op are validated against a scratch view
        before any update is emitted, so a sub-op is atomic on its
        server: either every action validates and the full update list
        is produced, or the result is a clean failure with no updates.
        """
        result = ExecResult(ok=True)
        # Scratch view so later actions of the same sub-op observe
        # earlier ones (e.g. single-server create = insert + add inode).
        scratch: dict = {}
        # Everything the helpers touch is bound once: execute() runs
        # once per sub-op and the helpers several times per action.
        sget = scratch.get
        kvget = self.kv.get
        updates = result.updates
        undo = result.undo

        def read(key: Any) -> Any:
            val = sget(key, _MISS)
            return kvget(key) if val is _MISS else val

        def write(key: Any, value: Optional[Any]) -> None:
            old = sget(key, _MISS)
            if old is _MISS:
                old = kvget(key)
            updates.append((key, value))
            undo.append((key, old))
            scratch[key] = value

        args = subop.args
        for action in subop.actions:
            errno = self._apply_action(action, args, now, read, write, result)
            if errno is not None:
                return ExecResult(ok=False, errno=errno)
        # Undo must restore in reverse order of application.
        result.undo.reverse()
        return result

    def _apply_action(
        self, action: SubOpAction, args: dict, now: float, read, write, result: ExecResult
    ) -> Optional[str]:
        """Apply one action; returns an errno string on validation failure."""
        if action is SubOpAction.INSERT_ENTRY:
            # A single-server rename bundles REMOVE(src) + INSERT(dst):
            # the insert half reads its own argument block.
            args = args.get("insert_args", args)
            parent, name, target = args["parent"], args["name"], args["target"]
            dkey = dirent_key(parent, name)
            if read(dkey) is not None:
                return ErrEexist.errno
            write(dkey, DirEntry(parent, name, target, is_dir=args.get("is_dir", False)))
            # Update (or lazily create) the parent directory's local stub.
            stub = read(inode_key(parent)) or Inode(parent, FileType.DIRECTORY, nlink=2)
            write(inode_key(parent), stub.with_entries(+1, now))
            return None

        if action is SubOpAction.REMOVE_ENTRY:
            parent, name = args["parent"], args["name"]
            dkey = dirent_key(parent, name)
            if read(dkey) is None:
                return ErrEnoent.errno
            write(dkey, None)
            stub = read(inode_key(parent)) or Inode(parent, FileType.DIRECTORY, nlink=2)
            write(inode_key(parent), stub.with_entries(-1, now))
            return None

        if action is SubOpAction.ADD_INODE:
            handle = args["target"]
            ikey = inode_key(handle)
            if read(ikey) is not None:
                return ErrEexist.errno
            write(ikey, Inode(handle, FileType.REGULAR, nlink=1, mtime=now))
            return None

        if action is SubOpAction.ADD_DIR_INODE:
            handle = args["target"]
            ikey = inode_key(handle)
            if read(ikey) is not None:
                return ErrEexist.errno
            # "allocate the entry space" — directories start with nlink=2.
            write(ikey, Inode(handle, FileType.DIRECTORY, nlink=2, mtime=now))
            return None

        if action is SubOpAction.INC_NLINK:
            handle = args["target"]
            ikey = inode_key(handle)
            inode = read(ikey)
            if inode is None:
                return ErrEnoent.errno
            write(ikey, inode.with_nlink(+1, now))
            return None

        if action is SubOpAction.DEC_NLINK_FREE:
            handle = args["target"]
            ikey = inode_key(handle)
            inode = read(ikey)
            if inode is None:
                return ErrEnoent.errno
            if inode.nlink <= 1:
                write(ikey, None)  # "Frees the inode if the nlink reaches 0"
            else:
                write(ikey, inode.with_nlink(-1, now))
            return None

        if action is SubOpAction.FREE_DIR_INODE:
            handle = args["target"]
            ikey = inode_key(handle)
            inode = read(ikey)
            if inode is None:
                return ErrEnoent.errno
            if inode.entries > 0:
                return ErrEnotempty.errno
            write(ikey, None)
            return None

        if action is SubOpAction.WRITE_INODE:
            handle = args["target"]
            ikey = inode_key(handle)
            inode = read(ikey)
            if inode is None:
                return ErrEnoent.errno
            write(ikey, inode.touched(now))
            return None

        if action is SubOpAction.READ_INODE:
            handle = args["target"]
            ikey = inode_key(handle)
            inode = read(ikey)
            if inode is None:
                return ErrEnoent.errno
            result.value = inode
            return None

        if action is SubOpAction.READ_ENTRY:
            parent, name = args["parent"], args["name"]
            dkey = dirent_key(parent, name)
            entry = read(dkey)
            if entry is None:
                return ErrEnoent.errno
            result.value = entry
            return None

        if action is SubOpAction.READ_DIR:
            parent = args["parent"]
            ikey = inode_key(parent)
            result.value = read(ikey)
            return None

        raise AssertionError(f"unhandled action {action}")  # pragma: no cover
