"""Per-(region, seq) member state for the mega-scale engine.

A :class:`FlatMemberPool` holds the group's per-member, per-message
protocol state as one *column* per (region, seq) — one region's members
for one message — with no per-member Python objects and no per-member
timers.  A column takes one of three forms over a run:

* **not started** — the multicast has not reached the region yet:
  nobody received, holds or gave up anything, and nothing is stored;
* **open** — from the delivery until the column settles: four
  region-sized bool vectors (:class:`OpenColumn`), so every protocol
  transition the flat engine performs (delivery, loss detection,
  repair application, idle sweeps) is one vectorized operation over
  contiguous memory;
* **closed** — once no member holds a short-term copy and every member
  either received the message or gave it up, nothing in the column can
  change again.  :meth:`FlatMemberPool.settle` keeps only the long-term
  holders (§3.2's ≈C per region, plus the sender's pinned copy) and the
  members that gave up, as two short index arrays (:class:`ClosedColumn`).

So the pool's bytes follow the open columns — the protocol's live
window, a few per region — plus a handful of indices per message, not
``members × messages``: ~1 MB at 100,000 members × 40 messages, where
dense arrays took 80 MB.  Rows inside a column are offsets from the
region's first member.

The pool relies on the topology builders' node-numbering contract:
:func:`repro.net.topology.single_region` / ``chain`` / ``star`` /
``balanced_tree`` auto-assign sequential node ids region by region, so
every region is a contiguous ``[start, stop)`` row range.  The
constructor verifies this instead of assuming it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.net.topology import Hierarchy, NodeId, RegionId

#: A closed column's row offsets are packed as int32 bytes: a run keeps
#: one record per (region, seq), so a few bytes each, not an array each.
_ROW = np.dtype(np.int32)


class OpenColumn:
    """One (region, seq) column while it can still change.

    * ``received`` — the member delivered this seq;
    * ``buffered`` — the member buffers a copy (short- or long-term);
    * ``long_term`` — the buffered copy survived the §3.2 coin flip (or
      is the sender's pinned copy);
    * ``given_up`` — recovery exceeded ``max_recovery_time`` and
      reported a ``reliability_violation``.
    """

    __slots__ = ("received", "buffered", "long_term", "given_up")

    def __init__(self, size: int) -> None:
        self.received = np.zeros(size, dtype=bool)
        self.buffered = np.zeros(size, dtype=bool)
        self.long_term = np.zeros(size, dtype=bool)
        self.given_up = np.zeros(size, dtype=bool)

    def missing(self) -> np.ndarray:
        """Members still recovering: not received and not given up."""
        return ~self.received & ~self.given_up


def _pack(mask: np.ndarray) -> bytes:
    return np.flatnonzero(mask).astype(_ROW).tobytes() if mask.any() else b""


class ClosedColumn(NamedTuple):
    """A settled (region, seq) column: every member received the message
    except the ``given_up`` rows, and exactly the ``holders`` still buffer
    it, all long-term.  Both are packed ascending row offsets."""

    holders: bytes
    given_up: bytes

    @property
    def holder_count(self) -> int:
        return len(self.holders) // _ROW.itemsize

    @property
    def given_up_count(self) -> int:
        return len(self.given_up) // _ROW.itemsize

    def holder_rows(self) -> np.ndarray:
        return np.frombuffer(self.holders, dtype=_ROW)

    def given_up_rows(self) -> np.ndarray:
        return np.frombuffer(self.given_up, dtype=_ROW)


class FlatMemberPool:
    """Column state for every member of a hierarchy.

    ``open_columns[region][col]`` and ``closed_columns[region][col]``
    hold the two stored forms of column ``col = seq - 1``; a column in
    neither has not started.  The engine opens columns with
    :meth:`column` and closes them with :meth:`settle`.
    """

    def __init__(self, hierarchy: Hierarchy, message_count: int) -> None:
        if message_count < 1:
            raise ValueError(f"message_count must be >= 1, got {message_count}")
        nodes = hierarchy.nodes
        size = len(nodes)
        if nodes != list(range(size)):
            raise ValueError(
                "FlatMemberPool needs contiguous node ids 0..n-1 in region "
                "order (use the standard topology builders)"
            )
        self.size = size
        self.message_count = message_count
        self.region_ids: List[RegionId] = sorted(hierarchy.regions)
        self.region_rows: Dict[RegionId, Tuple[int, int]] = {}
        cursor = 0
        for region_id in self.region_ids:
            members = hierarchy.regions[region_id].members
            if members != list(range(cursor, cursor + len(members))):
                raise ValueError(
                    f"region {region_id} member ids are not the contiguous "
                    f"range starting at {cursor}; the flat engine cannot "
                    "slice it"
                )
            self.region_rows[region_id] = (cursor, cursor + len(members))
            cursor += len(members)

        self.open_columns: Dict[RegionId, Dict[int, OpenColumn]] = {
            rid: {} for rid in self.region_ids}
        self.closed_columns: Dict[RegionId, Dict[int, ClosedColumn]] = {
            rid: {} for rid in self.region_ids}
        self._open_count = 0
        #: Most columns open at once over the pool's life: with the
        #: live window it is flat in stream length.
        self.peak_open_columns = 0

    # ------------------------------------------------------------------
    # Column life cycle
    # ------------------------------------------------------------------
    def rows(self, region_id: RegionId) -> Tuple[int, int]:
        """The ``[start, stop)`` row range of *region_id*."""
        return self.region_rows[region_id]

    def column(self, region_id: RegionId, col: int) -> Optional[OpenColumn]:
        """The open column ``(region_id, col)``, opened empty if it has
        not started; ``None`` once it is closed."""
        opened = self.open_columns[region_id]
        column = opened.get(col)
        if column is None and col not in self.closed_columns[region_id]:
            start, stop = self.region_rows[region_id]
            column = opened[col] = OpenColumn(stop - start)
            self._open_count += 1
            self.peak_open_columns = max(self.peak_open_columns, self._open_count)
        return column

    def settle(self, region_id: RegionId, col: int) -> bool:
        """Close the open column ``(region_id, col)`` into its sparse
        record if every member received the message or gave it up, and
        say whether it did.  The caller guarantees that no short-term
        copy is left in it."""
        column = self.open_columns[region_id].get(col)
        if column is None:
            return False
        if column.received.all():  # given-up members never received
            given_up = b""
        elif (column.received | column.given_up).all():
            given_up = _pack(column.given_up)
        else:
            return False
        del self.open_columns[region_id][col]
        self._open_count -= 1
        self.closed_columns[region_id][col] = ClosedColumn(
            _pack(column.long_term), given_up)
        return True

    def holders(self, region_id: RegionId, col: int) -> np.ndarray:
        """Rows currently buffering column *col*'s message, ascending."""
        column = self.open_columns[region_id].get(col)
        if column is not None:
            return np.flatnonzero(column.buffered)
        record = self.closed_columns[region_id].get(col)
        return np.empty(0, dtype=_ROW) if record is None else record.holder_rows()

    # ------------------------------------------------------------------
    # Aggregate queries (summary + oracle support)
    # ------------------------------------------------------------------
    def _regions(self, region_id: Optional[RegionId]) -> Iterable[RegionId]:
        return self.region_ids if region_id is None else (region_id,)

    def delivered_pairs(self, region_id: Optional[RegionId] = None) -> int:
        """Number of delivered ``(member, seq)`` pairs (optionally of one
        region)."""
        total = 0
        for rid in self._regions(region_id):
            start, stop = self.region_rows[rid]
            total += sum(int(column.received.sum())
                         for column in self.open_columns[rid].values())
            closed = self.closed_columns[rid]
            total += (stop - start) * len(closed) - sum(
                record.given_up_count for record in closed.values())
        return total

    def given_up_pairs(self, region_id: Optional[RegionId] = None) -> int:
        """Number of ``(member, seq)`` pairs that gave recovery up."""
        total = 0
        for rid in self._regions(region_id):
            total += sum(int(column.given_up.sum())
                         for column in self.open_columns[rid].values())
            total += sum(record.given_up_count
                         for record in self.closed_columns[rid].values())
        return total

    def long_term_copies(self, seq: int) -> int:
        """Current long-term holders of *seq* across the whole group."""
        col = seq - 1
        total = 0
        for rid in self.region_ids:
            column = self.open_columns[rid].get(col)
            if column is not None:
                total += int(column.long_term.sum())
            elif col in self.closed_columns[rid]:
                total += self.closed_columns[rid][col].holder_count
        return total

    def member_seqs(self, region_id: RegionId) -> List[Tuple[List[int], List[int]]]:
        """Per member of *region_id*, in row order: the seqs it buffers
        and the seqs it never delivered (given-up seqs included — they
        carry ``reliability_violation`` records), both ascending."""
        start, stop = self.region_rows[region_id]
        members: List[Tuple[List[int], List[int]]] = [
            ([], []) for _ in range(stop - start)]
        opened = self.open_columns[region_id]
        closed = self.closed_columns[region_id]
        for col in range(self.message_count):
            column = opened.get(col)
            if column is not None:
                held = np.flatnonzero(column.buffered).tolist()
                gaps: Iterable[int] = np.flatnonzero(~column.received).tolist()
            elif col in closed:
                held = closed[col].holder_rows().tolist()
                gaps = closed[col].given_up_rows().tolist()
            else:
                held, gaps = [], range(stop - start)
            for row in held:
                members[row][0].append(col + 1)
            for row in gaps:
                members[row][1].append(col + 1)
        return members

    def nbytes(self) -> int:
        """Bytes of column state held right now (reported by benchmarks)."""
        return sum(
            sum(4 * column.received.nbytes for column in self.open_columns[rid].values())
            + sum(len(record.holders) + len(record.given_up)
                  for record in self.closed_columns[rid].values())
            for rid in self.region_ids
        )


__all__ = ["ClosedColumn", "FlatMemberPool", "NodeId", "OpenColumn", "RegionId"]
