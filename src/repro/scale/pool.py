"""Struct-of-arrays member state for the mega-scale engine.

A :class:`FlatMemberPool` holds the *entire* group's per-member,
per-message protocol state in a handful of numpy arrays indexed
``[member, seq - 1]`` — no per-member Python objects, no per-member
timers.  At 100,000 members × 10 messages the whole pool is ~20 MB,
and every protocol transition the flat engine performs (multicast
delivery, loss detection, repair application, idle sweeps) is one
vectorized operation over ``[start:stop, col]``: one region's members
for one message.  The arrays are column-major (``order="F"``) so that
run is contiguous in memory; indexing and ``np.nonzero`` order do not
depend on the layout.

The pool relies on the topology builders' node-numbering contract:
:func:`repro.net.topology.single_region` / ``chain`` / ``star`` /
``balanced_tree`` auto-assign sequential node ids region by region, so
every region is a contiguous ``[start, stop)`` row range.  The
constructor verifies this instead of assuming it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.net.topology import Hierarchy, NodeId, RegionId


class FlatMemberPool:
    """Array-backed state for every member of a hierarchy.

    Arrays (all shaped ``(members, messages)``):

    * ``received`` — bool; the member delivered this seq;
    * ``buffered`` — bool; the member currently buffers a copy
      (short- or long-term);
    * ``long_term`` — bool; the buffered copy survived the §3.2 coin
      flip (or is the sender's pinned copy);
    * ``given_up`` — bool; recovery exceeded ``max_recovery_time`` and
      reported a ``reliability_violation``;
    * ``receive_time`` — float ms (NaN until received);
    * ``idle_deadline`` — float ms; when the short-term idle timer (T)
      fires next for this copy (+inf when not armed).
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

        shape = (size, message_count)
        self.received = np.zeros(shape, dtype=bool, order="F")
        self.buffered = np.zeros(shape, dtype=bool, order="F")
        self.long_term = np.zeros(shape, dtype=bool, order="F")
        self.given_up = np.zeros(shape, dtype=bool, order="F")
        self.receive_time = np.full(shape, np.nan, dtype=np.float64, order="F")
        self.idle_deadline = np.full(shape, np.inf, dtype=np.float64, order="F")

    # ------------------------------------------------------------------
    # Region access
    # ------------------------------------------------------------------
    def rows(self, region_id: RegionId) -> Tuple[int, int]:
        """The ``[start, stop)`` row range of *region_id*."""
        return self.region_rows[region_id]

    # ------------------------------------------------------------------
    # Aggregate queries (summary + oracle support)
    # ------------------------------------------------------------------
    def delivered_pairs(self, rows: Tuple[int, int] | None = None) -> int:
        """Number of delivered ``(member, seq)`` pairs (optionally one
        region's row range)."""
        view = self.received if rows is None else self.received[rows[0]:rows[1]]
        return int(view.sum())

    def given_up_pairs(self, rows: Tuple[int, int] | None = None) -> int:
        """Number of ``(member, seq)`` pairs that gave recovery up."""
        view = self.given_up if rows is None else self.given_up[rows[0]:rows[1]]
        return int(view.sum())

    def long_term_copies(self, seq: int) -> int:
        """Current long-term holders of *seq* across the whole group."""
        return int(self.long_term[:, seq - 1].sum())

    # ------------------------------------------------------------------
    # Per-member views (oracle end-of-run sweep)
    # ------------------------------------------------------------------
    def member_buffered_seqs(self, row: int) -> List[int]:
        """Seqs member *row* currently buffers, ascending."""
        return [int(col) + 1 for col in np.nonzero(self.buffered[row])[0]]

    def member_unresolved_gaps(self, row: int) -> List[int]:
        """Seqs member *row* never delivered, ascending (given-up seqs
        included — they carry ``reliability_violation`` records)."""
        return [int(col) + 1 for col in np.nonzero(~self.received[row])[0]]

    def member_is_buffering(self, row: int, seq: int) -> bool:
        return bool(self.buffered[row, seq - 1])

    def nbytes(self) -> int:
        """Total array payload in bytes (reported by benchmarks)."""
        arrays = (
            self.received, self.buffered, self.long_term,
            self.given_up, self.receive_time, self.idle_deadline,
        )
        return sum(array.nbytes for array in arrays)


__all__ = ["FlatMemberPool", "NodeId", "RegionId"]
