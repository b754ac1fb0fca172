"""Receiver-side FEC block decoder.

:class:`FecBlockDecoder` reassembles blocks from two feeds — the data
messages the member receives (any path: multicast, repair, regional
re-multicast) and the parity messages of the FEC subsystem — and
recovers erased data messages as soon as ``k`` of a block's ``k + r``
shards are present.  Recovery is *eager*: every arrival attempts a
decode, so a gap is usually filled before the member's pull recovery
sends a single request; the member additionally consults
:meth:`recover` right before starting a
:class:`~repro.protocol.recovery.RecoveryProcess`.

The decoder learns a block's composition (its seq list, ``k`` and
``r``) from the first parity message of that block; data shards that
arrive earlier are cached by seq until a parity message claims them.
Blocks whose data fully arrives are retired immediately; the shard
cache is capped (FIFO) so a session whose parity never arrives cannot
grow memory without bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.fec.codec import FecDecodeError, make_codec
from repro.fec.encoder import message_shard, pad_shard, shard_payload
from repro.net.topology import NodeId
from repro.protocol.messages import DataMessage, ParityMessage, Seq


@dataclass
class _BlockState:
    """What the decoder knows about one announced block."""

    block_id: int
    seqs: Tuple[Seq, ...]
    r: int
    sender: NodeId
    #: Parity shards received so far, by parity index.
    parity: Dict[int, bytes] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(self.seqs)


class FecBlockDecoder:
    """Per-member erasure-decoding state."""

    def __init__(self, max_cached_shards: int = 65536) -> None:
        if max_cached_shards < 1:
            raise ValueError("max_cached_shards must be >= 1")
        self.max_cached_shards = max_cached_shards
        #: Serialized (unpadded) data shards by seq, insertion-ordered
        #: so the cap evicts oldest-first.
        self._shards: Dict[Seq, bytes] = {}
        self._blocks: Dict[int, _BlockState] = {}
        self._seq_to_block: Dict[Seq, int] = {}
        #: Blocks fully decoded or fully received; further shards for
        #: them are dropped on arrival.
        self._done: Set[int] = set()
        #: Messages reconstructed by decoding, ever (diagnostics).
        self.recovered_count = 0

    # ------------------------------------------------------------------
    # Feeds
    # ------------------------------------------------------------------
    def on_data(self, data: DataMessage) -> List[DataMessage]:
        """Record a received data message; returns any decode it enabled."""
        seq = data.seq
        block_id = self._seq_to_block.get(seq)
        if block_id in self._done or seq in self._shards:
            return []
        self._shards[seq] = message_shard(data)
        self._evict_over_cap()
        if block_id is None:
            return []
        return self._try_decode(block_id)

    def on_parity(self, parity: ParityMessage) -> List[DataMessage]:
        """Record a parity message; returns any decode it enabled."""
        block_id = parity.block_id
        if block_id in self._done:
            return []
        state = self._blocks.get(block_id)
        if state is None:
            state = _BlockState(
                block_id=block_id,
                seqs=tuple(parity.block_seqs),
                r=parity.r,
                sender=parity.sender,
            )
            self._blocks[block_id] = state
            for seq in state.seqs:
                self._seq_to_block[seq] = block_id
        state.parity.setdefault(parity.index, parity.shard)
        return self._try_decode(block_id)

    def recover(self, seq: Seq) -> List[DataMessage]:
        """Attempt a decode of the block covering *seq* right now.

        The member calls this before starting a pull-recovery process;
        the returned list holds *every* message the decode reconstructs
        (a block decode can fill several gaps at once), so the caller
        must handle all of them, not just *seq*.
        """
        block_id = self._seq_to_block.get(seq)
        if block_id is None or block_id in self._done:
            return []
        return self._try_decode(block_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def tracked_blocks(self) -> int:
        """Blocks currently held open (awaiting shards)."""
        return len(self._blocks)

    @property
    def cached_shards(self) -> int:
        """Data shards currently cached."""
        return len(self._shards)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _try_decode(self, block_id: int) -> List[DataMessage]:
        state = self._blocks.get(block_id)
        if state is None:
            return []
        data_shards = [self._shards.get(seq) for seq in state.seqs]
        missing = [index for index, shard in enumerate(data_shards) if shard is None]
        if not missing:
            self._retire(state)
            return []
        if (state.k - len(missing)) + len(state.parity) < state.k:
            return []  # not enough shards yet; keep waiting
        length = len(next(iter(state.parity.values())))
        shards: List[Optional[bytes]] = [
            pad_shard(shard, length) if shard is not None else None
            for shard in data_shards
        ]
        shards.extend(state.parity.get(index) for index in range(state.r))
        codec = make_codec(state.k, state.r)
        try:
            decoded = codec.decode(shards)
        except FecDecodeError:  # pragma: no cover - guarded by the count check
            return []
        recovered: List[DataMessage] = []
        for index in missing:
            payload = shard_payload(decoded[index])
            message = DataMessage(
                seq=state.seqs[index], sender=state.sender, payload=payload
            )
            self._shards[message.seq] = message_shard(message)
            recovered.append(message)
        self.recovered_count += len(recovered)
        self._retire(state)
        return recovered

    def _retire(self, state: _BlockState) -> None:
        """Drop the shard state of a block that needs no further decoding.

        The seq -> block mapping is kept (one int per seq, like the gap
        tracker's received set) so late duplicates of a retired block's
        shards are recognised and dropped instead of re-cached.
        """
        self._done.add(state.block_id)
        self._blocks.pop(state.block_id, None)
        for seq in state.seqs:
            self._shards.pop(seq, None)

    def _evict_over_cap(self) -> None:
        while len(self._shards) > self.max_cached_shards:
            oldest = next(iter(self._shards))
            del self._shards[oldest]
