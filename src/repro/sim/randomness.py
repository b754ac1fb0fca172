"""Deterministic, named random-number streams.

Every stochastic decision in the reproduction — which neighbour to ask,
whether to send a remote request (probability λ/n), whether to become a
long-term bufferer (probability C/n), the outcome of an IP multicast —
draws from a :class:`RandomStreams` substream identified by a stable
name such as ``("member", 17, "local-recovery")``.

Deriving independent substreams from one master seed has three
properties the experiments rely on:

* **Bit-for-bit reproducibility.**  The same master seed always yields
  the same simulation, regardless of module import order or dict
  iteration order.
* **Decoupling.**  Adding a new consumer of randomness (say, a new
  metric probe that samples) does not perturb the draws seen by existing
  consumers, because streams are independent rather than interleaved.
* **A stream exists once it is drawn from.**  Its seed is
  ``SHA-256(master, name)`` and nothing else, so creation order and
  count are unobservable, and :meth:`RandomStreams.lazy` can defer
  creation to the first draw (most members never search).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Sequence, Tuple, Union

StreamName = Tuple[Union[str, int], ...]


def derive_seed(master_seed: int, name: StreamName) -> int:
    """Derive a 64-bit child seed from *master_seed* and a stream *name*.

    Uses SHA-256 over a canonical encoding, so the mapping is stable
    across Python versions and platforms (unlike ``hash()``).
    """
    hasher = hashlib.sha256()
    hasher.update(str(master_seed).encode("utf-8"))
    for part in name:
        hasher.update(b"\x1f")  # unit separator: ("ab",) != ("a","b")
        hasher.update(type(part).__name__.encode("utf-8"))
        hasher.update(b"=")
        hasher.update(str(part).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


class LazyStream:
    """Stands in for a named stream until its first draw creates it.

    The first access to each :class:`random.Random` method binds the
    real stream's method onto the handle, so later calls cost one
    instance-dict lookup.
    """

    def __init__(self, streams: "RandomStreams", name: StreamName) -> None:
        self._streams = streams
        self._name = name

    def __getattr__(self, attribute: str) -> Any:
        # Private names are never forwarded: copy/pickle probe for
        # dunders on an instance that has no ``_streams`` yet.
        if attribute.startswith("_"):
            raise AttributeError(attribute)
        bound = getattr(self._streams.stream(*self._name), attribute)
        self.__dict__[attribute] = bound
        return bound


class RandomStreams:
    """A factory of independent, deterministically-seeded RNG streams."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[StreamName, random.Random] = {}

    def stream(self, *name: Union[str, int]) -> random.Random:
        """Return the stream for *name*, creating it on first use.

        Repeated calls with the same name return the same
        :class:`random.Random` instance, so a consumer that draws from
        its stream across many events sees one continuous sequence.
        """
        key: StreamName = tuple(name)
        stream = self._streams.get(key)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, key))
            self._streams[key] = stream
        return stream

    def lazy(self, *name: Union[str, int]) -> random.Random:
        """:meth:`stream`, created by its first draw: for consumers
        that hold an RNG for life but may never use it."""
        return LazyStream(self, tuple(name))  # type: ignore[return-value]

    def spawn(self, *name: Union[str, int]) -> "RandomStreams":
        """Create a child factory rooted at *name*.

        Handy for giving each repetition of an experiment its own
        namespace: ``streams.spawn("rep", i)``.
        """
        return RandomStreams(derive_seed(self.master_seed, tuple(name)))

    def __len__(self) -> int:
        return len(self._streams)

    def names(self) -> List[StreamName]:
        """Names of the streams created so far, in creation order."""
        return list(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(master_seed={self.master_seed}, streams={len(self)})"


def pick_other(rng: random.Random, members: Sequence[int], position: int) -> int:
    """A uniform pick among two or more *members*, skipping *position*.

    Same single draw and same element as ``rng.choice`` on the list
    with that member filtered out, without building the list.
    """
    k = rng.randrange(len(members) - 1)
    return members[k + (k >= position)]
