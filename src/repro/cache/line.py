"""Cache-line records for the MLC and LLC models.

Rather than a full MESIF protocol, lines carry the placement and provenance
bits the paper's contentions hinge on:

* ``io``            — the line was DMA-written by an I/O device;
* ``consumed``      — an ``io`` line that a CPU core has since read.  An
  *unconsumed* ``io`` line evicted from the LLC is a **DMA leak**;
* ``dirty``         — holds data newer than memory;
* LLC lines also know which way they occupy, whether they are
  **LLC-inclusive** (also resident in some MLC — such lines may only occupy
  the two inclusive ways), and which stream (workload) allocated them, for
  attribution of evictions and leaks.

Both classes are plain ``__slots__`` records rather than dataclasses:
millions of them are allocated per run, and the closed attribute set plus
the skipped instance ``__dict__`` are worth a measurable share of the
simulation's wall time.
"""

from __future__ import annotations

from typing import Dict, Optional, Set


class MlcLine:
    """A line resident in a private mid-level cache."""

    __slots__ = ("addr", "stream", "dirty", "io", "lru")

    def __init__(
        self,
        addr: int,
        stream: str,
        dirty: bool = False,
        io: bool = False,
        lru: int = 0,
    ):
        self.addr = addr
        self.stream = stream
        self.dirty = dirty
        self.io = io
        self.lru = lru

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MlcLine(addr={self.addr:#x}, stream={self.stream!r}, "
            f"dirty={self.dirty}, io={self.io}, lru={self.lru})"
        )


class LlcLine:
    """A line resident in the shared last-level cache."""

    __slots__ = (
        "addr",
        "stream",
        "way",
        "dirty",
        "io",
        "consumed",
        "lru",
        "holders",
        "_meta",
    )

    def __init__(
        self,
        addr: int,
        stream: str,
        way: int,
        dirty: bool = False,
        io: bool = False,
        consumed: bool = False,
        lru: int = 0,
        holders: Optional[Set[int]] = None,
        meta: Optional[Dict[str, int]] = None,
    ):
        self.addr = addr
        self.stream = stream
        self.way = way
        self.dirty = dirty
        self.io = io
        self.consumed = consumed
        self.lru = lru
        self.holders: Set[int] = set() if holders is None else holders
        """Core ids whose MLC also holds this line (non-empty => LLC-inclusive)."""
        self._meta = meta

    @property
    def meta(self) -> Dict[str, int]:
        """Replacement-policy metadata (e.g. the RRIP re-reference value).

        Allocated on first use: only RRIP and NRU keep any, and an eager
        dict per line is a measurable cost on the LRU path."""
        meta = self._meta
        if meta is None:
            meta = self._meta = {}
        return meta

    @property
    def inclusive(self) -> bool:
        """True when the line is resident in both the LLC and some MLC."""
        return bool(self.holders)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LlcLine(addr={self.addr:#x}, stream={self.stream!r}, "
            f"way={self.way}, dirty={self.dirty}, io={self.io}, "
            f"consumed={self.consumed}, holders={self.holders})"
        )
