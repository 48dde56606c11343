"""Bounded process-wide memos: one LRU type and one registry.

Every process-wide memo in ``repro`` is a :class:`Memo`: the trace sets,
the window tables, the generated and the parsed workload batches, and
the caches pooled sweep workers open.
A memo joins the registry under its name when it is constructed, so
:func:`memo_info` reports every memo's counters and :func:`memo_clear`
empties all of them: after it, the next run starts cold.  This module
imports only the standard library, so the registry loads no layer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = ["Memo", "MemoInfo", "memo_clear", "memo_info"]

#: One memo's counters; ``size`` is the summed weight of its entries
#: (their count when the memo weighs nothing).
MemoInfo = namedtuple("MemoInfo", "hits misses evictions entries size")

#: Every memo by name; a memo constructed under a taken name replaces it.
_MEMOS: Dict[str, "Memo"] = {}


class Memo:
    """Least-recently-used values under ``capacity``: an entry count, or
    with ``weigh`` the summed ``weigh(value)`` of the entries (bytes,
    say).  The capacity is read on every :meth:`put`.

    One lock covers each operation, so threads sharing a memo lose no
    count and never trip over each other's evictions.  ``key in memo``
    is a peek: it neither counts nor bumps.
    """

    def __init__(
        self, name: str, capacity: int, weigh: Optional[Callable] = None
    ) -> None:
        self.capacity, self._weigh = capacity, weigh
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._size = self.hits = self.misses = self.evictions = 0
        self._lock = threading.Lock()
        _MEMOS[name] = self

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, accept: Optional[Callable] = None) -> Any:
        """The value under ``key`` (bumped to most recent), or ``None``.

        A stored ``None`` reads as a miss.  So does a value ``accept``
        rejects, which is still returned for the caller to extend and
        :meth:`put` back (a score table holding too few rows).
        """
        with self._lock:
            entry = self._entries.get(key)
            value = None if entry is None else entry[0]
            if value is not None:
                self._entries.move_to_end(key)
            if value is not None and (accept is None or accept(value)):
                self.hits += 1
            else:
                self.misses += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key`` in one assignment, then drop the
        least recently used entries until the memo fits."""
        weight = 1 if self._weigh is None else self._weigh(value)
        with self._lock:
            previous = self._entries.get(key)
            self._entries[key] = (value, weight)
            self._entries.move_to_end(key)
            self._size += weight - (0 if previous is None else previous[1])
            # A unit-deadline signal can land between a pop and its size
            # update, leaving the size high: never pop an empty memo.
            while self._size > self.capacity and self._entries:
                _key, (_value, evicted) = self._entries.popitem(last=False)
                self._size -= evicted
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._size = self.hits = self.misses = self.evictions = 0

    def info(self) -> MemoInfo:
        with self._lock:
            counts = (self.hits, self.misses, self.evictions)
            return MemoInfo(*counts, len(self._entries), self._size)


def memo_info() -> Dict[str, MemoInfo]:
    """Every registered memo's counters, by name."""
    return {name: memo.info() for name, memo in list(_MEMOS.items())}


def memo_clear(*names: str) -> None:
    """Empty the named memos, or every registered memo when none is
    named, and reset their counters.  A name no memo holds yet has
    nothing to clear."""
    for name in names or list(_MEMOS):
        memo = _MEMOS.get(name)
        if memo is not None:
            memo.clear()
