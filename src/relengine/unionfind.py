"""Disjoint-set forest over a plain parent list, shared by the connectivity checks.

The caller owns the list (``parent = list(range(size))``), so a fresh
forest costs one list copy and the hot loops pay no attribute lookups.
``find`` and ``union`` compress paths, and serve the landmarks and
network validation. The enumerating walks keep no forest: the oracle's
``bat._leaves``, qb2's ``stm._partitions`` and the depth-first walk of
``quickbat.reliability_quick_bat`` hold each partition as an immutable
string of block labels, and a merge relabels one block.
"""

from __future__ import annotations


def find(parent: list[int], x: int) -> int:
    """Root of x's set, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def union(parent: list[int], x: int, y: int) -> bool:
    """Merge the sets of x and y; True when they were separate."""
    rx, ry = find(parent, x), find(parent, y)
    if rx == ry:
        return False
    parent[rx] = ry
    return True
