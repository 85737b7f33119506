"""Disjoint-set forest over a plain parent list, shared by the connectivity checks.

The caller owns the list (``parent = list(range(size))``), so a fresh
forest costs one list copy and the hot loops pay no attribute lookups.
``find`` and ``union`` compress paths; the depth-first walks instead use
``root``, ``merge`` and ``undo``, which keep union by size and a trail of
real merges, so backtracking rolls the forest back without compression
having moved any node.
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


def root(parent: list[int], x: int) -> int:
    """Root of x's set, leaving the path as it is so merges can be undone."""
    while parent[x] != x:
        x = parent[x]
    return x


def merge(
    parent: list[int], size: list[int], trail: list[int], x: int, y: int
) -> None:
    """Union by size of x's and y's sets, recording a real merge on trail."""
    rx, ry = root(parent, x), root(parent, y)
    if rx == ry:
        return
    if size[rx] > size[ry]:
        rx, ry = ry, rx
    parent[rx] = ry
    size[ry] += size[rx]
    trail.append(rx)


def undo(parent: list[int], size: list[int], trail: list[int], mark: int) -> None:
    """Roll back the merges recorded on trail past position mark."""
    while len(trail) > mark:
        rx = trail.pop()
        size[parent[rx]] -= size[rx]
        parent[rx] = rx
