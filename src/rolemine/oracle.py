"""Exact minimum-|R| solver for tiny instances.

The rows are the distinct nonempty rows of the matrix's index
(rolemine._rowindex), smallest first, ties by permission tuple.  A row's
candidates are its nonempty submasks of size <= k (nothing else can be
assigned to its users without over-granting).  The search is
iterative deepening on the catalog size: at each budget a depth-first search
picks the first row not yet fully covered and branches on its candidates
that add at least one missing permission.  Selecting a candidate credits
every row it fits in.  An empty matrix needs budget 0 and no role.

Hard guards keep the worst case around a second; this exists to check the
heuristics on small instances, not to solve real ones.
"""

from __future__ import annotations

from ._rowindex import cover_key
from .datasets import witness_assignment
from .metrics import role_lower_bound
from .model import AccessMatrix, Decomposition, RoleMiningError, perm_tuple

MAX_PERMS = 6
MAX_DISTINCT_ROWS = 6


class InstanceTooLargeError(RoleMiningError):
    """Instance exceeds the brute-force guard."""


def optimal_role_count(upa: AccessMatrix, k: int) -> tuple[int, Decomposition]:
    """Minimum number of roles of size <= k in any complete decomposition,
    plus one witness decomposition attaining it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if upa.n_perms > MAX_PERMS:
        raise InstanceTooLargeError(
            f"{upa.n_perms} permissions exceed the oracle guard of {MAX_PERMS}"
        )
    # The index holds each distinct nonempty row once, in cover order, so a
    # stable sort by size leaves each size in permission-tuple order.
    rows = sorted(upa._row_index.masks, key=int.bit_count)
    if len(rows) > MAX_DISTINCT_ROWS:
        raise InstanceTooLargeError(
            f"{len(rows)} distinct rows exceed the oracle guard of {MAX_DISTINCT_ROWS}"
        )

    # Larger candidates first, in cover order, so the DFS covers rows quickly.
    fits_in_row = [
        sorted(
            (c for c in range(1, row + 1) if c & ~row == 0 and c.bit_count() <= k),
            key=cover_key,
        )
        for row in rows
    ]

    lower = role_lower_bound(upa, k)
    upper = sum(-(-row.bit_count() // k) for row in rows)

    for budget in range(lower, upper + 1):
        chosen: list[int] = []
        failed: dict[tuple[int, ...], int] = {}

        def dfs(covered: list[int], remaining: int) -> bool:
            # No row may need more candidates than the budget has left.
            target = -1
            for i, row in enumerate(rows):
                gap = (row & ~covered[i]).bit_count()
                if -(-gap // k) > remaining:
                    return False
                if gap and target < 0:
                    target = i
            if target < 0:
                return True
            state = tuple(covered)
            if failed.get(state, -1) >= remaining:
                return False
            missing = rows[target] & ~covered[target]
            for cand in fits_in_row[target]:
                # A chosen candidate that fits this row is in its coverage.
                if cand & missing == 0:
                    continue
                chosen.append(cand)
                nxt = [
                    cov | cand if cand & ~row == 0 else cov
                    for cov, row in zip(covered, rows)
                ]
                if dfs(nxt, remaining - 1):
                    return True
                chosen.pop()
            # Coverage grows along a path, so the subtree never stored state.
            failed[state] = remaining
            return False

        if dfs([0] * len(rows), budget):
            witness = [frozenset(perm_tuple(m)) for m in chosen]
            return budget, witness_assignment(upa, witness)
    raise AssertionError("chunked per-row cover bounds the optimum")
