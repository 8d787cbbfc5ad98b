"""Exact minimum-|R| solver for tiny instances.

Candidate roles are every nonempty subset of size <= k of every distinct
row (nothing else can ever be assigned without over-granting).  The search
is iterative deepening on the catalog size: at each budget a depth-first
search picks the first row that is not yet fully covered and branches on
the candidates that fit inside it and add at least one missing permission.
Selecting a candidate credits every row it fits in.

Hard guards keep the worst case around a second; this exists to check the
heuristics on small instances, not to solve real ones.
"""

from __future__ import annotations

from .datasets import witness_assignment
from .metrics import role_lower_bound
from .model import AccessMatrix, Decomposition, RoleMiningError, mask_of, perm_tuple

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
    rows = sorted(
        {m for m in upa.masks if m}, key=lambda m: (m.bit_count(), perm_tuple(m))
    )
    if len(rows) > MAX_DISTINCT_ROWS:
        raise InstanceTooLargeError(
            f"{len(rows)} distinct rows exceed the oracle guard of {MAX_DISTINCT_ROWS}"
        )
    if not rows:
        return 0, Decomposition.empty(upa.n_users)

    candidates = _candidate_masks(rows, k)
    fits_in_row = [[c for c in candidates if c & ~row == 0] for row in rows]

    lower = role_lower_bound(upa, k)
    upper = sum(-(-row.bit_count() // k) for row in rows)

    for budget in range(lower, upper + 1):
        chosen: list[int] = []
        failed: dict[tuple[int, ...], int] = {}

        def dfs(covered: list[int], remaining: int) -> bool:
            target = -1
            for i, row in enumerate(rows):
                if covered[i] != row:
                    target = i
                    break
            if target < 0:
                return True
            if remaining == 0:
                return False
            # No single row may need more candidates than the whole budget.
            for i, row in enumerate(rows):
                gap = (row & ~covered[i]).bit_count()
                if -(-gap // k) > remaining:
                    return False
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


def _candidate_masks(rows: list[int], k: int) -> list[int]:
    seen: set[int] = set()
    for row in rows:
        perms = perm_tuple(row)
        for sub in range(1, 1 << len(perms)):
            if sub.bit_count() > k:
                continue
            seen.add(mask_of(perms[i] for i in perm_tuple(sub)))
    # Larger candidates first so the DFS covers rows quickly.
    return sorted(seen, key=lambda m: (-m.bit_count(), perm_tuple(m)))

