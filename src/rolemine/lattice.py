"""Redundant-role removal pass applied after mining.

A role is redundant when, for every user holding it, each of its permissions
is also available from some other catalog role that fits inside that user's
row.  Redundant roles are removed largest first and their users reassigned
greedily (largest fitting role first); the sweep repeats until no role can
be removed.  The pass never adds or merges roles, so the catalog can only
shrink and completeness and the cardinality bound are preserved by
construction.

The redundancy test is evaluated with per-row counters: for each distinct
row we track, per permission, how many live catalog roles fit inside the
row and contain it.  A role is removable iff every counter it touches for
its users' rows is at least two (itself plus one alternative).

The fit relation is computed once: each role's permission tuple and the
distinct rows it fits inside, and per row the fitting roles in removal
order (Eclat-style tid-lists, Zaki, TKDE 2000).  Counter updates reuse a
role's stored rows, and a removed role's users are reassigned by walking
their row's list rather than the whole catalog; dead roles are skipped, so
the picks are those of a catalog scan in the same order.
"""

from __future__ import annotations

from .model import (
    AccessMatrix,
    ConstraintViolationError,
    Decomposition,
    IncompleteDecompositionError,
    is_complete,
    iter_bits,
    satisfies_constraint,
)


def lattice_reduce(upa: AccessMatrix, d: Decomposition, k: int) -> Decomposition:
    """Remove redundant roles; idempotent once a fixpoint is reached."""
    if not is_complete(upa, d):
        raise IncompleteDecompositionError(
            "lattice_reduce requires a complete decomposition"
        )
    if not satisfies_constraint(d, k):
        raise ConstraintViolationError(
            f"input decomposition violates the constraint k={k}"
        )
    if not d.roles:
        return d

    # Roles are addressed by their position in `ordered`, the removal and
    # reassignment order: largest first, then by sorted permission tuple.
    ordered = sorted(d.roles, key=lambda r: (-len(r.perms), r.sorted_perms()))
    position = {r.id: i for i, r in enumerate(ordered)}
    masks = [r.mask for r in ordered]
    bits = [r.sorted_perms() for r in ordered]
    user_roles = [{position[rid] for rid in s} for s in d.ua]
    role_users: list[set[int]] = [set() for _ in ordered]
    for u, s in enumerate(user_roles):
        for i in s:
            role_users[i].add(u)

    # Distinct rows; everything below is evaluated per row, not per user.
    row_ids: dict[int, int] = {}
    row_of_user = [row_ids.setdefault(m, len(row_ids)) for m in upa.masks]
    row_masks = list(row_ids)

    rows_with_perm: dict[int, list[int]] = {}
    for ri, rm in enumerate(row_masks):
        for p in iter_bits(rm):
            rows_with_perm.setdefault(p, []).append(ri)

    # fit_rows[i]: the distinct rows role i fits inside; fits[row]: the roles
    # that fit inside the row, in `ordered` order; counters[row][p]: live
    # roles that fit in the row and contain p.
    fit_rows: list[list[int]] = []
    fits: list[list[int]] = [[] for _ in row_masks]
    counters: list[dict[int, int]] = [dict() for _ in row_masks]
    for i, m in enumerate(masks):
        rare = min(bits[i], key=lambda p: len(rows_with_perm.get(p, ())))
        rows = [
            ri for ri in rows_with_perm.get(rare, ()) if m & ~row_masks[ri] == 0
        ]
        fit_rows.append(rows)
        for ri in rows:
            fits[ri].append(i)
            cnt = counters[ri]
            for p in bits[i]:
                cnt[p] = cnt.get(p, 0) + 1

    alive = [True] * len(ordered)
    changed = True
    while changed:
        changed = False
        for i, m in enumerate(masks):
            if not alive[i]:
                continue
            touched_rows = {row_of_user[u] for u in role_users[i]}
            if not all(
                counters[ri][p] >= 2 for ri in touched_rows for p in bits[i]
            ):
                continue
            alive[i] = False
            for ri in fit_rows[i]:
                cnt = counters[ri]
                for p in bits[i]:
                    cnt[p] -= 1
            # Each user is reassigned from its own roles and the live set
            # alone, so the order of users does not matter.
            for u in role_users[i]:
                held = user_roles[u]
                held.discard(i)
                still = 0
                for other in held:
                    still |= masks[other]
                remainder = m & ~still
                if not remainder:
                    continue
                for cand in fits[row_of_user[u]]:
                    if alive[cand] and masks[cand] & remainder:
                        held.add(cand)
                        role_users[cand].add(u)
                        remainder &= ~masks[cand]
                        if not remainder:
                            break
                assert remainder == 0, "redundancy test guaranteed a cover"
            role_users[i] = set()
            changed = True

    kept = tuple(r for r in d.roles if alive[position[r.id]])
    ua = tuple(frozenset(ordered[i].id for i in s) for s in user_roles)
    return Decomposition(roles=kept, ua=ua)
