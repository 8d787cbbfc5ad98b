"""Core domain types for constrained role mining.

Users and permissions are dense 0-based indices; string labels from input
files live in the dataset layer's name maps, never here.  Permission sets
are held as int bitmasks internally (bit ``p`` set means permission ``p``),
which gives word-parallel union/subset tests; the public surface speaks
frozensets.

A decomposition is *complete* for a matrix when every user's assigned roles
union to exactly that user's row.  Equality is deliberate: a role may never
grant a user a permission the matrix does not, so over-assignment fails the
check just like under-coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence


class RoleMiningError(Exception):
    """Base class for errors raised by this package."""


class InvalidDecompositionError(RoleMiningError):
    """Structurally malformed decomposition (dangling ids, orphans, duplicates)."""


class IncompleteDecompositionError(RoleMiningError):
    """An operation that requires a complete decomposition received one that is not."""


class ConstraintViolationError(RoleMiningError):
    """A decomposition breaks the max-permissions-per-role bound."""


# --- bitmask helpers -------------------------------------------------------

def mask_of(perms: Iterable[int]) -> int:
    m = 0
    for p in perms:
        m |= 1 << p
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def perm_tuple(mask: int) -> tuple[int, ...]:
    """Set bit positions in ascending order.

    Taken from the top: clearing the highest bit shortens the int, so each
    step works on a shorter int.  On wide sparse masks (bitmaps over
    thousands of rows) that is cheaper than clearing the lowest bit.
    """
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return tuple(out)


def perm_set(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


# --- domain types ----------------------------------------------------------

@dataclass(frozen=True)
class AccessMatrix:
    """The user-permission relation: one bitmask row per user."""

    n_users: int
    n_perms: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_users < 0 or self.n_perms < 0:
            raise ValueError("n_users and n_perms must be nonnegative")
        if len(self.masks) != self.n_users:
            raise ValueError(
                f"expected {self.n_users} rows, got {len(self.masks)}"
            )
        bound = 1 << self.n_perms
        for u, m in enumerate(self.masks):
            if m < 0 or m >= bound:
                raise ValueError(
                    f"row {u} references a permission >= n_perms ({self.n_perms})"
                )

    @classmethod
    def from_rows(
        cls, rows: Iterable[Iterable[int]], n_perms: int | None = None
    ) -> "AccessMatrix":
        """Build from per-user permission index collections.

        Duplicate indices within a row collapse (set semantics).  When
        `n_perms` is omitted it is inferred as max index + 1.
        """
        masks = tuple(mask_of(r) for r in rows)
        if n_perms is None:
            n_perms = max((m.bit_length() for m in masks), default=0)
        return cls(n_users=len(masks), n_perms=n_perms, masks=masks)

    def row(self, user: int) -> frozenset[int]:
        return perm_set(self.masks[user])

    def rows(self) -> tuple[frozenset[int], ...]:
        return tuple(perm_set(m) for m in self.masks)

    def cell_count(self) -> int:
        return sum(m.bit_count() for m in self.masks)

    def max_row_size(self) -> int:
        return max((m.bit_count() for m in self.masks), default=0)

    def density(self) -> float:
        cells = self.n_users * self.n_perms
        return self.cell_count() / cells if cells else 0.0


@dataclass(frozen=True)
class Role:
    """A nonempty set of permissions with an id unique inside one decomposition.

    ``mask``, the permission bitmask, is computed once at construction; it is
    an attribute, not a field, so equality, hashing and repr see only ``id``
    and ``perms``.
    """

    id: int
    perms: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "perms", frozenset(self.perms))
        if not self.perms:
            raise ValueError(f"role {self.id} has an empty permission set")
        if any(p < 0 for p in self.perms):
            raise ValueError(f"role {self.id} has a negative permission index")
        object.__setattr__(self, "mask", mask_of(self.perms))

    def sorted_perms(self) -> tuple[int, ...]:
        return tuple(sorted(self.perms))


@dataclass(frozen=True)
class Decomposition:
    """A role catalog plus the per-user role assignment (UA).

    The role-permission relation (PA) is derived from the catalog.  Invariants
    enforced at construction: ids unique, permission sets unique, every ua
    reference resolves, and no role is orphaned (assigned to nobody).
    """

    roles: tuple[Role, ...]
    ua: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "ua", tuple(frozenset(s) for s in self.ua))
        ids = [r.id for r in self.roles]
        if len(set(ids)) != len(ids):
            raise InvalidDecompositionError("duplicate role ids")
        seen_perms = set()
        for r in self.roles:
            if r.perms in seen_perms:
                raise InvalidDecompositionError(
                    f"two roles share the permission set {sorted(r.perms)}"
                )
            seen_perms.add(r.perms)
        known = set(ids)
        assigned: set[int] = set()
        for u, role_ids in enumerate(self.ua):
            dangling = role_ids - known
            if dangling:
                raise InvalidDecompositionError(
                    f"user {u} references unknown role ids {sorted(dangling)}"
                )
            assigned |= role_ids
        orphans = known - assigned
        if orphans:
            raise InvalidDecompositionError(
                f"roles {sorted(orphans)} are assigned to no user"
            )

    @classmethod
    def from_sets(
        cls,
        role_perm_sets: Sequence[Iterable[int]],
        ua: Sequence[Iterable[int]],
    ) -> "Decomposition":
        """Catalog from permission sets (ids are list positions) plus ua."""
        roles = tuple(Role(i, frozenset(s)) for i, s in enumerate(role_perm_sets))
        return cls(roles=roles, ua=tuple(frozenset(s) for s in ua))

    @classmethod
    def empty(cls, n_users: int) -> "Decomposition":
        return cls(roles=(), ua=tuple(frozenset() for _ in range(n_users)))

    def role_by_id(self) -> dict[int, Role]:
        return {r.id: r for r in self.roles}

    def r_count(self) -> int:
        return len(self.roles)

    def ua_size(self) -> int:
        return sum(len(s) for s in self.ua)

    def pa_size(self) -> int:
        return sum(len(r.perms) for r in self.roles)


@dataclass(frozen=True)
class MiningConfig:
    """Mining parameters: the cardinality bound k, WSC weights, seed."""

    max_perms_per_role: int
    wsc_weights: tuple[Fraction, Fraction, Fraction] = (
        Fraction(1),
        Fraction(1),
        Fraction(1),
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_perms_per_role < 1:
            raise ValueError("max_perms_per_role must be >= 1")
        weights = tuple(Fraction(w) for w in self.wsc_weights)
        if len(weights) != 3:
            raise ValueError("wsc_weights must have exactly three entries")
        if any(w < 0 for w in weights):
            raise ValueError("wsc_weights must be nonnegative")
        object.__setattr__(self, "wsc_weights", weights)
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must be a 64-bit unsigned integer")


# --- operations ------------------------------------------------------------

def is_complete(upa: AccessMatrix, d: Decomposition) -> bool:
    """True iff every user's assigned roles union to exactly their row.

    Raises InvalidDecompositionError for structural mismatches (wrong user
    count, permissions outside the matrix) rather than returning False.
    """
    if len(d.ua) != upa.n_users:
        raise InvalidDecompositionError(
            f"assignment covers {len(d.ua)} users, matrix has {upa.n_users}"
        )
    masks = {}
    bound = 1 << upa.n_perms
    for r in d.roles:
        m = r.mask
        if m >= bound:
            raise InvalidDecompositionError(
                f"role {r.id} references a permission >= n_perms ({upa.n_perms})"
            )
        masks[r.id] = m
    for u in range(upa.n_users):
        union = 0
        for rid in d.ua[u]:
            union |= masks[rid]
        if union != upa.masks[u]:
            return False
    return True


def satisfies_constraint(d: Decomposition, k: int) -> bool:
    """True iff every role holds at most k permissions."""
    return all(len(r.perms) <= k for r in d.roles)


def distinct_rows(upa: AccessMatrix) -> list[tuple[frozenset[int], list[int]]]:
    """Group users by identical rows.

    Returns (permission set, member users) pairs ordered by smallest member
    index; an empty-row group is included when empty rows exist (miners skip
    it but the partition must be total).
    """
    groups: dict[int, list[int]] = {}
    for u, m in enumerate(upa.masks):
        groups.setdefault(m, []).append(u)
    # Insertion order is first-appearance order, i.e. by smallest member.
    return [(perm_set(m), users) for m, users in groups.items()]


def singleton_decomposition(upa: AccessMatrix) -> Decomposition:
    """One role per permission in use: the universal feasibility witness.

    Complete for any matrix and satisfies every constraint k >= 1, which is
    why a constrained mining run can never be infeasible.
    """
    used = 0
    for m in upa.masks:
        used |= m
    perm_to_role = {p: i for i, p in enumerate(iter_bits(used))}
    roles = tuple(Role(i, frozenset((p,))) for p, i in perm_to_role.items())
    ua = tuple(
        frozenset(perm_to_role[p] for p in iter_bits(m)) for m in upa.masks
    )
    return Decomposition(roles=roles, ua=ua)
