"""Shared instance builders for the test suite.

All randomness flows through SplitMix64 so every test is a pure function of
the literal seeds below; there is no platform RNG anywhere.
"""

from __future__ import annotations

from rolemine import AccessMatrix, GeneratorParams, generate
from rolemine.rng import SplitMix64


def synthetic_instance(meta: SplitMix64, *, min_users=10, max_users=200,
                       min_perms=10, max_perms=100):
    """One seeded generator-backed instance plus a k drawn in [1, max row]."""
    n_perms = meta.randint(min_perms, max_perms)
    params = GeneratorParams(
        n_users=meta.randint(min_users, max_users),
        n_perms=n_perms,
        n_roles=meta.randint(1, 20),
        max_roles_per_user=meta.randint(1, 4),
        max_perms_per_role=meta.randint(1, min(12, n_perms)),
        seed=meta.next_u64(),
    )
    upa, truth = generate(params)
    max_row = upa.max_row_size()
    k = meta.randint(1, max_row) if max_row else 1
    return upa, truth, k


def guard_instance() -> AccessMatrix:
    """The 2000 x 500 regression-guard instance (seed 99), mined at k=20."""
    upa, _ = generate(GeneratorParams(
        n_users=2000, n_perms=500, n_roles=120,
        max_roles_per_user=4, max_perms_per_role=20, seed=99,
    ))
    return upa


def tiny_instance(seed: int) -> tuple[AccessMatrix, int]:
    """Oracle-sized instance: <= 6 permissions, <= 6 distinct nonempty rows."""
    rng = SplitMix64(seed)
    n_perms = rng.randint(2, 6)
    n_rows = rng.randint(1, 6)
    universe = (1 << n_perms) - 1
    rows: list[int] = []
    seen: set[int] = set()
    attempts = 0
    while len(rows) < n_rows and attempts < 200:
        attempts += 1
        m = 1 + rng.below(universe)
        if m not in seen:
            seen.add(m)
            rows.append(m)
    masks = list(rows)
    for _ in range(rng.below(3)):  # a few duplicate users
        masks.append(rows[rng.below(len(rows))])
    upa = AccessMatrix(n_users=len(masks), n_perms=n_perms, masks=tuple(masks))
    k = rng.randint(1, upa.max_row_size())
    return upa, k
