"""Shared instance builders for the test suite.

All randomness flows through SplitMix64 so every test is a pure function of
the literal seeds below; there is no platform RNG anywhere.
"""

from __future__ import annotations

from math import lcm

import pytest
from hypothesis import strategies as st

from rolemine import (
    AccessMatrix,
    Decomposition,
    GeneratorParams,
    MiningConfig,
    Role,
    generate,
    mine_constrained,
    mine_crm,
    singleton_decomposition,
    witness_assignment,
)
from rolemine.model import mask_of
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


def skewed_instance(meta: SplitMix64, *, min_users=10, max_users=200,
                    min_perms=10, max_perms=100):
    """One seeded instance of a second, skewed shape plus a k drawn in
    [1, max row], with the sizes `synthetic_instance` takes.

    Truth roles are drawn as `generate` draws them: 1 to 20 roles, each a
    uniform subset of 1 to at most 12 permissions, duplicates dropped; a
    role's rank is its place in draw order.  Role popularity is skewed:
    each user takes 1 to 4 distinct roles (at most the number of roles),
    each drawn from those it does not hold yet with probability
    proportional to 1/(rank+1), so role 0 is the most popular, as under a
    Zipf law.  A user's row is the union of its roles' masks.
    """
    n_perms = meta.randint(min_perms, max_perms)
    n_users = meta.randint(min_users, max_users)
    n_roles = meta.randint(1, 20)
    max_size = meta.randint(1, min(12, n_perms))
    drawn = [frozenset(meta.sample(n_perms, meta.randint(1, max_size)))
             for _ in range(n_roles)]
    truth = tuple(dict.fromkeys(drawn))
    role_masks = [mask_of(r) for r in truth]
    # Integer weights exactly proportional to 1/(rank+1).
    scale = lcm(*range(1, len(truth) + 1))
    masks = []
    for _ in range(n_users):
        weights = {rank: scale // (rank + 1) for rank in range(len(truth))}
        row = 0
        for _ in range(meta.randint(1, min(4, len(truth)))):
            ticket = meta.below(sum(weights.values()))
            for rank, w in weights.items():
                if ticket < w:
                    break
                ticket -= w
            row |= role_masks[rank]
            del weights[rank]
        masks.append(row)
    upa = AccessMatrix(n_users=n_users, n_perms=n_perms, masks=tuple(masks))
    k = meta.randint(1, upa.max_row_size())
    return upa, truth, k


def shape_draws(seed: int, count: int, **sizes):
    """`count` instances of each generator shape, uniform then skewed, with
    their truth and k: each shape draws from its own SplitMix64(seed), so
    the uniform draws are those `synthetic_instance` alone gives."""
    for shape in (synthetic_instance, skewed_instance):
        meta = SplitMix64(seed)
        for _ in range(count):
            yield shape(meta, **sizes)


def guard_instance() -> AccessMatrix:
    """The 2000 x 500 regression-guard instance (seed 99), mined at k=20."""
    upa, _ = generate(GeneratorParams(
        n_users=2000, n_perms=500, n_roles=120,
        max_roles_per_user=4, max_perms_per_role=20, seed=99,
    ))
    return upa


@pytest.fixture(scope="session")
def scale_upa() -> AccessMatrix:
    """The 20000 x 2000 scale instance (seed 99), generated once per run."""
    upa, _ = generate(GeneratorParams(
        n_users=20000, n_perms=2000, n_roles=400,
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


def mixed_decomposition(upa, parts, choice):
    """User u keeps its assignment from parts[choice[u]]; the catalog is the
    union of the roles kept, one id per permission set, ids in reverse order
    of first use so they differ from every part's own ids."""
    by_id = [p.role_by_id() for p in parts]
    ids: dict[frozenset, int] = {}
    ua = []
    for u in range(upa.n_users):
        held = set()
        for rid in parts[choice[u]].ua[u]:
            perms = by_id[choice[u]][rid].perms
            held.add(ids.setdefault(perms, len(ids)))
        ua.append(held)
    top = len(ids) - 1
    roles = tuple(Role(top - i, perms) for perms, i in ids.items())
    return Decomposition(roles=roles, ua=tuple({top - i for i in s} for s in ua))


@st.composite
def mixed_instances(draw):
    """A small matrix with repeated rows, a k, and a complete decomposition
    within k whose users of one row may hold different role sets: each user
    takes its roles from one of the singleton decomposition, the constrained
    miner's raw output, CRM's raw output and the assignment of every role
    of the constrained miner's catalog that fits the row."""
    n_perms = draw(st.integers(1, 7))
    rows = draw(st.lists(st.integers(0, (1 << n_perms) - 1), min_size=1, max_size=8))
    masks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=16))
    upa = AccessMatrix(n_users=len(masks), n_perms=n_perms, masks=tuple(masks))
    k = draw(st.integers(1, max(1, upa.max_row_size())))
    cfg = MiningConfig(max_perms_per_role=k)
    mined = mine_constrained(upa, cfg, lattice=False)
    parts = (
        singleton_decomposition(upa),
        mined,
        mine_crm(upa, cfg, lattice=False),
        witness_assignment(upa, [r.perms for r in mined.roles]),
    )
    # The lattice tends to give every user of a row the same roles; users
    # holding more roles than they need (the witness part) or covers from
    # two miners without the singletons keep them apart.
    used = draw(st.sampled_from(
        [(0, 1, 2, 3), (0, 1, 2), (1, 2), (0, 1), (0, 2), (1, 3), (2, 3)]
    ))
    choice = draw(st.lists(st.sampled_from(used), min_size=upa.n_users,
                           max_size=upa.n_users))
    return upa, k, mixed_decomposition(upa, parts, choice)
