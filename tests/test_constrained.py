import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemine import (
    AccessMatrix,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    Role,
    distinct_rows,
    eliminate_union_roles,
    enforce_cardinality,
    initial_candidates,
    is_complete,
    mine_constrained,
    optimal_role_count,
    satisfies_constraint,
    serialize_decomposition,
)
from rolemine.model import iter_bits, perm_set
from rolemine.rng import SplitMix64

from conftest import guard_instance, mixed_instances, synthetic_instance


def brute_force_union_cover(target: frozenset, others: list[frozenset]) -> bool:
    """Independent checker: does ANY subset of the other roles union to target?

    Only roles inside the target can contribute without overshooting, so the
    enumeration over all subsets is equivalent to checking that the union of
    all contained roles equals the target; we enumerate anyway to stay
    independent of that reasoning.
    """
    for size in range(1, len(others) + 1):
        for combo in combinations(others, size):
            if all(c <= target for c in combo):
                merged = frozenset().union(*combo)
                if merged == target:
                    return True
    return False


# --- initial_candidates ------------------------------------------------------

def test_candidates_dedup_and_size_order():
    upa = AccessMatrix.from_rows([{0, 1}, {0, 1}, {2}])
    pool = initial_candidates(upa)
    got = [(c.perms, list(c.users)) for c in pool.candidates]
    assert got == [(frozenset({2}), [2]), (frozenset({0, 1}), [0, 1])]
    assert [c.order for c in pool.candidates] == [0, 1]


def test_candidates_empty_matrix():
    upa = AccessMatrix.from_rows([[], []], n_perms=3)
    assert initial_candidates(upa).candidates == ()


def test_candidates_tie_break_on_smallest_user():
    upa = AccessMatrix.from_rows([{0}, {1}, {0, 1}])
    pool = initial_candidates(upa)
    got = [(c.perms, list(c.users)) for c in pool.candidates]
    assert got == [
        (frozenset({0}), [0]),
        (frozenset({1}), [1]),
        (frozenset({0, 1}), [2]),
    ]


# --- eliminate_union_roles ---------------------------------------------------

def test_union_elimination_removes_covered_role():
    upa = AccessMatrix.from_rows([{0, 1}, {0}, {1}])
    roles = (Role(0, frozenset({0})), Role(1, frozenset({1})), Role(2, frozenset({0, 1})))
    ua = [{2}, {0}, {1}]
    # independent derivation: {0} and {1} cover {0,1} exactly
    assert brute_force_union_cover(frozenset({0, 1}), [frozenset({0}), frozenset({1})])
    d = eliminate_union_roles(roles, ua, upa)
    assert {r.perms for r in d.roles} == {frozenset({0}), frozenset({1})}
    assert d.ua[0] == {0, 1}
    assert is_complete(upa, d)


def test_union_elimination_fixpoint_when_no_unions():
    upa = AccessMatrix.from_rows([{0, 2}, {1}])
    roles = (Role(0, frozenset({0, 2})), Role(1, frozenset({1})))
    d = eliminate_union_roles(roles, [{0}, {1}], upa)
    assert {r.perms for r in d.roles} == {frozenset({0, 2}), frozenset({1})}


def test_union_elimination_three_part_cover():
    upa = AccessMatrix.from_rows([{0}, {1}, {2}, {0, 1, 2}])
    roles = tuple(
        Role(i, frozenset(s)) for i, s in enumerate([{0}, {1}, {2}, {0, 1, 2}])
    )
    ua = [{0}, {1}, {2}, {3}]
    assert brute_force_union_cover(
        frozenset({0, 1, 2}), [frozenset({0}), frozenset({1}), frozenset({2})]
    )
    d = eliminate_union_roles(roles, ua, upa)
    assert {r.perms for r in d.roles} == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert d.ua[3] == {0, 1, 2}


def test_union_elimination_cascades_through_chains():
    # D = {0,1,2} is covered by C = {0,1} and E = {2}; C is covered by A, B.
    upa = AccessMatrix.from_rows([{0}, {1}, {2}, {0, 1}, {0, 1, 2}])
    sets = [{0}, {1}, {2}, {0, 1}, {0, 1, 2}]
    roles = tuple(Role(i, frozenset(s)) for i, s in enumerate(sets))
    ua = [{0}, {1}, {2}, {3}, {4}]
    d = eliminate_union_roles(roles, ua, upa)
    assert {r.perms for r in d.roles} == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert d.ua[4] == {0, 1, 2}
    assert is_complete(upa, d)


def test_union_elimination_requires_completeness():
    upa = AccessMatrix.from_rows([{0, 1}])
    with pytest.raises(IncompleteDecompositionError):
        eliminate_union_roles((Role(0, frozenset({0})),), [{0}], upa)


def _candidate_catalog(upa):
    pool = initial_candidates(upa)
    roles = tuple(Role(c.order, c.perms) for c in pool.candidates)
    ua = [set() for _ in range(upa.n_users)]
    for c in pool.candidates:
        for u in c.users:
            ua[u].add(c.order)
    return roles, ua


def test_union_elimination_is_idempotent():
    meta = SplitMix64(2024)
    for _ in range(25):
        upa, _, _ = synthetic_instance(meta, min_users=5, max_users=30,
                                       min_perms=4, max_perms=12)
        roles, ua = _candidate_catalog(upa)
        if not roles:
            continue
        once = eliminate_union_roles(roles, ua, upa)
        twice = eliminate_union_roles(once.roles, once.ua, upa)
        assert serialize_decomposition(twice) == serialize_decomposition(once)
        assert once.r_count() <= len(roles)


def test_union_elimination_matches_brute_force_on_random_catalogs():
    meta = SplitMix64(515151)
    for _ in range(40):
        n_perms = meta.randint(3, 8)
        n_roles = meta.randint(2, 6)
        universe = (1 << n_perms) - 1
        sets: list[frozenset] = []
        seen: set[frozenset] = set()
        attempts = 0
        while len(sets) < n_roles and attempts < 100:
            attempts += 1
            size = meta.randint(1, n_perms)
            s = frozenset(meta.sample(n_perms, size))
            if s not in seen:
                seen.add(s)
                sets.append(s)
        upa = AccessMatrix.from_rows(sets, n_perms=n_perms)
        roles = tuple(Role(i, s) for i, s in enumerate(sets))
        ua = [{i} for i in range(len(sets))]
        d = eliminate_union_roles(roles, ua, upa)
        survivors = {r.perms for r in d.roles}
        for i, s in enumerate(sets):
            others = [t for j, t in enumerate(sets) if j != i]
            assert (s not in survivors) == brute_force_union_cover(s, others)
        assert is_complete(upa, d)


def test_union_elimination_bytes_pinned_on_guard_instance():
    upa = guard_instance()
    roles, ua = _candidate_catalog(upa)
    d = eliminate_union_roles(roles, ua, upa)
    assert (len(roles), d.r_count()) == (1626, 157)
    digest = hashlib.sha256(serialize_decomposition(d).encode()).hexdigest()
    assert digest == (
        "dbc1947cea6e77d9a7827094e2b4d9a295ae34fb6e6e83f4739b3d505278e600"
    )


def _reference_eliminate_union_roles(roles, ua, upa):
    """Union elimination as a scan of per-minimum-permission buckets: every
    role inside the target is collected, then sorted into cover order."""
    d_in = Decomposition(roles=tuple(roles), ua=tuple(frozenset(s) for s in ua))
    assert is_complete(upa, d_in)
    masks = {r.id: r.mask for r in d_in.roles}
    user_roles = [set(s) for s in d_in.ua]
    role_users = {r.id: set() for r in d_in.roles}
    for u, s in enumerate(user_roles):
        for rid in s:
            role_users[rid].add(u)
    by_key = sorted(d_in.roles, key=lambda r: (-len(r.perms), r.sorted_perms()))
    by_min_perm = {}
    for r in by_key:
        by_min_perm.setdefault(min(r.perms), []).append(r)
    removed = set()
    for r in by_key:
        m = masks[r.id]
        subs = [
            s
            for p in iter_bits(m)
            for s in by_min_perm.get(p, ())
            if s.id != r.id and s.id not in removed and masks[s.id] & ~m == 0
        ]
        union = 0
        for s in subs:
            union |= masks[s.id]
        if union != m:
            continue
        subs.sort(key=lambda s: (-len(s.perms), s.sorted_perms()))
        cover = []
        remainder = m
        for s in subs:
            if masks[s.id] & remainder:
                cover.append(s.id)
                remainder &= ~masks[s.id]
                if not remainder:
                    break
        removed.add(r.id)
        for u in sorted(role_users[r.id]):
            user_roles[u].discard(r.id)
            user_roles[u].update(cover)
            for cid in cover:
                role_users[cid].add(u)
        del role_users[r.id]
    kept = tuple(r for r in d_in.roles if r.id not in removed)
    return Decomposition(roles=kept, ua=tuple(frozenset(s) for s in user_roles))


@st.composite
def _shuffled_catalogs(draw):
    """A distinct-set catalog whose ids are a random permutation, so id order
    differs from (size, permission tuple) order, plus users that hold each
    role alone and a few that hold several."""
    n_perms = draw(st.integers(1, 8))
    masks = draw(
        st.lists(st.integers(1, (1 << n_perms) - 1), min_size=1, max_size=14,
                 unique=True)
    )
    ids = draw(st.permutations(range(len(masks))))
    extra = draw(
        st.lists(st.sets(st.integers(0, len(masks) - 1), min_size=1, max_size=4),
                 max_size=6)
    )
    held = [{i} for i in range(len(masks))] + extra
    roles = tuple(Role(ids[i], perm_set(m)) for i, m in enumerate(masks))
    ua = [{ids[i] for i in s} for s in held]
    rows = []
    for s in held:
        row = 0
        for i in s:
            row |= masks[i]
        rows.append(row)
    upa = AccessMatrix(n_users=len(rows), n_perms=n_perms, masks=tuple(rows))
    return roles, ua, upa


@settings(max_examples=300, deadline=None)
@given(_shuffled_catalogs())
def test_union_elimination_matches_bucket_scan_reference(catalog):
    roles, ua, upa = catalog
    assert eliminate_union_roles(roles, ua, upa) == (
        _reference_eliminate_union_roles(roles, ua, upa)
    )


@settings(max_examples=300, deadline=None)
@given(mixed_instances())
def test_union_elimination_matches_reference_when_row_users_differ(instance):
    upa, _, d = instance
    assert eliminate_union_roles(d.roles, d.ua, upa) == (
        _reference_eliminate_union_roles(d.roles, d.ua, upa)
    )


# --- enforce_cardinality -----------------------------------------------------

def test_split_plain_chunks():
    # equal frequencies: order falls back to ascending permission index
    got = enforce_cardinality({0, 1, 2, 3, 4}, [], 2)
    assert got == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]


def test_split_noop_when_fits():
    assert enforce_cardinality({0, 1}, [], 2) == [frozenset({0, 1})]


def test_split_reuses_existing_subset_role():
    existing = [frozenset({1, 2})]
    got = enforce_cardinality({0, 1, 2}, existing, 2)
    assert got == [frozenset({1, 2}), frozenset({0})]
    assert got[0] is existing[0]  # reused by reference, not copied
    union = frozenset().union(*got)
    assert union == {0, 1, 2}
    assert all(len(s) <= 2 for s in got)


def test_split_pieces_are_disjoint_and_cover():
    existing = [frozenset({0, 1}), frozenset({2}), frozenset({5, 6})]
    got = enforce_cardinality({0, 1, 2, 3, 4, 5, 6}, existing, 3)
    union = set()
    total = 0
    for s in got:
        union |= s
        total += len(s)
    assert union == {0, 1, 2, 3, 4, 5, 6}
    assert total == 7  # pairwise disjoint
    assert all(len(s) <= 3 for s in got)


def test_split_frequency_ordering():
    # perm 4 is the most frequent, so it leads the leftover ordering
    freq = [1, 1, 5, 1, 9]
    got = enforce_cardinality({0, 2, 4}, [], 2, freq=freq)
    assert got == [frozenset({4, 2}), frozenset({0})]


def test_split_rejects_bad_k():
    with pytest.raises(ValueError):
        enforce_cardinality({0, 1}, [], 0)


# --- mine_constrained --------------------------------------------------------

def test_mine_identity_matrix():
    upa = AccessMatrix.from_rows([{0}, {1}, {2}])
    d = mine_constrained(upa, MiningConfig(max_perms_per_role=3))
    assert d.r_count() == 3
    assert all(len(s) == 1 for s in d.ua)


def test_mine_shared_row_single_role():
    upa = AccessMatrix.from_rows([{0, 1}] * 3)
    d = mine_constrained(upa, MiningConfig(max_perms_per_role=2))
    assert d.r_count() == 1
    assert optimal_role_count(upa, 2)[0] == 1  # oracle agrees this is optimal
    assert all(s == {0} for s in (set(x) for x in d.ua))


def test_mine_k1_forces_singletons():
    upa = AccessMatrix.from_rows([{0, 1, 2}])
    d = mine_constrained(upa, MiningConfig(max_perms_per_role=1))
    assert {r.perms for r in d.roles} == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert d.ua[0] == {0, 1, 2}


def test_mine_empty_matrix():
    upa = AccessMatrix.from_rows([[], []], n_perms=2)
    d = mine_constrained(upa, MiningConfig(max_perms_per_role=1))
    assert d.r_count() == 0
    assert is_complete(upa, d)


def test_mine_complete_and_constrained_on_random_instances():
    meta = SplitMix64(808)
    for _ in range(40):
        upa, _, k = synthetic_instance(meta, min_users=5, max_users=60,
                                       min_perms=5, max_perms=30)
        cfg = MiningConfig(max_perms_per_role=k)
        d = mine_constrained(upa, cfg)
        assert is_complete(upa, d)
        assert satisfies_constraint(d, k)
        bound = sum(-(-len(perms) // k) for perms, users in distinct_rows(upa) if perms)
        assert d.r_count() <= bound


def test_mine_is_deterministic():
    meta = SplitMix64(909)
    upa, _, k = synthetic_instance(meta)
    cfg = MiningConfig(max_perms_per_role=k)
    a = serialize_decomposition(mine_constrained(upa, cfg))
    b = serialize_decomposition(mine_constrained(upa, cfg))
    assert a == b


def test_mine_antichain_rows_within_k_returns_rows():
    # no row contains or equals the union of others
    rows = [{0, 1}, {1, 2}, {0, 3}]
    upa = AccessMatrix.from_rows(rows)
    d = mine_constrained(upa, MiningConfig(max_perms_per_role=2))
    assert {r.perms for r in d.roles} == {frozenset(r) for r in rows}


def test_mine_heuristic_can_be_suboptimal_on_antichains():
    # Five pairs over four permissions: the miner keeps the five rows, but
    # four singleton roles cover the same matrix, so optimal is 4.
    upa = AccessMatrix.from_rows([{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}])
    d = mine_constrained(upa, MiningConfig(max_perms_per_role=2))
    optimum, _ = optimal_role_count(upa, 2)
    assert d.r_count() == 5
    assert optimum == 4


@pytest.mark.parametrize(
    "lattice, r_count, digest",
    [
        (False, 314,
         "de3389052f05fd1f7042e3bbac89ecbda0c52e8a1088568f9e0b25dc4cd30f91"),
        (True, 282,
         "16a99d50aee39bcb8c40fc0bcb8307c42219aef9a6808fa1f7f7513aff57cad4"),
    ],
)
def test_mine_constrained_bytes_pinned_on_guard_instance_at_k5(
    lattice, r_count, digest
):
    # k=5, the scale workload's bound: many candidates are split and reuse
    # catalog roles.
    d = mine_constrained(guard_instance(), MiningConfig(max_perms_per_role=5),
                         lattice=lattice)
    assert d.r_count() == r_count
    assert hashlib.sha256(serialize_decomposition(d).encode()).hexdigest() == digest
