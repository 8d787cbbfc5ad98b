import functools
import hashlib
import operator
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
    eliminate_union_roles,
    initial_candidates,
    is_complete,
    lattice_reduce,
    mine_constrained,
    mine_crm,
    optimal_role_count,
    satisfies_constraint,
    serialize_decomposition,
    singleton_decomposition,
)
from rolemine._rowindex import RowIndex, candidate_order, cover, row_groups
from rolemine.constrained import Candidate, CandidatePool, _eliminate, _split
from rolemine.model import mask_of, perm_tuple
from rolemine.rng import SplitMix64

from conftest import (
    guard_instance,
    mixed_decomposition,
    mixed_instances,
    shape_draws,
    synthetic_instance,
)


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


def _reference_candidates(upa):
    """The pool from a plain dict grouping of the rows and one sort."""
    groups = {}
    for u, row in enumerate(upa.rows()):
        if row:
            groups.setdefault(row, []).append(u)
    ranked = sorted(groups.items(), key=lambda item: (len(item[0]), item[1][0]))
    return CandidatePool(tuple(
        Candidate(perms, tuple(users), rank)
        for rank, (perms, users) in enumerate(ranked)
    ))


def test_candidates_match_a_plain_grouping_and_leave_the_index_as_built():
    meta = SplitMix64(5151)
    instances = [guard_instance()]
    instances += [synthetic_instance(meta)[0] for _ in range(20)]
    for upa in instances:
        assert initial_candidates(upa) == _reference_candidates(upa)
        cached, fresh = upa._row_index, RowIndex(row_groups(upa), upa.n_perms)
        assert all(getattr(cached, name) == getattr(fresh, name)
                   for name in RowIndex.__slots__)


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
    for upa, _, _ in shape_draws(2024, 25, min_users=5, max_users=30,
                                 min_perms=4, max_perms=12):
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
    masks = {r.id: mask_of(r.perms) for r in d_in.roles}
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
            for p in perm_tuple(m)
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
    roles = tuple(Role(ids[i], frozenset(perm_tuple(m))) for i, m in enumerate(masks))
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


def _stand_ins(index):
    """Each position's stand-ins from the `_eliminate` stage run on fresh
    lists, which also extends the masks with the index's own."""
    masks, held = [], []
    _eliminate(masks, index, held)
    assert masks == list(index.masks)
    return held


def test_eliminate_stand_ins_go_through_removed_cover_members():
    # Positions in visiting order: 0 {0,1,2}, 1 {0,1}, 2 {0}, 3 {1}, 4 {2}.
    # {0,1,2}'s walk takes {0,1} and {2}; {0,1} is removed as well, so its
    # stand-ins {0} and {1} replace it in those of {0,1,2}.
    upa = AccessMatrix.from_rows([{0}, {1}, {2}, {0, 1}, {0, 1, 2}])
    index = RowIndex(row_groups(upa), upa.n_perms)
    assert _stand_ins(index) == [{2, 3, 4}, {2, 3}, {2}, {3}, {4}]


def test_eliminate_matches_reference_on_candidate_catalogs():
    # The miner's path: one role per index row, and a row's users hold the
    # candidate ids of its stand-ins.
    removed = 0
    for upa, _, _ in shape_draws(3131, 40, min_users=5, max_users=80,
                                 min_perms=4, max_perms=30):
        index = RowIndex(row_groups(upa), upa.n_perms)
        ref = _reference_eliminate_union_roles(*_candidate_catalog(upa), upa)
        order = candidate_order(index.masks, index.users, range(len(index.masks)))
        cid = {i: rank for rank, i in enumerate(order)}
        for i, stand_ins in enumerate(_stand_ins(index)):
            removed += i not in stand_ins
            for u in index.users[i]:
                assert {cid[j] for j in stand_ins} == ref.ua[u]
    assert removed > 0


def _direct_stand_ins(index):
    """`_eliminate` with each role's subsets found by direct mask tests over
    every other position, ascending, and the same cover walk."""
    masks = index.masks
    stand_ins = [None] * len(masks)
    for i in reversed(range(len(masks))):
        subs = [j for j, m in enumerate(masks) if j != i and not m & ~masks[i]]
        taken, rest = cover(i, masks[i], subs, masks)
        stand_ins[i] = {i} if rest else set().union(*(stand_ins[j] for j in taken))
    return stand_ins


@st.composite
def _nested_rows(draw):
    """Rows that nest deeply: a chain of one-permission steps over
    permissions no other row starts from, atoms over the rest, and rounds
    of unions of earlier rows, so unions of unions.  Returns the rows and
    the chain."""
    n_atom_perms = draw(st.integers(1, 6))
    atoms = draw(st.lists(st.integers(1, (1 << n_atom_perms) - 1),
                          min_size=1, max_size=6))
    steps = draw(st.permutations(range(n_atom_perms,
                                       n_atom_perms + draw(st.integers(3, 6)))))
    chain = [mask_of(steps[: t + 1]) for t in range(len(steps))]
    rows = atoms + chain
    for _ in range(draw(st.integers(1, 3))):
        parts = st.lists(st.sampled_from(rows), min_size=2, max_size=3)
        for picked in draw(st.lists(parts, min_size=1, max_size=4)):
            rows.append(functools.reduce(operator.or_, picked))
    return rows, chain


@settings(max_examples=400, deadline=None)
@given(_nested_rows())
def test_backward_pass_matches_direct_subset_reference_on_nested_rows(case):
    rows, chain = case
    upa = AccessMatrix.from_rows([perm_tuple(m) for m in rows])
    index = RowIndex(row_groups(upa), upa.n_perms)
    assert _stand_ins(index) == _direct_stand_ins(index)
    # No other row lies inside a chain row, so each chain row's largest
    # strict subset is the row before it, and the supersets of the chain's
    # top are taken from those of every row below it.
    position = {m: i for i, m in enumerate(index.masks)}
    for below, above in zip(chain, chain[1:]):
        inside = [j for j, m in enumerate(index.masks)
                  if m != above and not m & ~above]
        assert inside[0] == position[below]


def _public_stage_outputs(upa, k):
    """Both public stages on one instance: union elimination on the
    candidate catalog, then `lattice_reduce` on each miner's raw output,
    and both stages on a mix of the singleton decomposition and those two,
    where users of one row hold different role sets."""
    cfg = MiningConfig(max_perms_per_role=k)
    yield eliminate_union_roles(*_candidate_catalog(upa), upa)
    raws = [miner(upa, cfg, lattice=False) for miner in (mine_constrained, mine_crm)]
    for d in raws:
        yield lattice_reduce(upa, d, k)
    mixed = mixed_decomposition(upa, (singleton_decomposition(upa), *raws),
                                [u % 3 for u in range(upa.n_users)])
    yield eliminate_union_roles(mixed.roles, mixed.ua, upa)
    yield lattice_reduce(upa, mixed, k)


@pytest.mark.parametrize("k, digest", [
    (2,
     "fcd9bd15668fa15b00dfcdee92511e51becef155cf83eba690ef2807387ce4f2"),
    (5,
     "11d62922122c72d3a5ca82dcd91b9fb59a94a7739dd140a08e3c9633c62173e7"),
    (20,
     "07516e0ea7a9cd2d54fa9113362e95cee6a9337a659093e566ba917bf075c650"),
    (None,
     "342fb93d076e380ea44c5bd5e5fb5df0d68e4949d5ac503d621fa53956a0cff4"),
], ids=["guard-k2", "guard-k5", "guard-k20", "synthetic"])
def test_public_stage_bytes_pinned(k, digest):
    # Guard at k, or (k None) 100 synthetic draws, each at its own k.
    if k is None:
        meta = SplitMix64(2121)
        draws = (synthetic_instance(meta, min_users=5, max_users=80, min_perms=4,
                                    max_perms=40) for _ in range(100))
        instances = [(upa, k) for upa, _, k in draws]
    else:
        instances = [(guard_instance(), k)]
    h = hashlib.sha256()
    for upa, k in instances:
        for d in _public_stage_outputs(upa, k):
            h.update(serialize_decomposition(d).encode())
    assert h.hexdigest() == digest


# --- _split -------------------------------------------------------------------

def _lowest(catalog):
    """Each permission's catalog positions, ascending, of the masks whose
    lowest permission it is, as `_split` keeps them."""
    lowest = {}
    for c, m in enumerate(catalog):
        lowest.setdefault(perm_tuple(m)[0], []).append(c)
    return lowest


def _split_checked(mask, catalog, lowest, k, freq):
    """_split, then a check that its map lists every catalog position
    exactly once, under the mask's lowest permission."""
    positions = _split(mask, catalog, lowest, k, freq)
    assert lowest == _lowest(catalog)
    return positions


def _pieces(candidate, pool, k, freq):
    """_split on permission sets over a catalog of the pool sets: the
    catalog sets taken, then the chunks."""
    catalog = [mask_of(e) for e in pool]
    positions = _split_checked(mask_of(candidate), catalog, _lowest(catalog), k, freq)
    return [frozenset(perm_tuple(catalog[c])) for c in positions]


def test_split_plain_chunks():
    # equal frequencies: order falls back to ascending permission index
    got = _pieces({0, 1, 2, 3, 4}, [], 2, [0] * 5)
    assert got == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]


def test_split_reuses_existing_subset_role():
    got = _pieces({0, 1, 2}, [frozenset({1, 2})], 2, [0] * 3)
    assert got == [frozenset({1, 2}), frozenset({0})]
    assert frozenset().union(*got) == {0, 1, 2}
    assert all(len(s) <= 2 for s in got)


def test_split_pieces_are_disjoint_and_cover():
    # the pool in cover order: largest first, ties by permission tuple
    pool = [frozenset({0, 1}), frozenset({5, 6}), frozenset({2})]
    got = _pieces({0, 1, 2, 3, 4, 5, 6}, pool, 3, [0] * 7)
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
    got = _pieces({0, 2, 4}, [], 2, freq)
    assert got == [frozenset({4, 2}), frozenset({0})]


@st.composite
def _split_cases(draw):
    """A candidate mask, a catalog in which some masks lie inside it and
    some repeat, k, permission frequencies and a shuffle of the catalog."""
    n_perms = draw(st.integers(1, 10))
    masks = st.integers(1, (1 << n_perms) - 1)
    mask = draw(masks)
    inside = masks.map(lambda m: m & mask).filter(bool)
    catalog = draw(st.lists(st.one_of(masks, inside), max_size=16))
    catalog += draw(st.lists(st.sampled_from(catalog), max_size=3)) if catalog else []
    k = draw(st.integers(1, n_perms))
    freq = draw(st.lists(st.integers(0, 4), min_size=n_perms, max_size=n_perms))
    shuffle = draw(st.permutations(range(len(catalog))))
    return mask, catalog, k, freq, shuffle


@settings(max_examples=400, deadline=None)
@given(_split_cases())
def test_split_keeps_its_contract_on_any_catalog(case):
    mask, catalog, k, freq, shuffle = case
    before = list(catalog)
    positions = _split_checked(mask, catalog, _lowest(catalog), k, freq)
    got = [catalog[c] for c in positions]
    # The catalog only grows, and only by the positions returned.
    assert catalog[: len(before)] == before
    fresh = [c for c in positions if c >= len(before)]
    assert fresh == list(range(len(before), len(catalog)))
    if mask.bit_count() <= k:
        assert positions == [len(before)] and catalog[-1] == mask
    else:
        for c in fresh:
            assert catalog[c].bit_count() <= k and catalog[c] not in before
    assert all(c < len(before) for c in positions[: len(positions) - len(fresh)])
    # A mask that is not inside the candidate is never taken.
    assert all(not catalog[c] & ~mask for c in positions)
    # The pieces are disjoint and union to the candidate.
    assert sum(m.bit_count() for m in got) == mask.bit_count()
    assert functools.reduce(operator.or_, got, 0) == mask
    # Read as masks, the pieces do not depend on the catalog's order.
    shuffled = [before[i] for i in shuffle]
    again = _split_checked(mask, shuffled, _lowest(shuffled), k, freq)
    assert [shuffled[c] for c in again] == got


def test_split_never_appends_a_mask_twice_while_mining():
    # The catalog `mine_constrained` grows holds each mask once: every
    # candidate within k is a distinct row visited before any chunk.
    catalogs = []

    def recording(mask, catalog, lowest, k, freq):
        if not catalogs or catalogs[-1] is not catalog:
            catalogs.append(catalog)
        return _split_checked(mask, catalog, lowest, k, freq)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("rolemine.constrained._split", recording)
        for upa, _, k in shape_draws(2727, 30, min_users=5, max_users=60,
                                     min_perms=5, max_perms=30):
            mine_constrained(upa, MiningConfig(max_perms_per_role=k))
            assert len(set(catalogs[-1])) == len(catalogs[-1])
    assert len(catalogs) == 60


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
    for upa, _, k in shape_draws(808, 40, min_users=5, max_users=60,
                                 min_perms=5, max_perms=30):
        cfg = MiningConfig(max_perms_per_role=k)
        d = mine_constrained(upa, cfg)
        assert is_complete(upa, d)
        assert satisfies_constraint(d, k)
        bound = sum(-(-m.bit_count() // k) for m in set(upa.masks))
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
    "k, lattice, r_count, digest",
    [
        (5, False, 314,
         "de3389052f05fd1f7042e3bbac89ecbda0c52e8a1088568f9e0b25dc4cd30f91"),
        (5, True, 282,
         "16a99d50aee39bcb8c40fc0bcb8307c42219aef9a6808fa1f7f7513aff57cad4"),
        (2, False, 611,
         "3bcb7b0d5862da64cb8104b6fadc1b422c6db1325d20af7ee7a65a5c6fd68e5f"),
        (2, True, 575,
         "7baee07cce1e416667df3600e3674ad878cecd028f3352f6666f2fae429b9bc7"),
    ],
)
def test_mine_constrained_bytes_pinned_on_guard_instance(
    k, lattice, r_count, digest
):
    # k=5 is the scale workload's bound: many candidates are split and
    # reuse catalog roles.  k=2 splits almost every candidate, the split's
    # heaviest traffic.
    d = mine_constrained(guard_instance(), MiningConfig(max_perms_per_role=k),
                         lattice=lattice)
    assert d.r_count() == r_count
    assert hashlib.sha256(serialize_decomposition(d).encode()).hexdigest() == digest


@pytest.mark.parametrize("lattice", [True, False])
def test_mine_constrained_bytes_pinned_on_scale_instance(scale_upa, lattice):
    # 20000 x 2000 at k=5, the scale workload's run: union elimination
    # removes 14917 of 15317 candidates, 306 are split, and the lattice
    # removes none of the 988 roles.
    d = mine_constrained(scale_upa, MiningConfig(max_perms_per_role=5),
                         lattice=lattice)
    assert d.r_count() == 988
    assert hashlib.sha256(serialize_decomposition(d).encode()).hexdigest() == (
        "8da72b1c7897215fefd90f6112dfabc00156a34ac917843556433844a890cc1a"
    )


@pytest.mark.parametrize("k, r_count, digest", [
    (2, 2110,
     "376aa319ad77fc6ebb62e7308d013578ebfb0149d622189726668ae0b47cbbe5"),
    (20, 400,
     "32a9c9c6514940a479f259551c1995a493e711c561ac53932f2be203065b1445"),
])
def test_mine_constrained_bytes_pinned_on_scale_instance_at_other_k(
    scale_upa, k, r_count, digest
):
    # k=2 splits 369 of the 400 kept candidates, the split's heaviest
    # traffic; at k=20 none is split, and every kept candidate joins the
    # catalog as itself.
    d = mine_constrained(scale_upa, MiningConfig(max_perms_per_role=k))
    assert d.r_count() == r_count
    assert hashlib.sha256(serialize_decomposition(d).encode()).hexdigest() == digest


# --- the whole pipeline against a plain-set reference -----------------------

def _reference_mine_constrained(upa, k, lattice):
    """The constrained pipeline on plain sets, written from its statement,
    with no masks and no row index.

    1. The distinct nonempty rows, in cover order: size descending, then
       sorted permission tuple.
    2. Union elimination, smallest row first: a row goes iff the greedy
       walk over its strict subsets, in cover order, taking each that meets
       what is left, leaves nothing; its stand-ins are then the union of
       those of the subsets taken, else the row itself.
    3. The split, over the kept rows by (size, smallest user): a row within
       k joins the catalog as itself; a larger one takes the catalog sets
       inside what is left of it, in cover order, then cuts the rest into
       chunks of k by (descending user frequency, index), which join the
       catalog.  A row holds its stand-ins' pieces.
    4. Unless `lattice` is off, one sweep over the catalog in cover order:
       a role goes iff each row holding it covers what its other roles
       leave of it by a walk over the other live roles that fit the row, in
       cover order; each holder then takes its walk's roles.
    """
    users_of = {}
    for u, row in enumerate(upa.rows()):
        if row:
            users_of.setdefault(row, []).append(u)

    def cover_order(ids, sets):
        return sorted(ids, key=lambda i: (-len(sets[i]), sorted(sets[i])))

    def walk(target, ids, sets):
        taken, rest = [], set(target)
        for i in ids:
            if rest and sets[i] & rest:
                taken.append(i)
                rest -= sets[i]
        return taken, rest

    rows = list(users_of)
    rows = [rows[i] for i in cover_order(range(len(rows)), rows)]
    stand_ins = {}
    for r in reversed(range(len(rows))):
        inside = [s for s in range(r + 1, len(rows)) if rows[s] < rows[r]]
        taken, rest = walk(rows[r], inside, rows)
        stand_ins[r] = {r} if rest else set().union(*(stand_ins[s] for s in taken))

    freq = {}
    for row in upa.rows():
        for p in row:
            freq[p] = freq.get(p, 0) + 1
    catalog, pieces = [], {}
    kept = [r for r in range(len(rows)) if r in stand_ins[r]]
    for r in sorted(kept, key=lambda r: (len(rows[r]), users_of[rows[r]][0])):
        if len(rows[r]) <= k:
            reused, chunks = [], [rows[r]]
        else:
            reused, rest = [], set(rows[r])
            for c in cover_order(range(len(catalog)), catalog):
                if catalog[c] <= rest:
                    reused.append(c)
                    rest -= catalog[c]
            left = sorted(rest, key=lambda p: (-freq[p], p))
            chunks = [frozenset(left[i:i + k]) for i in range(0, len(left), k)]
        pieces[r] = reused + list(range(len(catalog), len(catalog) + len(chunks)))
        catalog += chunks
    held = [{c for s in stand_ins[r] for c in pieces[s]} for r in range(len(rows))]

    if lattice:
        live = cover_order(range(len(catalog)), catalog)
        for role in list(live):
            picks = {}
            for r, row in enumerate(rows):
                if role not in held[r]:
                    continue
                others = set().union(*(catalog[c] for c in held[r] if c != role))
                fitting = [c for c in live if c != role and catalog[c] <= row]
                taken, rest = walk(catalog[role] - others, fitting, catalog)
                if rest:
                    break
                picks[r] = taken
            else:
                live.remove(role)
                for r, taken in picks.items():
                    held[r] = held[r] - {role} | set(taken)
    ids = sorted(set().union(*held))
    position = {row: r for r, row in enumerate(rows)}
    return Decomposition(
        roles=tuple(Role(c, catalog[c]) for c in ids),
        ua=tuple(frozenset(held[position[row]]) if row else frozenset()
                 for row in upa.rows()),
    )


@pytest.mark.parametrize("lattice", [True, False])
def test_mine_constrained_matches_plain_set_reference_on_shape_draws(lattice):
    for upa, _, _ in shape_draws(4242, 60):
        for k in sorted({1, 2, 3, 5, upa.max_row_size() or 1}):
            cfg = MiningConfig(max_perms_per_role=k)
            assert mine_constrained(upa, cfg, lattice=lattice) == (
                _reference_mine_constrained(upa, k, lattice))


@pytest.mark.parametrize("k", [2, 5, 20])
@pytest.mark.parametrize("lattice", [True, False])
def test_mine_constrained_matches_plain_set_reference_on_guard(lattice, k):
    # The reference takes about 0.2 s per call on guard.
    upa = guard_instance()
    cfg = MiningConfig(max_perms_per_role=k)
    assert mine_constrained(upa, cfg, lattice=lattice) == (
        _reference_mine_constrained(upa, k, lattice))
