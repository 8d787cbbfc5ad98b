import dataclasses
import gc
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemine import (
    AccessMatrix,
    Decomposition,
    InvalidDecompositionError,
    MiningConfig,
    Role,
    is_complete,
    mine_constrained,
    mine_crm,
    satisfies_constraint,
    serialize_decomposition,
    singleton_decomposition,
)
from rolemine._rowindex import RowIndex, cover, cover_key, row_groups
from rolemine.model import mask_of, perm_tuple
from rolemine.rng import SplitMix64

from conftest import guard_instance, synthetic_instance


# --- bitmask helpers ---------------------------------------------------------

def test_mask_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert perm_tuple(0b101001) == (0, 3, 5)
    assert perm_tuple(0) == ()
    assert perm_tuple(0b110) == (1, 2)
    assert perm_tuple(1 << 5000 | 1 << 17 | 1) == (0, 17, 5000)


# --- AccessMatrix ------------------------------------------------------------

def test_matrix_from_rows_dedups_and_infers_width():
    upa = AccessMatrix.from_rows([[1, 1, 0], [2]])
    assert upa.n_users == 2
    assert upa.n_perms == 3
    assert upa.row(0) == {0, 1}
    assert upa.row(1) == {2}


def test_matrix_rejects_out_of_range_permission():
    with pytest.raises(ValueError):
        AccessMatrix(n_users=1, n_perms=2, masks=(0b100,))


def test_matrix_rejects_row_count_mismatch():
    with pytest.raises(ValueError):
        AccessMatrix(n_users=2, n_perms=2, masks=(0b01,))


def test_empty_rows_are_legal():
    upa = AccessMatrix.from_rows([[], [0]])
    assert upa.row(0) == frozenset()
    assert upa.cell_count() == 1
    assert upa.max_row_size() == 1


# --- Role / Decomposition invariants ----------------------------------------

def test_role_requires_nonempty_perms():
    with pytest.raises(ValueError):
        Role(0, frozenset())


def test_role_equality_hash_and_repr_see_id_and_perms():
    role = Role(4, [1, 3])
    assert role == Role(4, frozenset({1, 3}))
    assert hash(role) == hash(Role(4, frozenset({1, 3})))
    assert repr(role) == "Role(id=4, perms=frozenset({1, 3}))"


def test_decomposition_rejects_dangling_role_id():
    with pytest.raises(InvalidDecompositionError):
        Decomposition(roles=(Role(0, frozenset({1})),), ua=(frozenset({5}),))


def test_decomposition_names_the_first_user_with_a_dangling_id():
    with pytest.raises(InvalidDecompositionError,
                       match=r"^user 1 references unknown role ids \[5, 7\]$"):
        Decomposition(
            roles=(Role(0, frozenset({1})),),
            ua=(frozenset({0}), frozenset({7, 0, 5}), frozenset({9})),
        )


def test_decomposition_rejects_orphan_role():
    with pytest.raises(InvalidDecompositionError):
        Decomposition.from_sets([{0}, {1}], [{0}])


def test_decomposition_rejects_duplicate_perm_sets():
    with pytest.raises(InvalidDecompositionError):
        Decomposition.from_sets([{0, 1}, {1, 0}], [{0, 1}])


def test_decomposition_size_accessors():
    d = Decomposition.from_sets([{0, 1}, {2}], [{0}, {0, 1}])
    assert d.r_count() == 2
    assert d.ua_size() == 3
    assert d.pa_size() == 3


# --- is_complete -------------------------------------------------------------

def test_complete_single_role_exact_cover():
    upa = AccessMatrix.from_rows([{0, 1}])
    d = Decomposition.from_sets([{0, 1}], [{0}])
    assert is_complete(upa, d)


def test_incomplete_under_cover():
    upa = AccessMatrix.from_rows([{0, 1}])
    d = Decomposition.from_sets([{0}], [{0}])
    assert not is_complete(upa, d)


def test_over_assignment_violates_set_equality():
    upa = AccessMatrix.from_rows([{0}], n_perms=2)
    d = Decomposition.from_sets([{0, 1}], [{0}])
    assert not is_complete(upa, d)


def test_is_complete_flags_structural_mismatch():
    upa = AccessMatrix.from_rows([{0}, {0}])
    d = Decomposition.from_sets([{0}], [{0}])
    with pytest.raises(InvalidDecompositionError):
        is_complete(upa, d)  # ua covers one user, matrix has two


def test_is_complete_invariant_under_role_id_permutation():
    upa = AccessMatrix.from_rows([{0, 1}, {0}])
    d1 = Decomposition(
        roles=(Role(7, frozenset({0})), Role(3, frozenset({1}))),
        ua=(frozenset({7, 3}), frozenset({7})),
    )
    d2 = Decomposition(
        roles=(Role(0, frozenset({1})), Role(1, frozenset({0}))),
        ua=(frozenset({0, 1}), frozenset({1})),
    )
    assert is_complete(upa, d1) and is_complete(upa, d2)


# --- satisfies_constraint ----------------------------------------------------

def test_constraint_examples():
    d = Decomposition.from_sets([{0, 1}, {2}], [{0, 1}])
    assert satisfies_constraint(d, 2)
    d3 = Decomposition.from_sets([{0, 1, 2}], [{0}])
    assert not satisfies_constraint(d3, 2)
    assert satisfies_constraint(Decomposition.empty(3), 1)  # vacuous


# --- row_groups and the row index's order ------------------------------------

def test_distinct_rows_groups_identical_rows():
    upa = AccessMatrix.from_rows([{0, 1}, {2}, {0, 1}])
    assert row_groups(upa) == [(0b011, [0, 2]), (0b100, [1])]


def test_distinct_rows_leaves_out_empty_rows():
    upa = AccessMatrix.from_rows([[], [0], []])
    assert row_groups(upa) == [(0b1, [1])]
    ua = [frozenset(), frozenset({0}), frozenset()]
    assert row_groups(upa, ua) == [(0b1, [1])]


def test_distinct_rows_all_distinct():
    # groups in first-user order; the index sorts them
    upa = AccessMatrix.from_rows([{1}, {0}, {0, 2}, {0, 1}])
    assert row_groups(upa) == [(0b010, [0]), (0b001, [1]), (0b101, [2]), (0b011, [3])]
    # size descending, then permission tuple
    index = RowIndex(row_groups(upa), upa.n_perms)
    assert [perm_tuple(m) for m in index.masks] == [(0, 1), (0, 2), (0,), (1,)]
    assert index.users == ((3,), (2,), (1,), (0,))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=7), max_size=8), max_size=8
    )
)
def test_distinct_rows_partitions_users(rows):
    upa = AccessMatrix.from_rows(rows, n_perms=8)
    groups = row_groups(upa)
    members = [u for _, users in groups for u in users]
    assert sorted(members) == [u for u in range(upa.n_users) if upa.masks[u]]
    assert len(members) == len(set(members))
    for mask, users in groups:
        assert all(upa.masks[u] == mask for u in users)
    firsts = [users[0] for _, users in groups]
    assert firsts == sorted(firsts)
    index = RowIndex(row_groups(upa), upa.n_perms)
    assert sorted(zip(index.masks, index.users)) == sorted(
        (m, tuple(users)) for m, users in groups
    )
    keys = [(-m.bit_count(), perm_tuple(m)) for m in index.masks]
    assert keys == sorted(set(keys))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=130).flatmap(
        lambda width: st.sets(
            st.sets(st.integers(min_value=0, max_value=width - 1),
                    min_size=1, max_size=6).map(mask_of),
            max_size=12,
        )
    )
)
def test_cover_key_orders_masks_as_their_permission_tuples(masks):
    # Widths up to 130 draw masks of one size but different byte lengths,
    # and masks of one size that first differ within one byte.
    for a in masks:
        for b in masks:
            by_tuple = (-a.bit_count(), perm_tuple(a)) < (-b.bit_count(), perm_tuple(b))
            assert (cover_key(a) < cover_key(b)) == by_tuple


def test_distinct_rows_keyed_by_role_set_splits_a_row():
    # users 0 and 2 share row {0, 1} but hold different roles
    upa = AccessMatrix.from_rows([{0, 1}, {2}, {0, 1}, {0, 1}])
    ua = [frozenset({5}), frozenset({7}), frozenset({3, 4}), frozenset({5})]
    assert row_groups(upa, ua) == [(0b011, [0, 3]), (0b100, [1]), (0b011, [2])]
    index = RowIndex(row_groups(upa, ua), upa.n_perms)
    assert index.masks == (0b011, 0b011, 0b100)
    assert index.users == ((0, 3), (2,), (1,))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sets(st.integers(min_value=0, max_value=5), max_size=6),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=10,
    )
)
def test_distinct_rows_keyed_groups_share_one_row(drawn):
    # the key is (row, choice), so it fixes the row as a role set does
    upa = AccessMatrix.from_rows([row for row, _ in drawn], n_perms=6)
    keys = [(m, choice) for m, (_, choice) in zip(upa.masks, drawn)]
    groups = row_groups(upa, keys)
    members = [u for _, users in groups for u in users]
    assert sorted(members) == [u for u in range(upa.n_users) if upa.masks[u]]
    for mask, users in groups:
        assert all(upa.masks[u] == mask for u in users)
        assert len({keys[u] for u in users}) == 1
    assert len({keys[users[0]] for _, users in groups}) == len(groups)
    firsts = [users[0] for _, users in groups]
    assert firsts == sorted(firsts)
    # The index sorts by row alone: groups of one row keep first-user order.
    index = RowIndex(row_groups(upa, keys), upa.n_perms)
    order = [(-m.bit_count(), perm_tuple(m), users[0])
             for m, users in zip(index.masks, index.users)]
    assert order == sorted(order)
    assert sorted(index.users) == sorted(tuple(users) for _, users in groups)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sets(st.integers(0, 7), max_size=8), max_size=14),
    st.sets(st.integers(0, 7), min_size=1),
)
def test_row_index_containing_names_the_rows_holding_a_set(rows, wanted):
    index = RowIndex(row_groups(AccessMatrix.from_rows(rows, n_perms=8)), 8)
    s = mask_of(wanted)
    holding = [i for i, m in enumerate(index.masks) if s & ~m == 0]
    assert index.containing(s) == mask_of(holding)
    # Within the positions before j: the rows before j holding the set, and
    # none holding row j iff no other distinct row contains row j.
    for j, m in enumerate(index.masks):
        before = (1 << j) - 1
        assert index.containing(s, before) == index.containing(s) & before
        alone = all(m & ~other for i, other in enumerate(index.masks) if i != j)
        assert (index.containing(m, before) == 0) == alone


@settings(max_examples=300, deadline=None)
@given(st.data(), st.booleans())
def test_row_index_columns_and_freq_match_the_rows(data, keyed):
    # Up to 70 positions span nine bytes of a column and up to 70
    # permissions nine bytes of a row, the last bytes often partial, and
    # the row count is rarely a multiple of 8.  Keyed groups repeat rows.
    n_perms = data.draw(st.integers(min_value=0, max_value=70))
    perms = st.sets(st.integers(min_value=0, max_value=max(n_perms - 1, 0)),
                    max_size=min(n_perms, 12))
    drawn = data.draw(st.lists(
        st.tuples(perms, st.integers(min_value=0, max_value=2)), max_size=70
    ))
    upa = AccessMatrix.from_rows([row for row, _ in drawn], n_perms=n_perms)
    keys = [(m, c) for m, (_, c) in zip(upa.masks, drawn)] if keyed else None
    index = RowIndex(row_groups(upa, keys), upa.n_perms)
    assert len(index.columns) == len(index.freq) == upa.n_perms
    for p in range(upa.n_perms):
        holding = [i for i, m in enumerate(index.masks) if m >> p & 1]
        assert index.columns[p] == mask_of(holding)
        assert index.freq[p] == sum(len(index.users[i]) for i in holding)
        assert index.freq[p] == sum(m >> p & 1 for m in upa.masks)


def test_row_index_of_no_rows():
    assert _fields(RowIndex([], 0)) == {
        "masks": (), "users": (), "columns": (), "freq": ()}
    assert _fields(RowIndex([], 9)) == {
        "masks": (), "users": (), "columns": (0,) * 9, "freq": (0,) * 9}


def test_row_index_fields_pinned_on_guard_instance():
    # 1626 rows (2 past a multiple of 8), 500 permissions (4 past one) and
    # 124 rows of several users: a slip in the columns or frequencies that
    # moves no decomposition still changes this digest.
    index = RowIndex(row_groups(guard_instance()), 500)
    assert (len(index.masks), sum(len(users) > 1 for users in index.users)) == (1626, 124)
    text = "\n".join([
        " ".join(map(hex, index.masks)), repr(index.users),
        " ".join(map(hex, index.columns)), repr(index.freq),
    ])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c2c12d37b7591f50547abd86d818997e8084b959b484491ca48d640a4c20e1f7"
    )


# --- the matrix's cached row index -------------------------------------------

MINERS = (mine_constrained, mine_crm)


def _fields(index):
    return {name: getattr(index, name) for name in RowIndex.__slots__}


def _mine_everywhere(upa):
    """Both miners, lattice on and off, at k in {1, 2, 5, 20, max row}."""
    for k in sorted({1, 2, 5, 20, max(1, upa.max_row_size())}):
        for miner in MINERS:
            for lattice in (True, False):
                miner(upa, MiningConfig(max_perms_per_role=k), lattice=lattice)


def test_cover_skips_i_and_stops_once_the_rest_is_empty():
    masks = [0b0111, 0b0011, 0b0100, 0b1000, 0b0001]
    # Role 0 meets the rest but is skipped; 4 meets nothing left once 1 is
    # taken; 2 empties the rest, so 3 is never read.
    order = iter([0, 1, 4, 2, 3])
    assert cover(0, 0b0111, order, masks) == ([1, 2], 0)
    assert list(order) == [3]


def test_cover_returns_what_it_cannot_cover():
    masks = [0b0111, 0b0011, 0b0100, 0b1000, 0b0001]
    assert cover(0, 0b1111, [0, 1, 4], masks) == ([1], 0b1100)
    assert cover(3, 0b1000, [0, 1, 2, 3, 4], masks) == ([], 0b1000)


def test_cover_of_an_empty_rest_reads_no_order():
    def unread():
        raise AssertionError("cover read `order` for an empty rest")
        yield

    assert cover(0, 0, unread(), [0b1]) == ([], 0)


def test_mining_leaves_the_cached_index_as_built():
    meta = SplitMix64(1616)
    instances = [guard_instance()]
    instances += [synthetic_instance(meta, max_users=80, max_perms=40)[0]
                  for _ in range(15)]
    for upa in instances:
        _mine_everywhere(upa)
        cached = upa._row_index
        # Each row once, as its mask: no permission tuple outlives the build.
        assert RowIndex.__slots__ == ("masks", "users", "columns", "freq")
        assert _fields(cached) == _fields(RowIndex(row_groups(upa), upa.n_perms))
        # Tuples all through: no consumer can change the index in place.
        for name, value in _fields(cached).items():
            assert type(value) is tuple, name
        assert all(type(group) is tuple for group in cached.users)
        _mine_everywhere(upa)
        assert upa._row_index is cached


@pytest.mark.parametrize("miner", MINERS)
def test_warm_and_cold_matrices_mine_the_same_bytes(miner):
    meta = SplitMix64(2727)
    instances = [(guard_instance(), 5)]
    instances += [synthetic_instance(meta, max_users=80, max_perms=40)[::2]
                  for _ in range(10)]
    for upa, k in instances:
        cfg = MiningConfig(max_perms_per_role=k)
        seen = (upa == AccessMatrix(upa.n_users, upa.n_perms, upa.masks),
                hash(upa), repr(upa), dataclasses.fields(AccessMatrix))
        cold = serialize_decomposition(miner(upa, cfg))
        warm = serialize_decomposition(miner(upa, cfg))
        fresh = AccessMatrix(upa.n_users, upa.n_perms, upa.masks)
        assert warm == cold == serialize_decomposition(miner(fresh, cfg))
        # The cache is no field: equality, hash and repr do not see it.
        assert seen == (upa == fresh, hash(upa), repr(upa),
                        dataclasses.fields(AccessMatrix))


def _tracked_once_settled() -> int:
    """The number of collector-tracked objects once another collection no
    longer changes it."""
    last = None
    for _ in range(10):
        gc.collect()
        count = len(gc.get_objects())
        if count == last:
            return count
        last = count
    raise AssertionError("the tracked-object count did not settle")


def test_cached_indexes_hold_few_collector_tracked_objects():
    # 300 instances drawn as the corpus benchmark draws them.  A collection
    # untracks a tuple whose items are untracked when it reaches the tuple,
    # so an index's tuple of user tuples, reached before its items, waits
    # for a later collection.  Once collections settle, a cached index
    # costs the collector its own object and the matrix's attribute dict,
    # however many rows it has.
    meta = SplitMix64(99)
    instances = [synthetic_instance(meta)[::2] for _ in range(300)]
    before = _tracked_once_settled()
    for upa, k in instances:
        for miner in MINERS:
            miner(upa, MiningConfig(max_perms_per_role=k))
    assert _tracked_once_settled() - before <= 2 * len(instances)


# --- feasibility witness -----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=9), max_size=10), max_size=10
    ),
)
def test_singleton_decomposition_is_always_feasible(rows):
    upa = AccessMatrix.from_rows(rows, n_perms=10)
    d = singleton_decomposition(upa)
    assert is_complete(upa, d)
    assert satisfies_constraint(d, 1)  # and therefore any k >= 1


@pytest.mark.parametrize("build, error, message", [
    (lambda: AccessMatrix(n_users=-1, n_perms=0, masks=()),
     ValueError, "n_users and n_perms must be nonnegative"),
    (lambda: AccessMatrix(n_users=0, n_perms=-1, masks=()),
     ValueError, "n_users and n_perms must be nonnegative"),
    (lambda: Role(3, frozenset({2, -1})),
     ValueError, "role 3 has a negative permission index"),
    (lambda: Decomposition((Role(0, {0}), Role(0, {1})), (frozenset({0}),)),
     InvalidDecompositionError, "duplicate role ids"),
    (lambda: MiningConfig(max_perms_per_role=1, wsc_weights=(1, 1)),
     ValueError, "wsc_weights must have exactly three entries"),
    (lambda: is_complete(
        AccessMatrix.from_rows([{0}], n_perms=2),
        Decomposition.from_sets([{0, 2}], [{0}])),
     InvalidDecompositionError, r"role 0 references a permission >= n_perms \(2\)"),
])
def test_model_input_checks_raise_with_message(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


# --- MiningConfig ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        MiningConfig(max_perms_per_role=0)
    with pytest.raises(ValueError):
        MiningConfig(max_perms_per_role=1, wsc_weights=(-1, 0, 0))
    with pytest.raises(ValueError):
        MiningConfig(max_perms_per_role=1, seed=1 << 64)
    cfg = MiningConfig(max_perms_per_role=3, wsc_weights=(1, 2, 3), seed=42)
    assert cfg.wsc_weights[2] == 3
