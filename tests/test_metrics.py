from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolemine import (
    AccessMatrix,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    accuracy_distance,
    jaccard,
    measure,
    mine_constrained,
    mine_crm,
    optimal_role_count,
    role_lower_bound,
)
from rolemine.model import mask_of

from conftest import tiny_instance


def test_measure_counts_and_wsc():
    upa = AccessMatrix.from_rows([{0, 1}] * 3)
    d = Decomposition.from_sets([{0, 1}], [{0}, {0}, {0}])
    cfg = MiningConfig(max_perms_per_role=2)
    report = measure(upa, d, cfg)
    assert (report.r_count, report.ua_size, report.pa_size) == (1, 3, 2)
    assert report.wsc == 6
    assert report.accuracy is None and report.distance is None


def test_measure_empty_everything():
    upa = AccessMatrix.from_rows([], n_perms=0)
    report = measure(upa, Decomposition.empty(0), MiningConfig(max_perms_per_role=1))
    assert (report.r_count, report.ua_size, report.pa_size) == (0, 0, 0)
    assert report.wsc == 0


def test_measure_rejects_incomplete():
    upa = AccessMatrix.from_rows([{0, 1}])
    d = Decomposition.from_sets([{0}], [{0}])
    with pytest.raises(IncompleteDecompositionError):
        measure(upa, d, MiningConfig(max_perms_per_role=2))


def test_measure_perfect_truth_match():
    upa = AccessMatrix.from_rows([{0, 1}])
    d = Decomposition.from_sets([{0, 1}], [{0}])
    report = measure(upa, d, MiningConfig(max_perms_per_role=2),
                     truth=[frozenset({0, 1})])
    assert report.accuracy == 1
    assert report.distance == 0


def test_wsc_weights_r_only_equals_r_count():
    upa = AccessMatrix.from_rows([{0}, {1}])
    d = Decomposition.from_sets([{0}, {1}], [{0}, {1}])
    cfg = MiningConfig(max_perms_per_role=1, wsc_weights=(1, 0, 0))
    assert measure(upa, d, cfg).wsc == 2


def test_wsc_exact_rational_weights():
    upa = AccessMatrix.from_rows([{0}])
    d = Decomposition.from_sets([{0}], [{0}])
    cfg = MiningConfig(max_perms_per_role=1,
                       wsc_weights=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    assert measure(upa, d, cfg).wsc == 1  # (1 + 1 + 1) / 3, exactly


# --- accuracy / distance -----------------------------------------------------

def test_accuracy_identical_catalogs():
    cat = [frozenset({0, 1}), frozenset({2})]
    assert accuracy_distance(cat, cat) == (1, 0)


def test_accuracy_extra_mined_roles_do_not_hurt():
    acc, dist = accuracy_distance([frozenset({0, 1}), frozenset({2})],
                                  [frozenset({0, 1})])
    assert acc == 1
    assert dist == 0


def test_accuracy_unmatched_truth_role():
    # Jaccard({2,3}, {0,1}) = 0, so that role contributes a full unit
    acc, dist = accuracy_distance([frozenset({0, 1})],
                                  [frozenset({0, 1}), frozenset({2, 3})])
    assert acc == Fraction(1, 2)
    assert dist == Fraction(1, 2)


def test_accuracy_partial_overlap_distance():
    # best Jaccard for truth {0,1,2} against mined {0,1} is 2/3
    _, dist = accuracy_distance([frozenset({0, 1})], [frozenset({0, 1, 2})])
    assert dist == Fraction(1, 3)


def test_accuracy_rejects_empty_catalogs():
    with pytest.raises(ValueError):
        accuracy_distance([], [frozenset({0})])
    with pytest.raises(ValueError):
        accuracy_distance([frozenset({0})], [])


def test_jaccard_basics():
    assert jaccard(frozenset({0, 1}), frozenset({1, 2})) == Fraction(1, 3)
    assert jaccard(frozenset({0}), frozenset({0})) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
             min_size=1, max_size=5, unique_by=frozenset),
    st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4),
             min_size=1, max_size=5, unique_by=frozenset),
)
def test_accuracy_distance_stay_in_unit_interval(mined, truth):
    acc, dist = accuracy_distance([frozenset(s) for s in mined],
                                  [frozenset(s) for s in truth])
    assert 0 <= acc <= 1
    assert 0 <= dist <= 1
    if acc == 1:
        exact = {frozenset(s) for s in mined}
        assert all(frozenset(t) in exact for t in truth)



def _reference_accuracy_distance(mined, truth):
    total = sum(1 - max(jaccard(t, m) for m in mined) for t in truth)
    matched = sum(1 for t in truth if t in set(mined))
    return Fraction(matched, len(truth)), Fraction(total) / len(truth)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(-2, 9), max_size=6), min_size=1,
             max_size=8),
    st.lists(st.frozensets(st.integers(-2, 9), max_size=6), min_size=1,
             max_size=8),
)
def test_accuracy_distance_matches_pairwise_jaccard(mined, truth):
    got = accuracy_distance(mined, truth)
    want = _reference_accuracy_distance(mined, truth)
    assert got == want
    assert tuple(map(str, got)) == tuple(map(str, want))


def _double_loop_accuracy_distance(mined, truth):
    """Every truth role against every mined role, bitmasks over a local
    index: the implementation before mined roles were indexed by
    permission."""
    mined_sets = [frozenset(s) for s in mined]
    truth_sets = [frozenset(s) for s in truth]
    mined_lookup = set(mined_sets)
    matched = sum(1 for t in truth_sets if t in mined_lookup)
    bit = {p: i for i, p in enumerate(frozenset().union(*mined_sets, *truth_sets))}
    mined_masks = [(mask_of(bit[p] for p in m), len(m)) for m in mined_sets]
    total = Fraction(0)
    for t in truth_sets:
        tm, tn = mask_of(bit[p] for p in t), len(t)
        best_inter, best_union = 0, 1
        for mm, mn in mined_masks:
            inter = (tm & mm).bit_count()
            union = tn + mn - inter
            if not union:
                best_inter = best_union = 1
                break
            if inter * best_union > best_inter * union:
                best_inter, best_union = inter, union
        total += 1 - Fraction(best_inter, best_union)
    n = len(truth_sets)
    return Fraction(matched, n), total / n


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(-3, 12), max_size=7), min_size=1,
             max_size=12),
    st.lists(st.frozensets(st.integers(-3, 12), max_size=7), min_size=1,
             max_size=12),
    st.lists(st.booleans(), max_size=12),
)
def test_accuracy_distance_matches_the_double_loop(mined, truth, copy):
    # Copying some truth roles into the mined catalog makes exact matches,
    # the empty role included.
    mined = mined + [t for t, c in zip(truth, copy) if c]
    got = accuracy_distance(mined, truth)
    want = _double_loop_accuracy_distance(mined, truth)
    assert tuple(map(str, got)) == tuple(map(str, want))

# --- permutation invariance --------------------------------------------------

def test_measure_invariant_under_index_permutations():
    rows = [{0, 1}, {1, 2}, {0, 1}]
    upa = AccessMatrix.from_rows(rows)
    d = Decomposition.from_sets([{0, 1}, {1, 2}], [{0}, {1}, {0}])
    cfg = MiningConfig(max_perms_per_role=2, wsc_weights=(2, 1, 3))
    base = measure(upa, d, cfg)

    perm_map = {0: 2, 1: 0, 2: 1}
    user_order = [2, 0, 1]
    upa2 = AccessMatrix.from_rows(
        [{perm_map[p] for p in rows[u]} for u in user_order], n_perms=3
    )
    d2 = Decomposition.from_sets(
        [{perm_map[0], perm_map[1]}, {perm_map[1], perm_map[2]}],
        [d.ua[u] for u in user_order],
    )
    other = measure(upa2, d2, cfg)
    assert (base.r_count, base.ua_size, base.pa_size, base.wsc) == (
        other.r_count, other.ua_size, other.pa_size, other.wsc
    )


def test_report_serialization_shape():
    upa = AccessMatrix.from_rows([{0}])
    d = Decomposition.from_sets([{0}], [{0}])
    cfg = MiningConfig(max_perms_per_role=1, seed=42)
    report = measure(upa, d, cfg, truth=[frozenset({0})],
                     elapsed_ms=1.5, algorithm="crm", dataset="toy")
    blob = report.to_json_dict()
    assert tuple(blob) == (
        "r_count", "ua_size", "pa_size", "wsc", "accuracy", "distance",
        "elapsed_ms", "algorithm", "k", "dataset", "seed",
    )
    assert blob["wsc"] == "3"
    assert blob["accuracy"] == "1"
    assert blob["seed"] == 42


def test_role_lower_bound_is_the_largest_row_over_k():
    upa = AccessMatrix.from_rows([{0}, {0, 1, 2, 3, 4}, set(), {1, 2}])
    assert [role_lower_bound(upa, k) for k in (1, 2, 3, 5, 9)] == [5, 3, 2, 1, 1]
    assert role_lower_bound(AccessMatrix(n_users=0, n_perms=0, masks=()), 3) == 0
    assert role_lower_bound(AccessMatrix.from_rows([set(), set()]), 1) == 0
    with pytest.raises(ValueError):
        role_lower_bound(upa, 0)


def test_role_lower_bound_below_oracle_and_both_miners():
    # Criterion 2's instances: the bound never exceeds the exact optimum,
    # which never exceeds what either miner finds.
    for i in range(200):
        upa, k = tiny_instance(31_000 + i)
        bound = role_lower_bound(upa, k)
        optimum, _ = optimal_role_count(upa, k)
        assert bound <= optimum, i
        cfg = MiningConfig(max_perms_per_role=k)
        for miner in (mine_constrained, mine_crm):
            for lattice in (False, True):
                assert bound <= miner(upa, cfg, lattice=lattice).r_count(), i
