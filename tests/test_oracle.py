import hashlib
from itertools import combinations

import pytest

from rolemine import (
    AccessMatrix,
    Decomposition,
    InstanceTooLargeError,
    is_complete,
    optimal_role_count,
    satisfies_constraint,
    serialize_decomposition,
)
from rolemine.model import perm_tuple

from conftest import tiny_instance


def exhaustive_minimum(upa: AccessMatrix, k: int) -> int:
    """Fully independent check: try every catalog of masks of size <= k."""
    rows = [m for m in upa.masks if m]
    if not rows:
        return 0
    n_perms = upa.n_perms
    pool = [m for m in range(1, 1 << n_perms) if m.bit_count() <= k]
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            ok = True
            for row in rows:
                union = 0
                for c in combo:
                    if c & ~row == 0:
                        union |= c
                if union != row:
                    ok = False
                    break
            if ok:
                return size
    raise AssertionError("singletons always cover")


def test_identity_three_by_three():
    upa = AccessMatrix.from_rows([{0}, {1}, {2}])
    count, witness = optimal_role_count(upa, 3)
    assert count == 3
    assert is_complete(upa, witness)


def test_duplicate_rows_need_one_role():
    upa = AccessMatrix.from_rows([{0, 1}, {0, 1}])
    count, witness = optimal_role_count(upa, 2)
    assert count == 1
    assert satisfies_constraint(witness, 2)


def test_overlapping_rows_exhaustively_verified():
    upa = AccessMatrix.from_rows([{0, 1}, {1, 2}, {0, 1, 2}])
    count, witness = optimal_role_count(upa, 2)
    assert count == 2
    assert exhaustive_minimum(upa, 2) == 2
    assert {r.perms for r in witness.roles} == {frozenset({0, 1}), frozenset({1, 2})}
    assert is_complete(upa, witness)


def test_empty_matrix():
    upa = AccessMatrix.from_rows([[], []], n_perms=3)
    count, witness = optimal_role_count(upa, 1)
    assert count == 0
    assert is_complete(upa, witness)


@pytest.mark.parametrize("n_users, n_perms", [(0, 0), (0, 3), (2, 0), (2, 3)])
@pytest.mark.parametrize("k", [1, 2])
def test_empty_matrix_witness_is_the_empty_decomposition(n_users, n_perms, k):
    upa = AccessMatrix(n_users=n_users, n_perms=n_perms, masks=(0,) * n_users)
    assert optimal_role_count(upa, k) == (0, Decomposition.empty(n_users))


@pytest.mark.parametrize("k", [0, -1])
def test_oracle_rejects_k_below_one(k):
    upa = AccessMatrix.from_rows([{0}])
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        optimal_role_count(upa, k)


def test_guard_on_permission_count():
    upa = AccessMatrix.from_rows([{0, 6}])
    with pytest.raises(InstanceTooLargeError):
        optimal_role_count(upa, 2)


def test_guard_on_distinct_rows():
    rows = [{i} for i in range(6)] + [{0, 1}]
    upa = AccessMatrix.from_rows(rows)
    with pytest.raises(InstanceTooLargeError):
        optimal_role_count(upa, 2)


def test_matches_exhaustive_search_on_random_tiny_instances():
    # exhaustive_minimum enumerates all catalogs, so cap the universe at 4
    # permissions to keep it honest but affordable
    checked = 0
    for i in range(60):
        upa, k = tiny_instance(90_000 + i)
        if upa.n_perms > 4:
            continue
        checked += 1
        count, witness = optimal_role_count(upa, k)
        assert count == exhaustive_minimum(upa, k)
        assert is_complete(upa, witness)
        assert satisfies_constraint(witness, k)
    assert checked >= 10


def test_monotone_non_increasing_in_k():
    for i in range(15):
        upa, _ = tiny_instance(70_000 + i)
        top = upa.max_row_size()
        counts = [optimal_role_count(upa, k)[0] for k in range(1, top + 1)]
        assert counts == sorted(counts, reverse=True)


def test_k1_needs_one_role_per_used_permission():
    upa = AccessMatrix.from_rows([{0, 1}, {1, 2}])
    count, _ = optimal_role_count(upa, 1)
    used = set()
    for m in upa.masks:
        used.update(perm_tuple(m))
    assert count == len(used)


def test_witness_bytes_pinned_on_criterion_2_instances():
    # SHA-256 over the serialized witnesses of acceptance criterion 2's 200
    # tiny instances, pinned before the witness was built through
    # witness_assignment.
    h = hashlib.sha256()
    for i in range(200):
        upa, k = tiny_instance(31_000 + i)
        h.update(serialize_decomposition(optimal_role_count(upa, k)[1]).encode())
    assert h.hexdigest() == (
        "c9ccd914707d2340484cd367de5c023f17230ecce84c03be6359942faf2170d9"
    )
