import hashlib
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rolemine.crm
from rolemine import (
    AccessMatrix,
    Decomposition,
    IncompleteDecompositionError,
    MiningConfig,
    Role,
    is_complete,
    lattice_reduce,
    mine_constrained,
    mine_crm,
    satisfies_constraint,
    serialize_decomposition,
)
from rolemine.model import mask_of, perm_tuple
from rolemine.rng import SplitMix64

from conftest import guard_instance, shape_draws, synthetic_instance


def test_crm_picks_most_popular_cluster_first():
    # hand simulation: cluster {0,1} has two users, so it is selected first,
    # then the remaining cluster {2}
    upa = AccessMatrix.from_rows([{0, 1}, {0, 1}, {2}])
    d = mine_crm(upa, MiningConfig(max_perms_per_role=2), lattice=False)
    assert [r.perms for r in d.roles] == [frozenset({0, 1}), frozenset({2})]
    assert d.ua[0] == {0} and d.ua[1] == {0} and d.ua[2] == {1}


def test_crm_identity_k1():
    upa = AccessMatrix.from_rows([{0}, {1}])
    d = mine_crm(upa, MiningConfig(max_perms_per_role=1))
    assert d.r_count() == 2
    assert all(len(r.perms) == 1 for r in d.roles)


def test_crm_truncation_by_uncovered_frequency():
    # hand simulation: all three permissions appear once among uncovered
    # cells, so truncation keeps the two with the lowest indices; the rest
    # is picked up on the next round
    upa = AccessMatrix.from_rows([{0, 1, 2}])
    d = mine_crm(upa, MiningConfig(max_perms_per_role=2), lattice=False)
    assert [r.perms for r in d.roles] == [frozenset({0, 1}), frozenset({2})]


def test_crm_assigns_role_to_superset_users_outside_cluster():
    # {0,1} is picked for its two-user cluster and also covers those cells
    # of the {0,1,2} user
    upa = AccessMatrix.from_rows([{0, 1}, {0, 1}, {0, 1, 2}])
    d = mine_crm(upa, MiningConfig(max_perms_per_role=3), lattice=False)
    assert d.roles[0].perms == {0, 1}
    assert 0 in d.ua[2]


@pytest.mark.parametrize("lattice", [True, False])
def test_crm_rejects_a_greedy_result_that_leaves_a_row_uncovered(monkeypatch, lattice):
    # The per-row check after the greedy loop, with the lattice on or off:
    # drop one role from the first row's set, so that row's roles no longer
    # union to its mask.
    greedy = rolemine.crm._greedy

    def dropping(masks, index, held, k):
        greedy(masks, index, held, k)
        held[0].remove(min(held[0]))

    monkeypatch.setattr(rolemine.crm, "_greedy", dropping)
    upa = AccessMatrix.from_rows([{0, 1, 2}, {0, 1}, {2}, {0, 1, 2}])
    with pytest.raises(IncompleteDecompositionError, match="uncovered"):
        mine_crm(upa, MiningConfig(max_perms_per_role=2), lattice=lattice)


def test_crm_complete_constrained_deterministic_on_random_instances():
    for upa, _, k in shape_draws(606, 40, min_users=5, max_users=60,
                                 min_perms=5, max_perms=30):
        cfg = MiningConfig(max_perms_per_role=k)
        d = mine_crm(upa, cfg)
        assert is_complete(upa, d)
        assert satisfies_constraint(d, k)
        assert serialize_decomposition(mine_crm(upa, cfg)) == serialize_decomposition(d)


def test_crm_antichain_returns_rows_by_descending_user_count():
    rows = [{0, 1}, {0, 1}, {0, 1}, {2, 3}, {2, 3}, {4}]
    upa = AccessMatrix.from_rows(rows)
    d = mine_crm(upa, MiningConfig(max_perms_per_role=2), lattice=False)
    assert [r.perms for r in d.roles] == [
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4}),
    ]
    counts = [sum(1 for s in d.ua if r.id in s) for r in d.roles]
    assert counts == sorted(counts, reverse=True)


# Golden outputs: SHA-256 of serialize_decomposition, pinned from the
# straightforward re-cluster-every-round loop.  Any change to the greedy
# loop must reproduce these bytes exactly.

def _sha(d):
    return hashlib.sha256(serialize_decomposition(d).encode()).hexdigest()


def test_crm_guard_instance_bytes_pinned():
    upa = guard_instance()
    cfg = MiningConfig(max_perms_per_role=20)
    raw = mine_crm(upa, cfg, lattice=False)
    assert raw.r_count() == 643
    assert _sha(raw) == (
        "808a865cbead81f2f7807b1764b1c94ffc9b9a19599cf8ee2bff1e68a62effb6"
    )
    reduced = mine_crm(upa, cfg)
    assert reduced.r_count() == 191
    assert _sha(reduced) == (
        "397f357f4bc24b0a724e725aa8fc0cc8f851cc402bd24f8296a7a4443ce59fd5"
    )


def test_both_miners_bytes_pinned_on_synthetic_instances():
    meta = SplitMix64(2024)
    acc = {mine_constrained: hashlib.sha256(), mine_crm: hashlib.sha256()}
    for _ in range(40):
        upa, _, k = synthetic_instance(meta)
        cfg = MiningConfig(max_perms_per_role=k)
        for miner, h in acc.items():
            h.update(serialize_decomposition(miner(upa, cfg)).encode())
    assert acc[mine_constrained].hexdigest() == (
        "4633ab026d07757e830cc4de5a297edb52a43b68a5ef4df25d36a0762435aff7"
    )
    assert acc[mine_crm].hexdigest() == (
        "8268a2cbc5564694e7e93bd89a70d89c22120d1a75b32e9429d0b71bf7ae335b"
    )


def _spread(upa, a, b):
    """`upa` relabelled with index order kept: permission p becomes
    a * p + b, so never-held permissions sit before and between the held
    ones, and an empty user comes before each user of odd index and after
    the last.  Returns the matrix and each user's new index."""
    users, masks = [], []
    for u, m in enumerate(upa.masks):
        if u % 2:
            masks.append(0)
        users.append(len(masks))
        masks.append(mask_of(a * p + b for p in perm_tuple(m)))
    masks.append(0)
    spread = AccessMatrix(n_users=len(masks), n_perms=a * upa.n_perms + b,
                          masks=tuple(masks))
    return spread, users


def _assert_miners_read_index_order_alone(upa, k, a, b):
    # Every tie-break of both miners compares indices, so a relabelling
    # that keeps their order, mapped back, gives the same decomposition.
    spread, users = _spread(upa, a, b)
    cfg = MiningConfig(max_perms_per_role=k)
    for miner in (mine_constrained, mine_crm):
        for lattice in (True, False):
            d = miner(spread, cfg, lattice=lattice)
            back = Decomposition(
                roles=tuple(Role(r.id, {(p - b) // a for p in r.perms})
                            for r in d.roles),
                ua=tuple(d.ua[v] for v in users),
            )
            want = miner(upa, cfg, lattice=lattice)
            assert back == want
            assert serialize_decomposition(back) == serialize_decomposition(want)


@pytest.mark.parametrize("k", [2, 5, 20])
def test_miners_read_index_order_alone_on_guard(k):
    _assert_miners_read_index_order_alone(guard_instance(), k, 3, 2)


def test_miners_read_index_order_alone_on_shape_draws():
    draws = shape_draws(6262, 30, min_users=5, max_users=80,
                        min_perms=5, max_perms=40)
    for i, (upa, _, k) in enumerate(draws):
        _assert_miners_read_index_order_alone(upa, k, 2 + i % 3, i % 4)


def test_crm_guard_instance_bytes_pinned_at_k5():
    upa = guard_instance()
    cfg = MiningConfig(max_perms_per_role=5)
    raw = mine_crm(upa, cfg, lattice=False)
    assert raw.r_count() == 873
    assert _sha(raw) == (
        "bcb7bd0371cd8821dee3db2233ac672628c80f188195318e96383d06f33dac53"
    )
    reduced = mine_crm(upa, cfg)
    assert reduced.r_count() == 390
    assert _sha(reduced) == (
        "231fa6895dac90f134c2b747e142a180cf8ab9b8c70205cf6954e3d3c0d78a99"
    )


def test_crm_guard_instance_bytes_pinned_at_k2():
    # k=2 is where the lattice does the most work: it removes more than
    # half of the raw roles.
    upa = guard_instance()
    cfg = MiningConfig(max_perms_per_role=2)
    raw = mine_crm(upa, cfg, lattice=False)
    assert raw.r_count() == 945
    assert _sha(raw) == (
        "0096235cfed9662dcf58b02d24be0c734ee94ec1e6471fbc88ac57f80eade6a3"
    )
    reduced = mine_crm(upa, cfg)
    assert reduced.r_count() == 447
    assert _sha(reduced) == (
        "3d2e7d50b29d0415eb39e5980cf7fa394cd9db6d0f58c8fc26438031c3e990f4"
    )


def test_crm_scale_instance_bytes_pinned_at_k5(scale_upa):
    # 20000 x 2000, k=5: the most rounds with many clusters tied at the
    # top, and the most clusters that merge and change tier.
    raw = mine_crm(scale_upa, MiningConfig(max_perms_per_role=5), lattice=False)
    assert raw.r_count() == 2567
    assert _sha(raw) == (
        "e65982f105ebee27c4c4921701b50a8a3f16e91c4a7e23674e13d4a0ef38ac66"
    )


def test_crm_scale_instance_with_lattice_bytes_pinned_at_k5(scale_upa):
    # The suite's largest lattice run: 1176 of 2567 raw roles removed, with
    # 82436 holder reassignments.
    reduced = mine_crm(scale_upa, MiningConfig(max_perms_per_role=5))
    assert reduced.r_count() == 1391
    assert _sha(reduced) == (
        "d7159c78199528c23a2ed208e11eb4af689701803b8668b8b056b29e34f6e034"
    )


def _reference_mine_crm(upa, k):
    """The greedy loop user by user, without the lattice: clusters of users
    keyed by uncovered mask, holders found by scanning every cluster, each
    user's roles kept in its own set and truncation by frequency over
    uncovered cells."""
    freq = [0] * upa.n_perms
    clusters = {}
    for u, m in enumerate(upa.masks):
        if m:
            clusters.setdefault(m, []).append(u)
    for m, users in clusters.items():
        for p in perm_tuple(m):
            freq[p] += len(users)
    heap = []

    def push(m):
        heapq.heappush(heap, (-len(clusters[m]), -min(m.bit_count(), k), m))

    for m in clusters:
        push(m)
    cands = {}

    def candidate(m):
        cand = cands.get(m)
        if cand is None:
            if m.bit_count() <= k:
                cand = (m, perm_tuple(m))
            else:
                top = heapq.nsmallest(k, perm_tuple(m), key=lambda p: (-freq[p], p))
                top.sort()
                cand = (mask_of(top), tuple(top))
            cands[m] = cand
        return cand

    role_masks = []
    ua = [set() for _ in range(upa.n_users)]
    while clusters:
        tied = set()
        top_key = None
        while heap:
            count, size, m = heap[0]
            users = clusters.get(m)
            if users is None or len(users) != -count:
                heapq.heappop(heap)
                continue
            if top_key is None:
                top_key = (count, size)
            elif (count, size) != top_key:
                break
            heapq.heappop(heap)
            tied.add(m)
        pick = min((candidate(m) for m in tied), key=lambda c: c[1])[0]
        assert pick not in role_masks
        rid = len(role_masks)
        role_masks.append(pick)
        held = 0
        for m in [m for m in clusters if pick & ~m == 0]:
            users = clusters.pop(m)
            cands.pop(m, None)
            held += len(users)
            for u in users:
                ua[u].add(rid)
            rest = m & ~pick
            if rest:
                clusters.setdefault(rest, []).extend(users)
                push(rest)
        for p in perm_tuple(pick):
            freq[p] -= held
        for m in tied:
            if m in clusters:
                push(m)
        for m in [m for m, (cand, _) in cands.items() if cand & pick]:
            del cands[m]
    return Decomposition(
        roles=tuple(
            Role(rid, frozenset(perm_tuple(m))) for rid, m in enumerate(role_masks)
        ),
        ua=tuple(frozenset(s) for s in ua),
    )


@st.composite
def _crm_instances(draw):
    """A small matrix with duplicate and empty rows (possibly no users at
    all) and a k from 1 to its largest row."""
    n_perms = draw(st.integers(0, 9))
    rows = draw(st.lists(st.integers(0, (1 << n_perms) - 1), min_size=1, max_size=10))
    masks = draw(st.lists(st.sampled_from(rows), max_size=24))
    upa = AccessMatrix(n_users=len(masks), n_perms=n_perms, masks=tuple(masks))
    k = draw(st.integers(1, max(1, upa.max_row_size())))
    return upa, k


@settings(max_examples=300, deadline=None)
@given(_crm_instances())
def test_crm_matches_per_user_reference(instance):
    upa, k = instance
    cfg = MiningConfig(max_perms_per_role=k)
    assert mine_crm(upa, cfg, lattice=False) == _reference_mine_crm(upa, k)


@settings(max_examples=300, deadline=None)
@given(_crm_instances())
def test_crm_lattice_equals_public_lattice_after_raw_crm(instance):
    # mine_crm runs the lattice core on its own index; the public pass
    # regroups the users of the raw output.
    upa, k = instance
    cfg = MiningConfig(max_perms_per_role=k)
    via_public = lattice_reduce(upa, mine_crm(upa, cfg, lattice=False), k)
    assert mine_crm(upa, cfg) == via_public


def test_crm_matches_per_user_reference_on_generator_draws():
    # Generator rows share roles, so clusters of many users merge and
    # change tier, which the small hypothesis matrices rarely reach.
    meta = SplitMix64(1313)
    for _ in range(30):
        upa, _, _ = synthetic_instance(meta, max_users=120, max_perms=60)
        for k in (1, 2, 3, 5):
            cfg = MiningConfig(max_perms_per_role=k)
            assert mine_crm(upa, cfg, lattice=False) == _reference_mine_crm(upa, k)
