"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS lines
and the criterion-6 comparison summary while the suite runs).

Note on criterion 5: elapsed_ms is wall-clock by design, so it is the one
field normalized away before byte comparison; every other byte of every
output file must match exactly.
"""

import csv
import io
import json
import time
from fractions import Fraction
from itertools import combinations
from statistics import median

import pytest

from rolemine import (
    AccessMatrix,
    GeneratorParams,
    MiningConfig,
    Role,
    eliminate_union_roles,
    generate,
    is_complete,
    lattice_reduce,
    mine_constrained,
    mine_crm,
    optimal_role_count,
    parse_dense,
    parse_sparse,
    satisfies_constraint,
    serialize_decomposition,
    serialize_dense,
    serialize_sparse,
)
from rolemine.cli import COMPARE_HEADER, _compare_cell
from rolemine.metrics import measure
from rolemine.rng import SplitMix64

from conftest import synthetic_instance, tiny_instance
from test_cli import run_cli

MINERS = (("constrained", mine_constrained), ("crm", mine_crm))


@pytest.fixture(scope="module")
def suite1():
    """500 seeded instances, mined by both algorithms, lattice applied twice."""
    meta = SplitMix64(20_250_810)
    records = []
    start = time.perf_counter()
    for _ in range(500):
        upa, _, k = synthetic_instance(meta)
        cfg = MiningConfig(max_perms_per_role=k)
        entry = {"k": k, "n_users": upa.n_users, "n_perms": upa.n_perms}
        for name, miner in MINERS:
            raw = miner(upa, cfg, lattice=False)
            red = lattice_reduce(upa, raw, k)
            once = serialize_decomposition(red)
            twice = serialize_decomposition(lattice_reduce(upa, red, k))
            entry[name] = {
                "complete": is_complete(upa, red),
                "within_k": satisfies_constraint(red, k),
                "r": (raw.r_count(), red.r_count()),
                "uapa": (
                    raw.ua_size() + raw.pa_size(),
                    red.ua_size() + red.pa_size(),
                ),
                "idempotent": once == twice,
            }
        records.append(entry)
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_1_completeness_and_constraint_suite(suite1):
    records, elapsed = suite1
    assert len(records) == 500
    spans = {(r["n_users"], r["n_perms"]) for r in records}
    assert len(spans) > 100  # the family really spans the parameter space
    for r in records:
        for name, _ in MINERS:
            assert r[name]["complete"], r
            assert r[name]["within_k"], r
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 (completeness & constraint, 500 instances, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_2_oracle_optimality_bound():
    applicable = 0
    for i in range(200):
        upa, k = tiny_instance(31_000 + i)
        optimum, witness = optimal_role_count(upa, k)
        assert is_complete(upa, witness)
        assert satisfies_constraint(witness, k)
        cfg = MiningConfig(max_perms_per_role=k)
        mined = {name: miner(upa, cfg) for name, miner in MINERS}
        for name, d in mined.items():
            assert d.r_count() >= optimum, (i, name)
        distinct = sorted({m for m in upa.masks if m})
        fits = all(m.bit_count() <= k for m in distinct)
        antichain = all(
            a & ~b != 0 and b & ~a != 0
            for x, a in enumerate(distinct)
            for b in distinct[x + 1:]
        )
        if fits and antichain:
            applicable += 1
            assert mined["constrained"].r_count() == optimum, (i, optimum)
    assert applicable >= 10
    print(f"ACCEPTANCE 2 (oracle bound, 200 tiny instances, "
          f"{applicable} antichain cases): PASS")


def test_criterion_3_lattice_monotonicity(suite1):
    records, _ = suite1
    for r in records:
        for name, _ in MINERS:
            r_raw, r_red = r[name]["r"]
            uapa_raw, uapa_red = r[name]["uapa"]
            assert r_red <= r_raw
            assert uapa_red <= uapa_raw or r_red < r_raw
            assert r[name]["complete"]
            assert r[name]["idempotent"]
    print("ACCEPTANCE 3 (lattice reduction monotonic + idempotent): PASS")


def brute_force_coverable(target: frozenset, others: list[frozenset]) -> bool:
    for size in range(1, len(others) + 1):
        for combo in combinations(others, size):
            if all(c <= target for c in combo) and frozenset().union(*combo) == target:
                return True
    return False


def test_criterion_4_union_elimination_against_brute_force():
    built = 0
    for i in range(100):
        rng = SplitMix64(77_000 + i)
        n_perms = rng.randint(4, 10)
        catalog: list[frozenset] = []
        seen: set[frozenset] = set()
        for _ in range(rng.randint(3, 6)):
            s = frozenset(rng.sample(n_perms, rng.randint(1, 3)))
            if s not in seen:
                seen.add(s)
                catalog.append(s)
        planted: list[frozenset] = []
        for _ in range(rng.randint(1, 2)):
            picks = rng.sample(len(catalog), rng.randint(2, min(3, len(catalog))))
            union = frozenset().union(*(catalog[j] for j in picks))
            if union not in seen:
                seen.add(union)
                planted.append(union)
        full = catalog + planted
        if not planted:
            continue
        built += 1
        upa = AccessMatrix.from_rows(full, n_perms=n_perms)
        roles = tuple(Role(j, s) for j, s in enumerate(full))
        ua = [{j} for j in range(len(full))]
        out = eliminate_union_roles(roles, ua, upa)
        survivors = {r.perms for r in out.roles}
        for j, s in enumerate(full):
            others = [t for x, t in enumerate(full) if x != j]
            assert (s not in survivors) == brute_force_coverable(s, others), (i, s)
        for p in planted:  # every planted union role must be eliminated
            assert p not in survivors, (i, p)
        assert is_complete(upa, out)
    assert built >= 90
    print(f"ACCEPTANCE 4 (union elimination vs brute force, "
          f"{built} planted instances): PASS")


def _normalize_metrics(text: str) -> dict:
    blob = json.loads(text)
    assert isinstance(blob["elapsed_ms"], float)
    blob["elapsed_ms"] = None  # wall-clock: the one nondeterministic field
    return blob


def _normalize_csv(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    idx = rows[0].index("elapsed_ms")
    for row in rows[1:]:
        float(row[idx])  # must be a real timing value
        row[idx] = ""
    return rows


def test_criterion_5_cli_determinism(tmp_path):
    gen_args = [
        "gen", "--n-users", "60", "--n-perms", "24", "--n-roles", "8",
        "--max-roles-per-user", "3", "--max-perms-per-role", "6", "--seed", "42",
    ]
    for tag in ("a", "b"):
        proc = run_cli(*gen_args, "--out-upa", str(tmp_path / f"upa_{tag}.txt"),
                       "--out-truth", str(tmp_path / f"truth_{tag}.txt"))
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "upa_a.txt").read_bytes() == (tmp_path / "upa_b.txt").read_bytes()
    assert (tmp_path / "truth_a.txt").read_bytes() == (tmp_path / "truth_b.txt").read_bytes()

    for algo in ("constrained", "crm"):
        outputs = []
        reports = []
        for tag in ("a", "b"):
            out = tmp_path / f"{algo}_{tag}.roles"
            met = tmp_path / f"{algo}_{tag}.json"
            proc = run_cli(
                "mine", "--algo", algo, "--k", "4",
                "--input", str(tmp_path / "upa_a.txt"),
                "--truth", str(tmp_path / "truth_a.txt"),
                "--output", str(out), "--metrics", str(met), "--seed", "42",
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
            reports.append(_normalize_metrics(met.read_text()))
        assert outputs[0] == outputs[1]
        assert reports[0] == reports[1]

    spec = "n_users=60,n_perms=24,n_roles=8,max_roles_per_user=3,max_perms_per_role=6"
    tables = []
    for jobs in ("1", "4", "1"):
        out = tmp_path / f"cmp_{len(tables)}.csv"
        proc = run_cli(
            "compare", "--gen-spec", spec, "--k-list", "2,4,6",
            "--algos", "constrained,crm", "--out", str(out),
            "--seed", "42", "--jobs", jobs,
        )
        assert proc.returncode == 0, proc.stderr
        tables.append(_normalize_csv(out.read_text()))
    assert tables[0] == tables[1] == tables[2]  # --jobs 4 == --jobs 1
    print("ACCEPTANCE 5 (CLI determinism, elapsed_ms field excepted): PASS")


def test_criterion_6_comparison_record(tmp_path):
    meta = SplitMix64(660_660)
    rows = []
    ratios = []
    for i in range(50):
        upa, truth, _ = synthetic_instance(meta, min_users=10, max_users=80,
                                           min_perms=10, max_perms=40)
        row_max = upa.max_row_size()
        name = f"bench-{i}"
        for k in (max(1, row_max // 2), max(1, row_max // 4)):
            cells = {}
            for algo, _ in MINERS:
                cell = (name, upa, truth, algo, k, 0, True)
                values = _compare_cell(*cell)
                rows.append(values)
                cells[algo] = dict(zip(COMPARE_HEADER, values))
            wsc_c = Fraction(cells["constrained"]["wsc"])
            wsc_m = Fraction(cells["crm"]["wsc"])
            ratios.append(wsc_c / wsc_m)
    out = tmp_path / "benchmark.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COMPARE_HEADER)
        writer.writerows(rows)
    with open(out, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == COMPARE_HEADER
    assert len(parsed) == 1 + 50 * 2 * 2
    for row in parsed[1:]:
        assert int(row[COMPARE_HEADER.index("r_count")]) >= 0
        Fraction(row[COMPARE_HEADER.index("wsc")])
    # direction check only: reported for inspection, not asserted
    med = float(median(ratios))
    below_one = sum(1 for r in ratios if r < 1)
    print(f"ACCEPTANCE 6 (comparison record, 200 rows): PASS "
          f"[median WSC ratio constrained/crm = {med:.3f}; "
          f"constrained wins {below_one}/{len(ratios)} cells]")


def test_criterion_7_performance_large_instance():
    params = GeneratorParams(n_users=2000, n_perms=500, n_roles=120,
                             max_roles_per_user=4, max_perms_per_role=20, seed=99)
    upa, _ = generate(params)
    assert 0.03 <= upa.density() <= 0.07  # ~5% density target
    cfg = MiningConfig(max_perms_per_role=20)
    timings = {}
    for name, miner in MINERS:
        start = time.perf_counter()
        d = miner(upa, cfg)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        report = measure(upa, d, cfg, elapsed_ms=elapsed_ms, algorithm=name)
        assert satisfies_constraint(d, 20)
        assert report.elapsed_ms < 10_000.0, (name, report.elapsed_ms)
        timings[name] = report.elapsed_ms
    print("ACCEPTANCE 7 (2000x500 performance): PASS "
          + "".join(f"[{n}: {t:.0f} ms]" for n, t in timings.items()))


def test_criterion_8_format_round_trip():
    sparse_fixture = (
        "# access dump\n"
        "alice read   # duplicate below\n"
        "alice read\n"
        "alice write\n"
        "\n"
        "bob read\n"
        "carol audit\n"
    )
    first = parse_sparse(sparse_fixture)
    canon = serialize_sparse(first.matrix, first.user_names, first.perm_names)
    second = parse_sparse(canon)
    assert second.matrix == first.matrix
    assert second.user_names == first.user_names
    assert second.perm_names == first.perm_names
    assert serialize_sparse(second.matrix, second.user_names, second.perm_names) == canon

    dense_fixture = "# header comment\n1010\n0001  # trailing\n\n0000\n"
    m1 = parse_dense(dense_fixture)
    canon_dense = serialize_dense(m1)
    m2 = parse_dense(canon_dense)
    assert m2 == m1
    assert serialize_dense(m2) == canon_dense
    print("ACCEPTANCE 8 (format round trips): PASS")
