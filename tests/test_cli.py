"""End-to-end CLI checks; every invocation goes through a real subprocess."""

import json
import subprocess
import sys

import pytest

from rolemine import (
    GeneratorParams,
    MiningConfig,
    generate,
    measure,
    mine_constrained,
    parse_catalog,
    parse_decomposition,
    parse_dense,
    parse_sparse,
)
from rolemine.model import is_complete


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rolemine.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def sparse_file(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text("u1 p1\nu1 p2\nu2 p1\nu3 p3\n")
    return path


def test_mine_writes_decomposition_and_metrics(tmp_path, sparse_file):
    out = tmp_path / "roles.txt"
    metrics = tmp_path / "metrics.json"
    proc = run_cli(
        "mine", "--algo", "constrained", "--k", "2",
        "--input", str(sparse_file), "--output", str(out), "--metrics", str(metrics),
    )
    assert proc.returncode == 0, proc.stderr
    upa = parse_sparse(sparse_file.read_text()).matrix
    d = parse_decomposition(out.read_text(), n_users=upa.n_users)
    assert is_complete(upa, d)
    blob = json.loads(metrics.read_text())
    assert blob["algorithm"] == "constrained"
    assert blob["k"] == 2
    assert blob["r_count"] == d.r_count()
    # stdout carries the same report
    assert json.loads(proc.stdout) == blob
    # non-numeric tokens produce the names sidecar
    names = json.loads((tmp_path / "roles.txt.names.json").read_text())
    assert names["users"] == ["u1", "u2", "u3"]



def test_mine_writes_names_for_integer_tokens_out_of_order(tmp_path):
    data = tmp_path / "ints.txt"
    data.write_text("1 7\n1 2\n2 2\n")
    out = tmp_path / "roles.txt"
    proc = run_cli(
        "mine", "--algo", "constrained", "--k", "2", "--input", str(data),
        "--output", str(out), "--metrics", str(tmp_path / "m.json"),
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads((tmp_path / "roles.txt.names.json").read_text())
    assert names == {"users": ["1", "2"], "perms": ["7", "2"]}


def test_mine_writes_no_names_for_index_tokens(tmp_path):
    data = tmp_path / "ints.txt"
    data.write_text("0 0\n0 1\n1 1\n")
    out = tmp_path / "roles.txt"
    proc = run_cli(
        "mine", "--algo", "constrained", "--k", "2", "--input", str(data),
        "--output", str(out), "--metrics", str(tmp_path / "m.json"),
    )
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "roles.txt.names.json").exists()

def test_mine_rejects_k_zero(tmp_path, sparse_file):
    proc = run_cli(
        "mine", "--algo", "crm", "--k", "0",
        "--input", str(sparse_file),
        "--output", str(tmp_path / "o"), "--metrics", str(tmp_path / "m"),
    )
    assert proc.returncode == 2
    assert "k must be >= 1" in proc.stderr


def test_mine_missing_input_is_io_error(tmp_path):
    proc = run_cli(
        "mine", "--algo", "crm", "--k", "2",
        "--input", str(tmp_path / "missing.txt"),
        "--output", str(tmp_path / "o"), "--metrics", str(tmp_path / "m"),
    )
    assert proc.returncode == 1
    assert proc.stderr.strip()


def test_mine_parse_error_reports_line(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("u1 p1 extra\n")
    proc = run_cli(
        "mine", "--algo", "crm", "--k", "2", "--input", str(bad),
        "--output", str(tmp_path / "o"), "--metrics", str(tmp_path / "m"),
    )
    assert proc.returncode == 1
    assert "line 1" in proc.stderr


def test_mine_unknown_algo_is_usage_error(tmp_path, sparse_file):
    proc = run_cli(
        "mine", "--algo", "nope", "--k", "2", "--input", str(sparse_file),
        "--output", str(tmp_path / "o"), "--metrics", str(tmp_path / "m"),
    )
    assert proc.returncode == 2


def test_gen_is_deterministic_and_parsable(tmp_path):
    args = [
        "gen", "--n-users", "30", "--n-perms", "12", "--n-roles", "5",
        "--max-roles-per-user", "2", "--max-perms-per-role", "4", "--seed", "7",
    ]
    first = run_cli(*args, "--out-upa", str(tmp_path / "a.txt"),
                    "--out-truth", str(tmp_path / "a.roles"))
    second = run_cli(*args, "--out-upa", str(tmp_path / "b.txt"),
                     "--out-truth", str(tmp_path / "b.roles"))
    assert first.returncode == 0 and second.returncode == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (tmp_path / "a.roles").read_bytes() == (tmp_path / "b.roles").read_bytes()
    assert parse_catalog((tmp_path / "a.roles").read_text())
    assert parse_sparse((tmp_path / "a.txt").read_text()).matrix.n_users == 30


def test_gen_rejects_zero_roles(tmp_path):
    proc = run_cli(
        "gen", "--n-users", "5", "--n-perms", "4", "--n-roles", "0",
        "--max-roles-per-user", "1", "--max-perms-per-role", "2",
        "--out-upa", str(tmp_path / "u"), "--out-truth", str(tmp_path / "t"),
    )
    assert proc.returncode == 2


def test_gen_mine_truth_pipeline(tmp_path):
    upa_path = tmp_path / "upa.txt"
    truth_path = tmp_path / "truth.txt"
    gen = run_cli(
        "gen", "--n-users", "40", "--n-perms", "15", "--n-roles", "6",
        "--max-roles-per-user", "2", "--max-perms-per-role", "4", "--seed", "3",
        "--out-upa", str(upa_path), "--out-truth", str(truth_path),
    )
    assert gen.returncode == 0
    metrics = tmp_path / "metrics.json"
    mine = run_cli(
        "mine", "--algo", "constrained", "--k", "4",
        "--input", str(upa_path), "--truth", str(truth_path),
        "--output", str(tmp_path / "out.txt"), "--metrics", str(metrics),
    )
    assert mine.returncode == 0, mine.stderr
    blob = json.loads(metrics.read_text())
    # The in-memory pipeline on the parsed matrix, with the generator's truth
    # moved into the parsed index space through the p<j> tokens; a truth
    # permission nobody holds keeps an index no mined role can contain.
    parsed = parse_sparse(upa_path.read_text())
    index = {name: i for i, name in enumerate(parsed.perm_names)}
    _, truth = generate(GeneratorParams(
        n_users=40, n_perms=15, n_roles=6,
        max_roles_per_user=2, max_perms_per_role=4, seed=3,
    ))
    fresh = parsed.matrix.n_perms
    truth = [frozenset(index.get(f"p{p}", fresh + p) for p in t) for t in truth]
    cfg = MiningConfig(max_perms_per_role=4)
    report = measure(parsed.matrix, mine_constrained(parsed.matrix, cfg), cfg,
                     truth=truth)
    assert report.accuracy > 0
    assert blob["accuracy"] == str(report.accuracy)
    assert blob["distance"] == str(report.distance)


def test_mine_truth_with_empty_catalog_is_data_error(tmp_path):
    data = tmp_path / "zeros.txt"
    data.write_text("000\n000\n")
    truth = tmp_path / "truth.txt"
    truth.write_text("role 0: p0 p1\n")
    proc = run_cli(
        "mine", "--algo", "crm", "--k", "2", "--format", "dense",
        "--input", str(data), "--truth", str(truth),
        "--output", str(tmp_path / "o"), "--metrics", str(tmp_path / "m"),
    )
    assert proc.returncode == 1
    assert "empty catalogs" in proc.stderr


def test_mine_dense_truth_outside_the_matrix_is_data_error(tmp_path):
    data = tmp_path / "dense.txt"
    data.write_text("110\n011\n")
    truth = tmp_path / "truth.txt"
    truth.write_text("role 0: p0 p1\nrole 1: p7\n")
    proc = run_cli(
        "mine", "--algo", "constrained", "--k", "2", "--format", "dense",
        "--input", str(data), "--truth", str(truth),
        "--output", str(tmp_path / "o"), "--metrics", str(tmp_path / "m"),
    )
    assert proc.returncode == 1
    assert "p7" in proc.stderr


def test_compare_produces_cross_product_rows(tmp_path, sparse_file):
    out = tmp_path / "table.csv"
    proc = run_cli(
        "compare", "--input", str(sparse_file),
        "--k-list", "2,3", "--algos", "constrained,crm", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "dataset,algorithm,k,r_count,ua_size,pa_size,wsc,accuracy,distance,"
        "elapsed_ms,seed"
    )
    assert len(lines) == 5  # header + 2 algos x 2 k values
    assert proc.stdout == out.read_text()


def test_compare_unknown_algo(tmp_path, sparse_file):
    proc = run_cli(
        "compare", "--input", str(sparse_file), "--k-list", "2",
        "--algos", "constrained,magic", "--out", str(tmp_path / "t.csv"),
    )
    assert proc.returncode == 2
    assert "unknown algorithm" in proc.stderr


def test_compare_needs_exactly_one_source(tmp_path, sparse_file):
    proc = run_cli("compare", "--k-list", "2", "--out", str(tmp_path / "t.csv"))
    assert proc.returncode == 2
    proc = run_cli(
        "compare", "--input", str(sparse_file), "--gen-spec", "n_users=3",
        "--k-list", "2", "--out", str(tmp_path / "t.csv"),
    )
    assert proc.returncode == 2


def test_compare_gen_spec_includes_truth_metrics(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_cli(
        "compare",
        "--gen-spec",
        "n_users=25,n_perms=10,n_roles=4,max_roles_per_user=2,max_perms_per_role=3",
        "--k-list", "3", "--algos", "constrained", "--out", str(out), "--seed", "11",
    )
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    accuracy_col = rows[0].split(",").index("accuracy")
    assert rows[1].split(",")[accuracy_col] != ""


def test_mine_no_lattice_and_dense_input(tmp_path):
    data = tmp_path / "dense.txt"
    data.write_text("110\n011\n111\n")
    out = tmp_path / "roles.txt"
    metrics = tmp_path / "m.json"
    proc = run_cli(
        "mine", "--algo", "constrained", "--k", "2", "--format", "dense",
        "--input", str(data), "--output", str(out), "--metrics", str(metrics),
        "--no-lattice",
    )
    assert proc.returncode == 0, proc.stderr
    matrix = parse_dense(data.read_text())
    d = parse_decomposition(out.read_text(), n_users=3)
    assert is_complete(matrix, d)
    assert all(len(r.perms) <= 2 for r in d.roles)
    # dense inputs never produce a names sidecar
    assert not (tmp_path / "roles.txt.names.json").exists()


def test_oracle_subcommand(tmp_path):
    data = tmp_path / "tiny.txt"
    data.write_text("10\n01\n11\n")
    proc = run_cli("oracle", "--input", str(data), "--format", "dense", "--k", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "optimal_r_count: 2"


def test_oracle_guard_maps_to_data_error(tmp_path):
    data = tmp_path / "wide.txt"
    data.write_text("1111111\n")
    proc = run_cli("oracle", "--input", str(data), "--format", "dense", "--k", "2")
    assert proc.returncode == 1
    assert "guard" in proc.stderr
