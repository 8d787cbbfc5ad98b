"""End-to-end CLI checks; every invocation goes through a real subprocess,
except the fuzz test and the index-build count, which call ``cli.main``
in-process."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    serialize_catalog,
    serialize_dense,
    serialize_sparse,
)
from rolemine import _rowindex, cli
from rolemine.model import is_complete


def run_cli(*args, timeout=None, env=None):
    """Run ``python -m rolemine.cli``; `env` adds to the inherited
    environment."""
    return subprocess.run(
        [sys.executable, "-m", "rolemine.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=None if env is None else {**os.environ, **env},
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


def test_mine_removes_stale_names_sidecar(tmp_path, sparse_file):
    data = tmp_path / "ints.txt"
    data.write_text("0 0\n0 1\n1 1\n")
    out = tmp_path / "roles.txt"
    for source in (sparse_file, data):
        proc = run_cli(
            "mine", "--algo", "constrained", "--k", "2", "--input", str(source),
            "--output", str(out), "--metrics", str(tmp_path / "m.json"),
        )
        assert proc.returncode == 0, proc.stderr
    # the named run's sidecar would map p0 and user 0 to its tokens
    assert not (tmp_path / "roles.txt.names.json").exists()

def test_mine_rejects_k_zero(tmp_path, sparse_file):
    proc = run_cli(
        "mine", "--algo", "crm", "--k", "0",
        "--input", str(sparse_file),
        "--output", str(tmp_path / "o"), "--metrics", str(tmp_path / "m"),
    )
    assert proc.returncode == 2
    assert "k must be >= 1" in proc.stderr


_SEED_RULE = "seed must be a 64-bit unsigned integer"


@pytest.mark.parametrize("command, message", [
    (["mine", "--algo", "crm", "--k", "2", "--seed", "-1", "--metrics", "m"],
     _SEED_RULE),
    (["mine", "--algo", "crm", "--k", "2", "--seed", str(1 << 64), "--metrics", "m"],
     _SEED_RULE),
    (["compare", "--k-list", "2", "--seed", "-1"], _SEED_RULE),
    (["compare", "--k-list", "2,0"], "k must be >= 1"),
    (["compare", "--k-list", " , "], "--k-list: no k given"),
    (["compare", "--k-list", "2", "--jobs", "0"], "jobs must be >= 1"),
    (["oracle", "--k", "0"], "k must be >= 1"),
])
def test_usage_errors_come_before_the_input_is_read(tmp_path, command, message):
    # The input does not exist: reading it would exit 1.
    out = tmp_path / "o"
    args = [*command, "--input", str(tmp_path / "missing.txt")]
    if command[0] != "oracle":
        args += ["--output" if command[0] == "mine" else "--out", str(out)]
    proc = run_cli(*args)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("metrics", ["roles.txt", "./roles.txt", "roles.txt.names.json"])
def test_mine_rejects_clashing_output_paths(tmp_path, metrics):
    # Checked before the input is read: a missing input would exit 1.
    proc = run_cli(
        "mine", "--algo", "constrained", "--k", "2",
        "--input", str(tmp_path / "missing.txt"),
        "--output", str(tmp_path / "roles.txt"), "--metrics", f"{tmp_path}/{metrics}",
    )
    assert proc.returncode == 2
    assert "must differ" in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output, metrics, truth", [
    ("toy.txt", "m.json", None),
    ("o.txt", "./toy.txt", None),
    ("o.txt", "truth.txt", "truth.txt"),
])
def test_mine_rejects_writing_over_a_file_it_reads(
    tmp_path, sparse_file, output, metrics, truth
):
    (tmp_path / "truth.txt").write_text("role 0: p1\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    args = ["--output", f"{tmp_path}/{output}", "--metrics", f"{tmp_path}/{metrics}"]
    if truth:
        args += ["--truth", f"{tmp_path}/{truth}"]
    proc = run_cli(
        "mine", "--algo", "constrained", "--k", "2", "--input", str(sparse_file), *args
    )
    assert proc.returncode == 2
    assert "must differ" in proc.stderr
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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


@pytest.mark.parametrize("bad", ["input", "truth"])
def test_mine_non_utf8_file_is_data_error(tmp_path, sparse_file, bad):
    broken = tmp_path / "broken.txt"
    broken.write_bytes(b"u1 p1\n\xff p2\n")
    files = {"input": sparse_file, "truth": tmp_path / "truth.txt"}
    files["truth"].write_text("role 0: p1\n")
    files[bad] = broken
    proc = run_cli(
        "mine", "--algo", "crm", "--k", "2",
        "--input", str(files["input"]), "--truth", str(files["truth"]),
        "--output", str(tmp_path / "o"), "--metrics", str(tmp_path / "m"),
    )
    assert proc.returncode == 1
    assert "line 2" in proc.stderr and "not UTF-8" in proc.stderr


def test_mine_reports_lower_bound_on_stderr_only(tmp_path, sparse_file):
    out = tmp_path / "roles.txt"
    metrics = tmp_path / "metrics.json"
    proc = run_cli(
        "mine", "--algo", "crm", "--k", "1",
        "--input", str(sparse_file), "--output", str(out), "--metrics", str(metrics),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.rstrip().endswith(", lower bound 2")
    assert "lower bound" not in proc.stdout + metrics.read_text() + out.read_text()


@pytest.mark.parametrize("algo", ["constrained", "crm"])
def test_mine_summary_counts_equal_the_metrics(tmp_path, algo):
    upa, _ = generate(GeneratorParams(
        n_users=80, n_perms=30, n_roles=8, max_roles_per_user=3,
        max_perms_per_role=6, seed=4,
    ))
    data = tmp_path / "upa.txt"
    data.write_text(serialize_sparse(upa))
    metrics = tmp_path / "metrics.json"
    proc = run_cli(
        "mine", "--algo", algo, "--k", "3", "--input", str(data),
        "--output", str(tmp_path / "roles.txt"), "--metrics", str(metrics),
    )
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(metrics.read_text())
    summary = re.fullmatch(
        rf"{algo}: (\d+) roles, \|UA\|=(\d+), \|PA\|=(\d+), .*\n", proc.stderr
    )
    assert summary is not None, proc.stderr
    assert [int(x) for x in summary.groups()] == [
        blob["r_count"], blob["ua_size"], blob["pa_size"]
    ]
    assert blob["r_count"] > 1 and blob["ua_size"] > blob["r_count"]


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


@pytest.mark.parametrize("max_perms", ["3", str(1 << 65)])
def test_gen_rejects_more_permissions_than_64_bit_draws_reach(tmp_path, max_perms):
    # Bounded with a timeout: a role size above 2**64 used to hang the draw,
    # and a permission range above it to raise OverflowError from a list.
    proc = run_cli(
        "gen", "--n-users", "1", "--n-perms", str(1 << 65), "--n-roles", "1",
        "--max-roles-per-user", "1", "--max-perms-per-role", max_perms,
        "--out-upa", str(tmp_path / "u"), "--out-truth", str(tmp_path / "t"),
        timeout=60,
    )
    assert proc.returncode == 2
    assert f"bound must be at most 2**64, got {1 << 65}" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_gen_rejects_one_file_for_matrix_and_truth(tmp_path):
    proc = run_cli(
        "gen", "--n-users", "3", "--n-perms", "3", "--n-roles", "2",
        "--max-roles-per-user", "1", "--max-perms-per-role", "2",
        "--out-upa", str(tmp_path / "both.txt"),
        "--out-truth", f"{tmp_path}/./both.txt",
    )
    assert proc.returncode == 2
    assert "must differ" in proc.stderr
    assert list(tmp_path.iterdir()) == []


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


def test_mine_truth_with_noncanonical_numbers_is_data_error(tmp_path):
    data = tmp_path / "upa.txt"
    data.write_text("u0 p10\nu1 p3\n")
    truth = tmp_path / "truth.txt"
    # int() would read these as p10 and p3 and report accuracy 1
    truth.write_text("role 0: p1_0\nrole 1: p+3\n")
    proc = run_cli(
        "mine", "--algo", "constrained", "--k", "2",
        "--input", str(data), "--truth", str(truth),
        "--output", str(tmp_path / "o"), "--metrics", str(tmp_path / "m"),
    )
    assert proc.returncode == 1
    assert "line 1" in proc.stderr


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


def test_compare_without_truth_leaves_accuracy_and_distance_empty(
    tmp_path, sparse_file
):
    out = tmp_path / "table.csv"
    proc = run_cli(
        "compare", "--input", str(sparse_file),
        "--k-list", "2", "--algos", "constrained,crm", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [row["algorithm"] for row in rows] == ["constrained", "crm"]
    for row in rows:
        assert row["accuracy"] == row["distance"] == ""
        assert (row["dataset"], row["k"], row["seed"]) == (str(sparse_file), "2", "0")
        assert int(row["r_count"]) > 0 and int(row["wsc"]) > 0


def test_compare_rejects_writing_over_its_input(tmp_path, sparse_file):
    before = sparse_file.read_bytes()
    proc = run_cli(
        "compare", "--input", str(sparse_file), "--k-list", "1",
        "--out", str(sparse_file),
    )
    assert proc.returncode == 2
    assert "must differ" in proc.stderr
    assert sparse_file.read_bytes() == before


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_compare_rejects_jobs_below_one(tmp_path, sparse_file, jobs):
    out = tmp_path / "t.csv"
    proc = run_cli(
        "compare", "--input", str(sparse_file), "--k-list", "2",
        "--jobs", jobs, "--out", str(out),
    )
    assert proc.returncode == 2
    assert "jobs must be >= 1" in proc.stderr
    assert not out.exists()


def test_compare_unknown_algo(tmp_path, sparse_file):
    proc = run_cli(
        "compare", "--input", str(sparse_file), "--k-list", "2",
        "--algos", "constrained,magic", "--out", str(tmp_path / "t.csv"),
    )
    assert proc.returncode == 2
    assert "unknown algorithm" in proc.stderr


def test_compare_rejects_empty_algo_list(tmp_path, sparse_file):
    out = tmp_path / "t.csv"
    proc = run_cli(
        "compare", "--input", str(sparse_file), "--k-list", "2",
        "--algos", ",", "--out", str(out),
    )
    assert proc.returncode == 2
    assert "no algorithm" in proc.stderr
    assert not out.exists()


def test_compare_gen_spec_rejects_repeated_key(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_cli(
        "compare",
        "--gen-spec",
        "n_users=3,n_perms=10,n_roles=4,max_roles_per_user=2,"
        "max_perms_per_role=3,n_users=9",
        "--k-list", "3", "--out", str(out),
    )
    assert proc.returncode == 2
    assert "'n_users' is given twice" in proc.stderr
    assert not out.exists()


def test_compare_needs_exactly_one_source(tmp_path, sparse_file):
    out = tmp_path / "t.csv"
    proc = run_cli("compare", "--k-list", "2", "--out", str(out))
    assert proc.returncode == 2
    assert "--input" in proc.stderr and "--gen-spec" in proc.stderr
    assert not out.exists()
    proc = run_cli(
        "compare", "--input", str(sparse_file), "--gen-spec", "n_users=3",
        "--k-list", "2", "--out", str(out),
    )
    assert proc.returncode == 2
    assert "--input" in proc.stderr and "--gen-spec" in proc.stderr
    assert not out.exists()


_PATH_FLAGS = {
    "mine": ("--input", "--output", "--metrics", "--truth"),
    "gen": ("--out-upa", "--out-truth"),
    "compare": ("--input", "--out"),
    "oracle": ("--input",),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _PATH_FLAGS.items() for flag in flags
])
def test_empty_path_is_a_usage_error(tmp_path, sparse_file, command, flag):
    truth = tmp_path / "truth.txt"
    truth.write_text("p1 p2\np3\n")
    paths = {"--input": sparse_file, "--truth": truth}
    paths.update((f, tmp_path / f.strip("-")) for f in
                 ("--output", "--metrics", "--out-upa", "--out-truth", "--out"))
    other = {
        "mine": ["--algo", "constrained", "--k", "2"],
        "gen": ["--n-users", "4", "--n-perms", "3", "--n-roles", "2",
                "--max-roles-per-user", "1", "--max-perms-per-role", "2"],
        "compare": ["--k-list", "2"],
        "oracle": ["--k", "2"],
    }[command]
    for f in _PATH_FLAGS[command]:
        other += [f, "" if f == flag else str(paths[f])]
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    proc = run_cli(command, *other)
    assert proc.returncode == 2
    assert f"argument {flag}: the path must not be empty" in proc.stderr
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


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


def test_compare_builds_the_row_index_once_per_matrix(tmp_path, monkeypatch):
    built = []
    build = _rowindex.RowIndex.__init__

    def counting(self, groups, n_perms):
        built.append(n_perms)
        build(self, groups, n_perms)

    monkeypatch.setattr(_rowindex.RowIndex, "__init__", counting)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main([
            "compare", "--gen-spec",
            "n_users=60,n_perms=30,n_roles=8,max_roles_per_user=3,max_perms_per_role=6",
            "--k-list", "2,5,20", "--out", str(tmp_path / "c.csv"), "--seed", "5",
        ])
    assert code == 0, sink.getvalue()
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 1 + 2 * 3
    assert len(built) == 1


@pytest.mark.parametrize("algo", ["constrained", "crm"])
def test_mine_output_does_not_depend_on_the_hash_seed(tmp_path, algo):
    upa, truth = generate(GeneratorParams(
        n_users=120, n_perms=40, n_roles=10,
        max_roles_per_user=3, max_perms_per_role=6, seed=8,
    ))
    (tmp_path / "upa.txt").write_text(serialize_sparse(upa))
    (tmp_path / "truth.txt").write_text(serialize_catalog(truth))
    outputs = []
    for seed in ("0", "12345"):
        out, metrics = tmp_path / f"out{seed}.txt", tmp_path / f"m{seed}.json"
        proc = run_cli(
            "mine", "--algo", algo, "--k", "3",
            "--input", str(tmp_path / "upa.txt"),
            "--truth", str(tmp_path / "truth.txt"),
            "--output", str(out), "--metrics", str(metrics),
            env={"PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(metrics.read_text())
        del report["elapsed_ms"]
        names = Path(f"{out}.names.json").read_bytes()
        outputs.append((out.read_bytes(), names, report))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("fmt", ["sparse", "dense"])
def test_mine_ignores_a_byte_order_mark(tmp_path, fmt):
    upa, truth = generate(GeneratorParams(
        n_users=30, n_perms=12, n_roles=5,
        max_roles_per_user=2, max_perms_per_role=4, seed=4,
    ))
    serialize = serialize_sparse if fmt == "sparse" else serialize_dense
    upa_path, truth_path = tmp_path / "upa.txt", tmp_path / "truth.txt"
    out, metrics = tmp_path / "out.txt", tmp_path / "m.json"
    names = Path(f"{out}.names.json")
    outputs = []
    for mark in ("", "\ufeff"):
        upa_path.write_text(mark + serialize(upa), encoding="utf-8")
        truth_path.write_text(mark + serialize_catalog(truth), encoding="utf-8")
        proc = run_cli(
            "mine", "--algo", "constrained", "--k", "3", "--format", fmt,
            "--input", str(upa_path), "--truth", str(truth_path),
            "--output", str(out), "--metrics", str(metrics),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(metrics.read_text())
        del report["elapsed_ms"]
        sidecar = names.read_bytes() if names.exists() else None
        outputs.append((out.read_bytes(), report, sidecar))
    assert outputs[1] == outputs[0]
    assert outputs[0][1]["accuracy"] is not None
    assert (outputs[0][2] is not None) == (fmt == "sparse")


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


# Short texts near the file formats (sparse pairs, dense rows, catalog role
# lines), arbitrary text and arbitrary bytes.
_TOKENS = st.sampled_from([
    "u1 p1\n", "u2 p2\n", "u1", "p1", "0", "1", "01\n", "10\n", "110", "role",
    "role 0: p1\n", "role 1: p0 p2\n", "0:", "p0", "p-1", "#", "x", " ", "\t",
    "\n", "\r\n",
])
_FILE_BYTES = st.one_of(
    st.lists(_TOKENS, max_size=16).map(lambda t: "".join(t).encode()),
    st.binary(max_size=24),
    st.text(max_size=12).map(lambda t: t.encode("utf-8")),
)


def _not_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(upa_bytes=_FILE_BYTES, truth_bytes=_FILE_BYTES, k=st.integers(-1, 3),
       with_truth=st.booleans())
def test_cli_fuzz_exits_with_documented_codes(upa_bytes, truth_bytes, k, with_truth):
    with tempfile.TemporaryDirectory() as tmp:
        upa, truth, out = Path(tmp, "upa"), Path(tmp, "truth"), str(Path(tmp, "out"))
        upa.write_bytes(upa_bytes)
        truth.write_bytes(truth_bytes)
        truth_args = ["--truth", str(truth)] if with_truth else []
        runs = []
        for fmt in ("sparse", "dense"):
            common = ["--input", str(upa), "--format", fmt]
            for algo in ("constrained", "crm"):
                runs.append(["mine", "--algo", algo, "--k", str(k), *common,
                             *truth_args, "--output", out,
                             "--metrics", out + ".json"])
            runs.append(["oracle", "--k", str(k), *common])
            runs.append(["compare", "--k-list", f"1,{k}", *common, "--out", out])
        for argv in runs:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            assert code in (0, 1, 2), (argv, sink.getvalue())
            if k >= 1 and (_not_utf8(upa_bytes) or (
                    argv[0] == "mine" and with_truth and _not_utf8(truth_bytes))):
                assert code == 1, (argv, sink.getvalue())
