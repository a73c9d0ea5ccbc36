"""End-to-end command-line behavior, run in-process through main(argv)."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from graphmotive import CongruenceVerdict, CountOptions, Multigraph, catalog_by_name, counting
from graphmotive.cli import main, run_verify
from graphmotive.graphs import MAX_VERTICES, GraphParseError

TRIANGLE_TEXT = "# a triangle\n3 3\n0 1\n1 2\n2 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.graph"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


# -- family ----------------------------------------------------------------


def test_family_table(capsys):
    code, out, _ = run(capsys, "family", "banana:3", "--format", "table")
    assert code == 0
    assert out == "2 3\n0 1\n0 1\n0 1\n"


def test_family_json(capsys):
    code, out, _ = run(capsys, "family", "wheel:4")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "wheel:4" and obj["vertex_count"] == 5


def test_family_rejects_bad_specs(capsys):
    assert run(capsys, "family", "cycle:2")[0] == 2
    assert run(capsys, "family", "nosuch:3")[0] == 2
    assert run(capsys, "family", "cycle")[0] == 2


# -- graph input plumbing ----------------------------------------------------


def test_psi_from_file_and_family(capsys, triangle_file):
    code, out, _ = run(capsys, "psi", triangle_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["graph"] == "tri"
    assert obj["psi"]["text"] == "t0 + t1 + t2"
    code, out, _ = run(capsys, "psi", "--family", "banana:3", "--format", "table")
    assert code == 0 and out.strip() == "t0*t1 + t0*t2 + t1*t2"


def test_psi_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(TRIANGLE_TEXT))
    code, out, _ = run(capsys, "psi", "-", "--format", "table")
    assert code == 0 and out.strip() == "t0 + t1 + t2"


def test_psi_accepts_json_graph(capsys, tmp_path):
    g = catalog_by_name()["banana_2"]
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(g.to_json_obj()))
    code, out, _ = run(capsys, "psi", str(path), "--format", "table")
    assert code == 0 and out.strip() == "t0 + t1"


def test_graph_input_errors(capsys, triangle_file, tmp_path):
    code, _, err = run(capsys, "psi", triangle_file, "--family", "cycle:3")
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "psi")
    assert code == 2 and "no graph given" in err
    assert run(capsys, "psi", "/nonexistent/g.txt")[0] == 2
    assert run(capsys, "psi", str(tmp_path))[0] == 2  # a directory


@pytest.mark.parametrize(
    "text",
    ["1000000000000 1\n0 1\n", '{"vertex_count": 1000000000000, "edges": [[0, 1]]}'],
    ids=["edge-list", "json"],
)
def test_vertex_count_bounded_at_parse(capsys, tmp_path, text):
    with pytest.raises(GraphParseError, match="exceeds the limit"):
        Multigraph.parse(text)
    path = tmp_path / "huge.graph"
    path.write_text(text)
    code, _, err = run(capsys, "psi", str(path))
    assert code == 2 and "exceeds the limit" in err
    ok = f"{MAX_VERTICES} 1\n0 1\n"
    assert Multigraph.parse(ok).vertex_count == MAX_VERTICES


def test_counting_too_many_edges_is_input_error(capsys, tmp_path):
    # Refused as input (exit 2), not skipped on budget: the budget check
    # comes before psi is built, so it must not mask psi's variable cap.
    path = tmp_path / "banana64.graph"
    path.write_text("2 64\n" + "0 1\n" * 64)
    for command in ("count", "verify"):
        code, _, err = run(capsys, command, str(path), "--primes", "3")
        assert code == 2 and "edge labels exceed 62" in err


def test_many_edge_file_refused_at_read(src_env, tmp_path):
    # edge_census and the class fit's prime list grow with the edge count, so
    # the file is refused as it is read. A subprocess with a timeout, so a
    # missing check fails instead of hanging.
    path = tmp_path / "banana30000.graph"
    path.write_text("2 30000\n" + "0 1\n" * 30000)
    for argv in (["verify", str(path), "--primes", "3"], ["class", str(path)]):
        proc = subprocess.run(
            [sys.executable, "-m", "graphmotive.cli", *argv],
            capture_output=True, text=True, env=src_env, timeout=20,
        )
        assert proc.returncode == 2 and "edge labels exceed 62" in proc.stderr, argv


def test_sparse_json_labels_still_count(capsys, tmp_path):
    # The read-time cap is on the edge count, not on the largest label.
    path = tmp_path / "sparse.json"
    g = {"vertex_count": 3, "edges": [[0, 1], [1, 2], [2, 0]], "edge_labels": [0, 1, 100]}
    path.write_text(json.dumps(g))
    assert run(capsys, "count", str(path), "--primes", "3")[0] == 0
    assert run(capsys, "verify", str(path), "--primes", "3")[0] == 0


@pytest.mark.parametrize(
    "text",
    [
        '{"vertex_count": 2, "edges": [[0, 1]], "edge_labels": 5}',
        '{"vertex_count": 2, "edges": [[0, 1]], "edge_labels": [null]}',
        '{"vertex_count": 2, "edges": [[0, 1]], "edge_labels": [true]}',
        '{"vertex_count": 2.7, "edges": [[0, 1.9]]}',
        '{"vertex_count": 2, "edges": [[0, 1.9]]}',
        '{"vertex_count": true, "edges": [[0, 0]]}',
        '{"vertex_count": 2, "edges": {"01": 1}}',
    ],
    ids=[
        "labels-int", "labels-null", "labels-bool", "float-count",
        "float-endpoint", "bool-count", "edges-object",
    ],
)
def test_json_graph_numbers_must_be_integers(capsys, tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run(capsys, "count", str(path), "--primes", "3")
    assert code == 2 and out == "" and err.startswith("error:")


def test_family_size_bounded_by_edge_count(capsys):
    # banana builds its edge list in one allocation, so a missing check
    # fails fast with MemoryError instead of growing a list slowly.
    code, _, err = run(capsys, "family", "banana:1000000000000")
    assert code == 2 and "more than 63" in err
    for spec, expected in [
        ("complete:11", 0), ("complete:12", 2), ("wheel:31", 0), ("wheel:32", 2),
        ("dumbbell:62", 0), ("dumbbell:63", 2), ("bouquet:63", 0), ("bouquet:64", 2),
    ]:
        assert run(capsys, "family", spec)[0] == expected, spec


def test_psi_refuses_too_many_forest_candidates(src_env):
    # complete:11 passes the family edge cap, but its spanning forests are
    # 10 of 55 edges: C(55, 10) subsets, refused before the first is tested.
    # A subprocess with a timeout, so a missing check fails instead of hanging.
    proc = subprocess.run(
        [sys.executable, "-m", "graphmotive.cli", "psi", "--family", "complete:11"],
        capture_output=True, text=True, env=src_env, timeout=20,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "29248649430 edge subsets exceed the limit 10000000" in proc.stderr


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("2 1\n0 nope\n")
    code, _, err = run(capsys, "psi", str(path))
    assert code == 2 and "line 2" in err


# -- count -------------------------------------------------------------------


def test_count_json_lines(capsys):
    code, out, _ = run(capsys, "count", "--family", "cycle:3", "--primes", "3,5")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["q"], r["affine_zero_count"], r["complement_count"]) for r in rows] == [
        (3, 9, 18),
        (5, 25, 100),
    ]
    assert all(r["graph"] == "cycle:3" for r in rows)


def test_count_table(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "cycle:3", "--primes", "3", "--format", "table"
    )
    assert code == 0 and "affine_zeros" in out and " 9" in out


def test_count_skips_over_budget(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "banana:8", "--primes", "3,5", "--budget", "10"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 2 and all("skipped" in r for r in rows)


def test_count_rejects_bad_primes(capsys):
    assert run(capsys, "count", "--family", "cycle:3", "--primes", "3,4")[0] == 2
    assert run(capsys, "count", "--family", "cycle:3", "--primes", "3,3")[0] == 2
    assert run(capsys, "count", "--family", "cycle:3", "--primes", "x")[0] == 2
    assert run(capsys, "count", "--family", "cycle:3", "--primes", "")[0] == 2
    assert run(capsys, "count", "--family", "cycle:3", "--primes", ",")[0] == 2


# -- class -------------------------------------------------------------------


def test_class_json(capsys):
    code, out, _ = run(capsys, "class", "--family", "cycle:3")
    assert code == 0
    obj = json.loads(out)
    assert obj["class"]["text"] == "L^3 - L^2"
    assert obj["hodge_constant"] == 0 and obj["matches_predicted"] is True


def test_class_table(capsys):
    code, out, _ = run(capsys, "class", "--family", "bouquet:2", "--format", "table")
    assert code == 0 and "L^2 - 2*L + 1" in out and "ok" in out


def test_class_skips_over_budget(capsys):
    code, out, _ = run(capsys, "class", "--family", "banana:4", "--budget", "100")
    assert code == 0 and "skipped_budget" in json.loads(out)


def test_class_refuses_budget_before_any_sweep(capsys, sweeps):
    code, out, _ = run(capsys, "class", "--family", "banana:4", "--budget", "10000")
    assert code == 0 and sweeps == []
    assert json.loads(out)["skipped_budget"] == (
        "fibered count over F_19^3 needs 13718 point evaluations, budget is 10000"
    )


def test_class_mismatch_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr("graphmotive.cli.predicted_sb_constant", lambda g: 7)
    code, out, _ = run(capsys, "class", "--family", "cycle:3")
    assert code == 1 and json.loads(out)["matches_predicted"] is False
    # verify reads the same class-match rule, under the same patch.
    code, out, _ = run(capsys, "verify", "--family", "cycle:3", "--primes", "3")
    assert code == 1
    assert json.loads(out)["graphs"][0]["class"]["matches_predicted"] is False


# -- dc-check ------------------------------------------------------------------


def test_dc_check_all_edges(capsys):
    code, out, _ = run(capsys, "dc-check", "--family", "cycle:3", "--primes", "3,5")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and len(obj["verdicts"]) == 3
    assert all(len(v["observed"]) == 2 for v in obj["verdicts"])


def test_dc_check_single_edge(capsys):
    code, out, _ = run(
        capsys, "dc-check", "--family", "dumbbell:3", "--primes", "3", "--edge", "3"
    )
    assert code == 0
    obj = json.loads(out)
    assert [v["tag"] for v in obj["verdicts"]] == ["dc-loop"]
    code, out, _ = run(
        capsys,
        "dc-check", "--family", "cycle:3", "--primes", "3,5",
        "--edge", "1", "--format", "table",
    )
    assert code == 0 and "edge 1" in out and "ok" in out


# -- verify ----------------------------------------------------------------------


def test_verify_report_shape_and_determinism(capsys, tmp_path):
    f1, f2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    common = ("verify", "--family", "cycle:3", "--family", "banana:2", "--primes", "3,5")
    assert run(capsys, *common, "--out", f1)[0] == 0
    assert run(capsys, *common, "--workers", "3", "--out", f2)[0] == 0
    b1 = Path(f1).read_bytes()
    assert b1 == Path(f2).read_bytes()
    report = json.loads(b1)
    assert report["schema"] == 1 and report["pass"] is True
    assert [e["name"] for e in report["graphs"]] == ["cycle:3", "banana:2"]
    entry = report["graphs"][0]
    assert entry["verdicts"]["modL"]["pass"] is True
    assert entry["class"]["candidate"]["text"] == "L^3 - L^2"
    assert entry["class"]["matches_predicted"] is True
    assert "workers" not in report


def test_verify_accepts_graph_files(capsys, triangle_file):
    code, out, _ = run(capsys, "verify", triangle_file, "--primes", "3")
    assert code == 0
    report = json.loads(out)
    assert report["graph_count"] == 1 and report["graphs"][0]["name"] == "tri"


def test_verify_table(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "cycle:3", "--primes", "3", "--format", "table"
    )
    assert code == 0
    assert "cycle:3" in out and "overall: pass" in out


def test_verify_skips_over_budget(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "banana:8", "--primes", "3", "--budget", "10"
    )
    assert code == 0
    report = json.loads(out)
    assert "skipped" in report["graphs"][0] and report["pass"] is True


def test_verify_counts_each_graph_prime_once(sweeps):
    g = catalog_by_name()["cycle_4"]
    opts = CountOptions(budget=10**7)
    _, ok = run_verify([("cycle_4", g)], (3, 5, 7), opts)
    assert ok and len(sweeps) == 31  # 40 without the per-graph memo
    # The memo ends with the verified graph: a later count sweeps again.
    sweeps.clear()
    counting.count_graph(g, 3, opts=opts)
    assert sweeps == [3]


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    def failing(g, primes, graph_name=None, **kw):
        return CongruenceVerdict(
            graph=graph_name or "g",
            tag="modL",
            expected="0 mod q",
            observed=((3, 1, 0),),
        )

    monkeypatch.setattr("graphmotive.cli.check_modL_congruence", failing)
    code, out, _ = run(capsys, "verify", "--family", "cycle:3", "--primes", "3")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False and report["graphs"][0]["pass"] is False


@pytest.mark.parametrize("command", ["count", "class", "dc-check", "verify"])
@pytest.mark.parametrize(
    "flag,value",
    [
        pytest.param("--workers", "0", id="--workers"),
        pytest.param("--budget", "0", id="--budget"),
        pytest.param("--workers", str(counting.MAX_WORKERS + 1), id="--workers-over-cap"),
    ],
)
def test_verify_rejects_bad_workers(capsys, command, flag, value):
    # Refused by CountOptions, before any count or thread pool starts.
    code, _, err = run(capsys, command, "--family", "cycle:3", flag, value)
    assert code == 2 and flag.lstrip("-") in err


# -- argparse level ----------------------------------------------------------------


def test_bad_method_choice_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--family", "cycle:3", "--method", "magic"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag,value", [("--primes", "3"), ("--budget", "10"), ("--method", "brute"), ("--workers", "1")]
)
@pytest.mark.parametrize(
    "argv", [["psi", "--family", "cycle:3"], ["family", "cycle:3"]], ids=["psi", "family"]
)
def test_non_counting_commands_reject_counting_flags(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    capsys.readouterr()


def test_package_import_leaves_cli_out(src_env):
    code = "import sys, graphmotive; sys.exit('graphmotive.cli' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=src_env).returncode == 0
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "graphmotive.cli", "family", "cycle:3"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_hooks_selftest(src_env):
    # The benchmark wraps counting, motive and cli names by attribute; its
    # self-test fails when one of them is renamed, inlined or bypassed.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        capture_output=True, text=True, env=src_env, cwd=root, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
