"""End-to-end command-line behavior, run in-process through main(argv)."""

from __future__ import annotations

import functools
import io
import json
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from graphmotive import (
    CongruenceVerdict,
    CountOptions,
    Multigraph,
    catalog_by_name,
    cli,
    counting,
    interpolate_class,
    motive,
)
from graphmotive.cli import main, run_verify
from graphmotive.families import FamilySpec, generate_family
from graphmotive.graphs import MAX_EDGES, MAX_VERTICES, Edge, GraphParseError

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


@pytest.mark.parametrize(
    "text",
    ["2 64\n", json.dumps({"vertex_count": 2, "edges": [[0, 1]] * 64})],
    ids=["edge-list", "json"],
)
def test_edge_count_bounded_at_parse(text):
    # The edge-list header alone is refused: no edge line is read.
    with pytest.raises(GraphParseError, match="edge labels exceed 62"):
        Multigraph.parse(text)
    ok = f"2 {MAX_EDGES}\n" + "0 1\n" * MAX_EDGES
    assert Multigraph.parse(ok).edge_count == MAX_EDGES


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


# Runs argv from a small interpreter and prints its exit code and peak RSS.
# A child forked from pytest starts with pytest's own peak (about 70 MB), so
# a bound under that must measure a child of a small parent.
_PEAK_RSS = """
import os, subprocess, sys, threading
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
watchdog = threading.Timer(60, proc.kill)
watchdog.start()
err = proc.stderr.read()
_, status, usage = os.wait4(proc.pid, 0)
watchdog.cancel()
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
sys.stdout.write(err.decode())
"""


def _refused_peak_kb(path, env):
    argv = [sys.executable, "-m", "graphmotive.cli", "count", str(path), "--primes", "3"]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv],
        capture_output=True, text=True, env=env, timeout=90,
    )
    head, _, err = proc.stdout.partition("\n")
    code, peak_kb = map(int, head.split())
    assert code == 2 and "edge labels exceed 62" in err, path.name
    return peak_kb


def test_million_edge_file_refused_in_little_memory(src_env, tmp_path):
    # 1,000,000 edges as an edge list (4 MB), refused at its header, so no
    # graph is built: what is left is the import (about 38 MB) and the text.
    path = tmp_path / "banana.graph"
    path.write_text("2 1000000\n" + "0 1\n" * 1_000_000)
    peak_kb = _refused_peak_kb(path, src_env)
    assert peak_kb < 60 * 1024, peak_kb


def test_million_edge_json_stops_parsing_early(src_env, tmp_path):
    # json.loads refuses the 192nd integer, so the document is never built:
    # what is left is the import (about 38 MB) and the 8 MB of text.
    path = tmp_path / "banana.json"
    path.write_text(json.dumps({"vertex_count": 2, "edges": [[0, 1]] * 1_000_000}))
    peak_kb = _refused_peak_kb(path, src_env)
    assert peak_kb < 60 * 1024, peak_kb


def test_json_integer_cap_admits_the_largest_graph():
    # `family` writes a schema number and 63 labelled edges: 2 + 3 * 63
    # integers, the most the parser reads
    edges = [[0, 1]] * MAX_EDGES
    largest = {
        "schema": 1, "vertex_count": 2, "edges": edges, "edge_labels": list(range(MAX_EDGES)),
    }
    assert Multigraph.parse(json.dumps(largest)).edge_count == MAX_EDGES
    with pytest.raises(GraphParseError, match="edge labels exceed 62"):
        Multigraph.parse(json.dumps({**largest, "extra": [0]}))


@pytest.mark.parametrize(
    "name,m",
    [("cycle", 63), ("banana", 63), ("tree_path", 63), ("bouquet", 63),
     ("complete", 11), ("wheel", 31), ("dumbbell", 62)],
)
def test_family_json_at_its_largest_size_parses_back(capsys, name, m):
    assert run(capsys, "family", f"{name}:{m + 1}")[0] == 2  # m is the largest
    code, out, _ = run(capsys, "family", f"{name}:{m}")
    assert code == 0
    assert Multigraph.parse(out) == generate_family(FamilySpec(name, m))


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


def test_count_rejects_strong_pseudoprime(capsys, tmp_path):
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to the
    # bases 2..37; an edgeless graph needs no sweep, so only the test stops it
    path = tmp_path / "edgeless.graph"
    path.write_text("2 0\n")
    code, out, err = run(capsys, "count", str(path), "--primes", "318665857834031151167461")
    assert code == 2 and out == "" and "not prime" in err


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
    g = catalog_by_name()["diamond"]
    _, ok = run_verify([("diamond", g)], (3, 5, 7), CountOptions(budget=10**7))
    # One sweep per prime of the class fit (3..23): the diamond's series
    # merges leave banana_3, whose three edges are one orbit, so Z at every
    # edge reads that sweep, and the deletions, a 4-cycle and a triangle
    # with a tail, reduce to a loop and sweep nothing.
    assert ok and len(sweeps) == 8
    # The memo ends with the run: a later count sweeps again.
    sweeps.clear()
    counting.count_graph(g, 3)
    assert sweeps == [3]


def test_catalog_verify_work_is_pinned(monkeypatch):
    # The catalog verify at primes 3,5,7 and budget 10^7: 35 sweeps, 7 psi
    # builds and 61 canonical searches, and 8 budget refusals, the class
    # fits refused after the small primes were counted. Each DC verdict
    # classifies and deletes its edge once (145 edges in all) and reads its
    # left sides from the table of the graph's counts: 912 count requests.
    # count_Z reads regularity from the reduction and classifies nothing.
    spied = (
        (counting, "sweep_zero_patterns"),
        (counting, "psi_by_deletion_contraction"),
        (counting, "canonical_relabel"),
        (motive, "count_graph"),
        (motive, "classify_edge"),
        (motive, "delete_edge"),
        (counting, "classify_edge"),
    )
    work = dict.fromkeys(spied, 0)
    for module, name in spied:
        fn = getattr(module, name)

        def spy(*args, fn=fn, key=(module, name), **kw):
            work[key] += 1
            return fn(*args, **kw)

        monkeypatch.setattr(module, name, spy)
    refused = []
    check = counting._check_budget

    def spy_check(cost, what):
        try:
            check(cost, what)
        except counting.BudgetExceededError:
            refused.append(what)
            raise

    monkeypatch.setattr(counting, "_check_budget", spy_check)
    _, ok = run_verify(list(catalog_by_name().items()), (3, 5, 7), CountOptions(budget=10**7))
    assert ok and len(refused) == 8
    assert list(work.values()) == [35, 7, 61, 912, 145, 145, 0]


def test_verify_sweeps_do_not_depend_on_edge_labels(monkeypatch):
    # The memo keys sweeps by canonical forms, so renaming the vertices and
    # relabelling the edges of every graph of one verify run adds or
    # removes no memo hit: same sweeps, same points.
    work = []
    sweep = counting.sweep_zero_patterns

    def spy(polys, q, **kw):
        work.append(len(polys) * q ** polys[0].var_count)
        return sweep(polys, q, **kw)

    monkeypatch.setattr(counting, "sweep_zero_patterns", spy)
    seen = set()
    for seed in range(4):
        rng = random.Random(seed)
        renamed = []
        for name, g in catalog_by_name().items():
            old, vertex = sorted(g.labels), range(g.vertex_count)
            if seed:  # seed 0 keeps the catalog's own names
                vertex = rng.sample(vertex, len(vertex))
            rank = dict(zip(old, rng.sample(old, len(old)) if seed else old))
            edges = tuple(Edge(rank[e.label], vertex[e.u], vertex[e.v]) for e in g.edges)
            renamed.append((name, Multigraph(g.vertex_count, edges)))
        work.clear()
        run_verify(renamed, (3, 5, 7), CountOptions(budget=10**7))
        seen.add(tuple(sorted(work)))
    assert len(seen) == 1


def test_verify_report_identical_for_any_workers(monkeypatch):
    # workers is each sweep's thread count, in verify as in every count:
    # small blocks make catalog sweeps span several, so 4 lanes run (more
    # threads than cores, switching often), and the report must match one
    # thread's byte for byte while every graph is verified on this thread.
    named = list(catalog_by_name().items())
    one, _ = run_verify(named, (3, 5, 7), CountOptions(budget=10**7))
    small_chunks = functools.partial(counting.sweep_zero_patterns, chunk_points=100)
    monkeypatch.setattr(counting, "sweep_zero_patterns", small_chunks)
    pools, threads = [], set()
    pool = counting.ThreadPoolExecutor

    def spy_pool(*args, **kwargs):
        made = pool(*args, **kwargs)
        pools.append(made._max_workers)
        return made

    monkeypatch.setattr(counting, "ThreadPoolExecutor", spy_pool)
    verify_graph = cli._verify_graph
    monkeypatch.setattr(
        cli, "_verify_graph", lambda *a: threads.add(threading.get_ident()) or verify_graph(*a)
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        t0 = time.perf_counter()
        four, _ = run_verify(named, (3, 5, 7), CountOptions(budget=10**7, workers=4))
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - t0 < 30
    assert json.dumps(one, sort_keys=True) == json.dumps(four, sort_keys=True)
    assert threads == {threading.get_ident()}
    assert 4 in pools  # some sweeps span 4 blocks or more


def test_dc_check_builds_each_psi_once(capsys, monkeypatch):
    built = []
    build = counting.psi_by_deletion_contraction

    def spy(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(counting, "psi_by_deletion_contraction", spy)
    code, _, _ = run(capsys, "dc-check", "--family", "wheel:4", "--primes", "3,5,7")
    assert code == 0 and len(built) == len(set(built))


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--family", "wheel:4", "--primes", "3,5,7,11"),
        ("class", "--family", "complete:4"),  # the first 9 primes
    ],
    ids=["count", "class"],
)
def test_count_and_class_build_psi_once(capsys, monkeypatch, argv):
    built = []
    build = counting.psi_by_deletion_contraction
    monkeypatch.setattr(counting, "psi_by_deletion_contraction", lambda g: built.append(g) or build(g))
    assert run(capsys, *argv)[0] == 0 and len(built) == 1
    interpolate_class(catalog_by_name()["complete_4"])  # library callers share one block too
    assert len(built) == 2


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


def test_no_runtime_path_needs_sympy(src_env):
    code = textwrap.dedent(
        f"""
        import sys
        sys.modules["sympy"] = None  # any import of sympy now fails
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        import graphmotive
        from graphmotive import cli, standard_catalog
        from graphmotive import psi_by_deletion_contraction, psi_by_trees
        from _oracles import psi_by_matrix_tree
        for name, g in standard_catalog():
            p = psi_by_trees(g)
            assert psi_by_matrix_tree(g) == p == psi_by_deletion_contraction(g), name
        sys.exit(cli.main(["verify", "--family", "wheel:3", "--primes", "3,5,7"]))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=src_env, timeout=120
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
    assert "selftest: ok" in proc.stdout
