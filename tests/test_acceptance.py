"""Acceptance checks, one test per criterion, run in order.

Each test prints a single summary line straight to the terminal (bypassing
capture) so a full run shows ten pass/fail lines with timings. Expected
values are either structural (exact identities) or frozen from the
independent enumeration oracle in tests/_oracles.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import _oracles
from graphmotive import (
    ClassPoly,
    CountOptions,
    CountRecord,
    betti_1,
    catalog_by_name,
    check_modL_congruence,
    check_projective_congruence,
    count_graph,
    count_poly,
    dc_identity_matrix,
    disjoint_union,
    edge_census,
    interpolate_class,
    is_forest,
    predicted_sb_constant,
    psi_by_deletion_contraction,
    psi_by_trees,
    shared_counts,
    standard_catalog,
)

CATALOG = standard_catalog()
CAT = dict(CATALOG)


def announce(capsys, num, label, ok, seconds):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({seconds:.2f}s)")


def test_01_three_route_equality(capsys):
    t0 = time.perf_counter()
    mismatched = []
    for name, g in CATALOG:
        p = psi_by_trees(g)
        if _oracles.psi_by_matrix_tree(g) != p or psi_by_deletion_contraction(g) != p:
            mismatched.append(name)
    elapsed = time.perf_counter() - t0
    ok = not mismatched and elapsed < 10.0
    announce(capsys, 1, f"three psi routes agree on {len(CATALOG)} graphs", ok, elapsed)
    assert mismatched == []
    assert elapsed < 10.0


def test_02_psi_structural_invariants(capsys):
    t0 = time.perf_counter()
    bad = []
    for name, g in CATALOG:
        p = psi_by_trees(g)
        forests = len(_oracles.forest_label_sets(g))
        if set(p.terms.values()) not in ({1}, set()):
            bad.append((name, "coefficients"))
        if not p.is_homogeneous() or p.degree() != betti_1(g):
            bad.append((name, "degree"))
        if p.term_count() != forests:
            bad.append((name, "term count"))
        if sum(p.terms.values()) != forests:
            bad.append((name, "value at all-ones"))
    elapsed = time.perf_counter() - t0
    announce(capsys, 2, "coefficients/degree/forest count invariants", not bad, elapsed)
    assert bad == []


def test_03_fibered_matches_brute(capsys):
    t0 = time.perf_counter()
    comparisons = 0
    bad = []
    for name, g in CATALOG:
        if g.edge_count > 6:
            continue
        p = psi_by_deletion_contraction(g)
        for q in (3, 5, 7, 11, 13):
            with shared_counts(CountOptions("brute")):
                reference = count_poly(p, q)
            with shared_counts(CountOptions("fibered")):
                for e in range(p.var_count):
                    comparisons += 1
                    if count_poly(_oracles.move_last(p, e), q) != reference:
                        bad.append((name, e, q))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    announce(capsys, 3, f"fibered = brute across {comparisons} splits", ok, elapsed)
    assert bad == []
    assert elapsed < 60.0


def test_04_complement_congruence(capsys):
    t0 = time.perf_counter()
    failures = []
    for name, g in CATALOG:
        verdict = check_modL_congruence(g, (3, 5, 7, 11, 13), graph_name=name)
        if not verdict.passed:
            failures.append((name, verdict.observed))
    elapsed = time.perf_counter() - t0
    announce(
        capsys, 4, "complement = predicted constant mod q, 5 primes", not failures, elapsed
    )
    assert failures == []


def test_05_deletion_contraction_identities(capsys):
    t0 = time.perf_counter()
    failures = []
    tags = set()
    for name, g in CATALOG:
        for verdict in dc_identity_matrix(g, (3, 5, 7), graph_name=name):
            tags.add(verdict.tag)
            if not verdict.passed:
                failures.append((name, verdict.edge))
    elapsed = time.perf_counter() - t0
    ok = not failures and tags == {"dc-bridge", "dc-loop", "dc-regular"}
    announce(capsys, 5, "integer dc identity for every edge, 3 primes", ok, elapsed)
    assert failures == []
    assert tags == {"dc-bridge", "dc-loop", "dc-regular"}


def test_06_projective_congruence(capsys):
    t0 = time.perf_counter()
    applicable = []
    failures = []
    for name, g in CATALOG:
        if is_forest(g) or edge_census(g)["regular"] == 0:
            continue
        applicable.append(name)
        verdict = check_projective_congruence(g, (3, 5, 7, 11), graph_name=name)
        if not (verdict.applicable and verdict.passed):
            failures.append(name)
    elapsed = time.perf_counter() - t0
    ok = not failures and len(applicable) >= 20
    announce(
        capsys,
        6,
        f"projective count = 1 mod q on {len(applicable)} non-forests",
        ok,
        elapsed,
    )
    assert failures == []
    assert len(applicable) >= 20


def test_07_interpolated_classes(capsys):
    L = ClassPoly.lefschetz()
    expected = {
        "single_edge": L,
        "path_2": L**2,
        "path_3": L**3,
        "path_5": L**5,
        "star_3": L**3,
        "forest_two_paths": L**3,
        "bouquet_2": ClassPoly((-1, 1)) ** 2,
        "bouquet_3": ClassPoly((-1, 1)) ** 3,
        "bouquet_4": ClassPoly((-1, 1)) ** 4,
        "cycle_3": ClassPoly((0, 0, -1, 1)),
    }
    t0 = time.perf_counter()
    bad = []
    for name, want in expected.items():
        got = interpolate_class(CAT[name], graph_name=name)
        if got != want:
            bad.append((name, got))
            continue
        constant = got.constant_term()
        if constant not in (-1, 0, 1) or constant != predicted_sb_constant(CAT[name]):
            bad.append((name, "constant"))
    elapsed = time.perf_counter() - t0
    announce(capsys, 7, f"{len(expected)} classes with held-out confirmation", not bad, elapsed)
    assert bad == []


def test_08_class_multiplicativity(capsys):
    pairs = [
        ("single_edge", "single_loop"),
        ("single_edge", "single_edge"),
        ("cycle_3", "single_edge"),
        ("banana_2", "single_loop"),
        ("cycle_3", "cycle_3"),
    ]
    t0 = time.perf_counter()
    bad = []
    for a, b in pairs:
        union = disjoint_union(CAT[a], CAT[b])
        whole = interpolate_class(union, graph_name=f"{a}|{b}")
        parts = interpolate_class(CAT[a]) * interpolate_class(CAT[b])
        if not isinstance(whole, ClassPoly) or whole != parts:
            bad.append((a, b))
    elapsed = time.perf_counter() - t0
    announce(capsys, 8, f"disjoint-union classes multiply, {len(pairs)} pairs", not bad, elapsed)
    assert bad == []


def test_09_large_sweep_performance(capsys):
    g = CAT["wheel_4"]
    t0 = time.perf_counter()
    with shared_counts(CountOptions("fibered", workers=1)):
        single = count_graph(g, 11)
    elapsed = time.perf_counter() - t0
    with shared_counts(CountOptions("fibered", workers=4)):  # a sibling block: no memo hit
        parallel = count_graph(g, 11)
    expected = CountRecord(11, 8, 19887681, 194471200, projective_count=1988768)
    ok = elapsed < 60.0 and single == parallel == expected
    announce(capsys, 9, "8-edge fibered count at q=11, parallel identical", ok, elapsed)
    assert single == expected
    assert parallel == expected
    assert elapsed < 60.0


def test_10_verify_byte_identical(capsys, tmp_path, src_env):
    t0 = time.perf_counter()
    blobs = []
    for i, workers in ((1, "1"), (2, "3")):
        out = tmp_path / f"report{i}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "graphmotive.cli", "verify",
                "--primes", "3,5,7", "--budget", "10000000",
                "--workers", workers, "--out", str(out),
            ],
            capture_output=True,
            text=True,
            env=src_env,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    report = json.loads(blobs[0])
    ok = blobs[0] == blobs[1] and report["pass"] is True and report["graph_count"] == len(CATALOG)
    announce(capsys, 10, "two catalog verify runs byte-identical", ok, elapsed)
    assert blobs[0] == blobs[1]
    assert report["pass"] is True
    assert report["graph_count"] == len(CATALOG)
