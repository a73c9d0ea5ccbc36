"""Seeded inputs, frozen expected values and output checks per workload.

The seed permutes every input graph's edge labels and vertex names. Point
counts, classes and verdicts are invariant under relabeling, so the frozen
values below hold for every seed; only graph ids in the verify report (and
so its hash) depend on the seed.
"""

from __future__ import annotations

import json
import os
import random

from graphmotive.families import FamilySpec, generate_family, standard_catalog
from graphmotive.graphs import Edge, Multigraph
from graphmotive.symanzik import psi_by_trees

VERIFY_ARGS = ["--primes", "3,5,7", "--budget", "10000000"]
COUNT_ARGS = ["--primes", "11", "--method", "fibered"]
COUNT_WORKERS = (1, 2)
PSI_SPECS = (
    "wheel:7", "wheel:8", "wheel:9", "wheel:10",
    "complete:6", "complete:7", "dumbbell:12", "banana:12",
)

CATALOG_SIZE = 37
# Values frozen in tests/test_acceptance.py::test_07, copied as ascending
# coefficient lists of polynomials in L.
FROZEN_CLASSES = {
    "single_edge": [0, 1],
    "path_2": [0, 0, 1],
    "path_3": [0, 0, 0, 1],
    "path_5": [0, 0, 0, 0, 0, 1],
    "star_3": [0, 0, 0, 1],
    "forest_two_paths": [0, 0, 0, 1],
    "bouquet_2": [1, -2, 1],
    "bouquet_3": [-1, 3, -3, 1],
    "bouquet_4": [1, -4, 6, -4, 1],
    "cycle_3": [0, 0, -1, 1],
}
# Graphs that get a class candidate under VERIFY_ARGS at the commit that
# introduced this benchmark. Losing one to a budget skip is a failure, so
# skipping work cannot pass as a speed-up.
CLASS_CANDIDATES = frozenset({
    "edgeless", "single_edge", "single_loop", "path_2", "path_3", "path_5",
    "star_3", "forest_two_paths", "bouquet_2", "bouquet_3", "bouquet_4",
    "banana_2", "banana_3", "banana_4", "banana_5", "cycle_3", "cycle_4",
    "cycle_5", "dumbbell_3", "dumbbell_4", "triangle_tail", "diamond",
    "c3_isolated", "disjoint_c3_edge", "disjoint_loops", "loop_bridge",
    "banana2_loop", "parallel_path_double", "star3_loop",
})

WHEEL4_COUNT = {
    "q": 11,
    "n": 8,
    "affine_zero_count": 19887681,
    "complement_count": 194471200,
    "projective_count": 1988768,
}


def relabel(g: Multigraph, rng: random.Random, labels: bool = True) -> Multigraph:
    """Permute vertex names and, unless labels is False, edge labels."""
    old = sorted(g.labels)
    new = old[:]
    if labels:
        rng.shuffle(new)
    label = dict(zip(old, new))
    vertex = list(range(g.vertex_count))
    rng.shuffle(vertex)
    return Multigraph(
        g.vertex_count,
        tuple(Edge(label[e.label], vertex[e.u], vertex[e.v]) for e in g.edges),
    )


def _write_graph(directory: str, name: str, g: Multigraph) -> str:
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(g.to_json_obj(), fh, sort_keys=True)
    return path


def make_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write the seeded input graphs; return the manifest the worker reads."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(directory, exist_ok=True)
    if workload == "verify_catalog":
        graphs = [_write_graph(directory, name, relabel(g, rng)) for name, g in standard_catalog()]
        return {
            "graphs": graphs,
            "args": VERIFY_ARGS + ["--workers", "1"],
            "out": os.path.join(directory, "report.json"),
        }
    if workload == "count_wheel4":
        wheel = generate_family(FamilySpec("wheel", 4))
        counts, seen = [], []
        for i, workers in enumerate(COUNT_WORKERS):
            g = relabel(wheel, rng)
            while psi_by_trees(g) in seen:  # a result cache must not hit
                g = relabel(wheel, rng)
            seen.append(psi_by_trees(g))
            sub = os.path.join(directory, f"w{workers}")
            os.makedirs(sub, exist_ok=True)
            counts.append({
                "graph": _write_graph(sub, "wheel_4", g),
                "workers": workers,
                "out": os.path.join(directory, f"count{i}.jsonl"),
            })
        return {"counts": counts, "args": COUNT_ARGS}
    if workload == "psi_build":
        graphs = [
            {
                "spec": spec,
                "path": _write_graph(directory, spec.replace(":", "_"),
                                     relabel(generate_family(FamilySpec.parse(spec)), rng,
                                             labels=False)),
            }
            for spec in PSI_SPECS
        ]
        return {"graphs": graphs}
    raise ValueError(f"unknown workload {workload!r}")


def _lucas(k: int) -> int:
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def tree_count(spec: str) -> int:
    """Closed-form spanning-tree count of a family graph."""
    parsed = FamilySpec.parse(spec)
    name, m = parsed.name, parsed.m
    if name == "wheel":
        return _lucas(2 * m) - 2
    if name == "complete":
        return m ** (m - 2)
    if name in ("dumbbell", "banana", "cycle"):
        return m
    raise ValueError(f"no closed form for {spec}")


def check_pass(workload: str, manifest: dict, outputs: dict | None) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) for one pass; outputs is
    None when the worker itself failed."""
    ops = {"verify_catalog": CATALOG_SIZE, "count_wheel4": len(COUNT_WORKERS)}.get(
        workload, len(PSI_SPECS)
    )
    if outputs is None:
        return ops, ["worker failed"] * ops
    if workload == "verify_catalog":
        return ops, _check_verify(manifest, outputs)
    if workload == "count_wheel4":
        return ops, _check_counts(manifest, outputs)
    return ops, _check_psi(outputs)


def _check_verify(manifest: dict, outputs: dict) -> list[str]:
    errors = []
    if outputs["exit"] != [0]:
        errors.append(f"verify exited {outputs['exit']}")
    try:
        with open(manifest["out"], "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"verify report unreadable: {exc}"] * CATALOG_SIZE
    if report.get("pass") is not True or report.get("graph_count") != CATALOG_SIZE:
        errors.append(f"report pass={report.get('pass')} graph_count={report.get('graph_count')}")
    expected_names = [os.path.splitext(os.path.basename(p))[0] for p in manifest["graphs"]]
    entries = {e.get("name"): e for e in report.get("graphs", [])}
    for name in expected_names:
        entry = entries.get(name)
        if entry is None or entry.get("pass") is not True:
            errors.append(f"{name}: missing or not passed")
            continue
        candidate = entry.get("class", {}).get("candidate")
        if name in CLASS_CANDIDATES and candidate is None:
            errors.append(f"{name}: no class candidate ({entry.get('class')})")
        elif name in FROZEN_CLASSES and candidate["coefficients"] != FROZEN_CLASSES[name]:
            errors.append(f"{name}: class {candidate['coefficients']} != {FROZEN_CLASSES[name]}")
    return errors


def _check_counts(manifest: dict, outputs: dict) -> list[str]:
    if len(outputs["exit"]) != len(manifest["counts"]):
        return [f"ran {len(outputs['exit'])} of {len(manifest['counts'])} counts"] * len(manifest["counts"])
    errors = []
    for count, code in zip(manifest["counts"], outputs["exit"]):
        label = f"count workers={count['workers']}"
        if code != 0:
            errors.append(f"{label}: exited {code}")
            continue
        try:
            with open(count["out"], "r", encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh if line.strip()]
        except (OSError, ValueError) as exc:
            errors.append(f"{label}: output unreadable: {exc}")
            continue
        got = [{k: row.get(k) for k in WHEEL4_COUNT} for row in rows]
        if got != [WHEEL4_COUNT]:
            errors.append(f"{label}: {rows} != {WHEEL4_COUNT}")
    return errors


def _check_psi(outputs: dict) -> list[str]:
    errors = []
    by_spec = {row["spec"]: row for row in outputs["psi"]}
    for spec in PSI_SPECS:
        row = by_spec.get(spec)
        want = tree_count(spec)
        if row is None:
            errors.append(f"{spec}: not built")
        elif not row["routes_agree"]:
            errors.append(f"{spec}: trees and deletion-contraction differ")
        elif row["terms"] != want:
            errors.append(f"{spec}: {row['terms']} terms, closed form gives {want}")
    return errors
