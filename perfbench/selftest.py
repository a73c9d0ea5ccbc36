"""Self-test of the benchmark's tracing, run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that (1) a `graphmotive verify` report is byte-identical with the
tracer installed and without it, (2) every wrapped module attribute is the
original object again after Tracer.restore(), (3) the trace holds the
spans the per-layer metrics read, and (4) self time subtracts exactly the
part of a span that its children cover. Exits 0 when all hold, else 1.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from graphmotive import cli, counting, graphs, motive, symanzik  # noqa: E402
from graphmotive.families import catalog_by_name  # noqa: E402

from tracer import Tracer, self_times  # noqa: E402
from worker import install  # noqa: E402
from workloads import VERIFY_ARGS, relabel  # noqa: E402

# Cheap graphs that still reach every verdict kind and one budget skip.
GRAPHS = ("single_edge", "bouquet_2", "banana_3", "cycle_3", "cycle_6", "diamond", "loop_bridge")


def _snapshot() -> dict:
    return {
        (mod.__name__, attr): obj
        for mod in (cli, counting, graphs, motive, symanzik)
        for attr, obj in vars(mod).items()
        if callable(obj)
    }


def _verify_bytes(paths: list[str], out: str) -> bytes:
    code = cli.main(["verify", *paths, *VERIFY_ARGS, "--workers", "1", "--out", out])
    if code != 0:
        raise SystemExit(f"verify exited {code}")
    with open(out, "rb") as fh:
        return fh.read()


def main() -> int:
    failures = []
    catalog = catalog_by_name()
    rng = random.Random("selftest")
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench_selftest") as tmp:
        paths = []
        for name in GRAPHS:
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(relabel(catalog[name], rng).to_json_obj(), fh)
            paths.append(path)

        plain = _verify_bytes(paths, os.path.join(tmp, "plain.json"))
        before = _snapshot()
        tracer = Tracer()
        install(tracer)
        with tracer.span("cli.main"):
            traced = _verify_bytes(paths, os.path.join(tmp, "traced.json"))
        tracer.restore()
        after = _snapshot()

    if plain != traced:
        failures.append("verify report bytes differ with tracing on")
    changed = sorted(f"{mod}.{attr}" for (mod, attr), obj in before.items()
                     if after.get((mod, attr)) is not obj)
    if changed or before.keys() != after.keys():
        failures.append(f"attributes not restored: {changed}")
    names = {s["name"] for s in tracer.spans}
    for want in ("cli.verify", "cli.verify_graph", "motive.modL", "motive.lrat",
                 "motive.dc_matrix", "motive.interpolate", "counting.count",
                 "counting.count_Z", "counting.sweep", "symanzik.psi_dc"):
        if want not in names:
            failures.append(f"no {want} span recorded")
    if tracer.counts["graphs.minors"] == 0 or tracer.counts["counting.budget_refused"] == 0:
        failures.append(f"counters missing: {dict(tracer.counts)}")
    if len({s["req"] for s in tracer.spans if s["name"] == "cli.verify_graph"}) != len(GRAPHS):
        failures.append("each verified graph must be its own request")

    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 5.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 3.0},
    ]
    if self_times(spans) != {0: 6.0, 1: 2.0, 2: 2.0, 3: 1.0}:
        failures.append(f"self_times wrong: {self_times(spans)}")

    for line in failures:
        print(f"FAIL: {line}")
    print(f"selftest: {'FAIL' if failures else 'ok'} "
          f"({len(tracer.spans)} spans, report {len(plain)} bytes)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
