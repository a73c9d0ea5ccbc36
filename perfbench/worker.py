"""One benchmark pass in a fresh interpreter.

Run by run.py, never imported by it: each pass pays interpreter start and
import like a CLI user does, and no cache survives from one pass to the
next. Usage:

    python3 perfbench/worker.py MANIFEST RESULT --workload W --spawned NS
        [--setup-only] [--trace-out SPANS.jsonl]

--spawned is the CLOCK_MONOTONIC time (ns) at which the parent started this
process; setup_s runs from there until the inputs are ready.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time


def reference_job_s(kind: str) -> float:
    """Wall time of one fixed CPU job of the workload's dominant kind.

    The shared host's speed drifts by more than 10% from minute to minute,
    and code of different kinds gains differently when it speeds up: a
    pure-Python job once sped up 30% while a numpy-bound verify pass sped
    up 17%. So the job is numpy int64 modular arithmetic on arrays of the
    sweep's chunk size ("numpy", for the counting workloads) or a
    pure-Python loop ("python", for psi_build). It runs REFERENCE_REPEATS
    times right before and right after the workload and once between its
    steps; the median of those times is the pass's unit of host speed.
    """
    t0 = time.perf_counter()
    if kind == "python":
        acc = 0
        table = {}
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
    else:
        import numpy as np

        x = np.arange(1 << 19, dtype=np.int64)
        for _ in range(10):
            x = (x * 7 + 3) % 1_000_003
    return time.perf_counter() - t0


REFERENCE_REPEATS = 5


def _psi_attrs(args, kwargs, result):
    return {"terms": len(result.terms)}


def _sweep_attrs(args, kwargs, result):
    polys, q = args[0], args[1]
    width = polys[0].var_count
    shape = repr((q, [(p.var_count, sorted(p.terms.items())) for p in polys]))
    return {
        "q": q,
        "polys": len(polys),
        "width": width,
        "points": len(polys) * q**width,
        "workers": kwargs.get("workers", 1),
        "key": hashlib.blake2b(shape.encode(), digest_size=12).hexdigest(),
    }


def install(tracer) -> None:
    """Wrap, at each caller's own binding, the calls between layers."""
    from graphmotive import cli, counting, graphs, motive, symanzik

    sp, ct = tracer.spanned, tracer.counted

    for module, attr, name, kw in (
        (cli, "run_verify", "cli.verify", {}),
        (cli, "_verify_graph", "cli.verify_graph", {"request": True}),
        (cli, "check_modL_congruence", "motive.modL", {}),
        (cli, "check_projective_congruence", "motive.lrat", {}),
        (cli, "dc_identity_matrix", "motive.dc_matrix", {}),
        (cli, "interpolate_class", "motive.interpolate", {}),
        (cli, "count_graph", "counting.count", {}),
        (motive, "count_graph", "counting.count", {}),
        (motive, "count_Z", "counting.count_Z", {}),
        (counting, "sweep_zero_patterns", "counting.sweep", {"attrs": _sweep_attrs}),
        (counting, "psi_by_deletion_contraction", "symanzik.psi_dc", {"attrs": _psi_attrs}),
        (symanzik, "psi_by_trees", "symanzik.psi_trees", {"attrs": _psi_attrs}),
        (symanzik, "psi_by_deletion_contraction", "symanzik.psi_dc", {"attrs": _psi_attrs}),
    ):
        tracer.patch(module, attr, sp(name, getattr(module, attr), **kw))
    for module in (motive, counting, symanzik):
        for attr in ("delete_edge", "contract_edge"):
            if hasattr(module, attr):
                tracer.patch(module, attr, ct("graphs.minors", getattr(module, attr)))
    for module in (motive, counting, symanzik, graphs):
        tracer.patch(module, "classify_edge", ct("graphs.classify", getattr(module, "classify_edge")))
    tracer.patch(
        counting,
        "_check_budget",
        ct("counting.budget_checks", counting._check_budget, error_name="counting.budget_refused"),
    )


def _cache_sizes() -> dict:
    """Entries held by every functools cache in the package, plus whether
    sympy (and so its global cache) was imported at all."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if not mod_name.startswith("graphmotive"):
            continue
        for attr, obj in vars(mod).items():
            info = getattr(obj, "cache_info", None)
            if callable(info):
                out[f"{mod_name}.{attr}"] = info().currsize
    out["sympy_imported"] = "sympy" in sys.modules
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--spawned", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from graphmotive import cli, symanzik
    from graphmotive.graphs import Multigraph

    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    graphs = []
    if args.workload == "psi_build":
        for item in manifest["graphs"]:
            with open(item["path"], "r", encoding="utf-8") as fh:
                graphs.append((item["spec"], Multigraph.parse(fh.read())))
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawned) / 1e9
    result = {"setup_s": setup_s}
    if args.setup_only:
        return _finish(args.result, result)

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)

    def root(name, request=False):
        return tracer.span(name, request=request) if tracer else contextlib.nullcontext()

    built, codes, psi_rows = [], [], []

    def run_cli(argv, request=False):
        with root("cli.main", request=request):
            codes.append(cli.main(argv))

    def build(spec, g):
        built.append((spec, symanzik.psi_by_trees(g), symanzik.psi_by_deletion_contraction(g)))

    if args.workload == "verify_catalog":
        steps = [lambda: run_cli(["verify", *manifest["graphs"], *manifest["args"],
                                  "--out", manifest["out"]])]
    elif args.workload == "count_wheel4":
        steps = [
            lambda c=c: run_cli(["count", c["graph"], *manifest["args"], "--workers",
                                 str(c["workers"]), "--out", c["out"]], request=True)
            for c in manifest["counts"]
        ]
    else:
        steps = [lambda spec=spec, g=g: build(spec, g) for spec, g in graphs]

    # Reference jobs run before, between and after the steps, so that they
    # sample the host during the pass; their time is kept out of wall_s and
    # cpu_s. verify_catalog is a single step of about 10 s, so in untraced
    # passes a job also runs after each verified graph.
    ref_kind = "python" if args.workload == "psi_build" else "numpy"
    refs = [reference_job_s(ref_kind) for _ in range(REFERENCE_REPEATS)]
    in_step = [0.0, 0.0]  # wall and CPU of reference jobs run inside a step

    def timed_reference():
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        refs.append(reference_job_s(ref_kind))
        in_step[0] += time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        in_step[1] += (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)

    verify_graph = cli._verify_graph
    if args.workload == "verify_catalog" and tracer is None:
        def verify_graph_then_reference(*a, **kw):
            try:
                return verify_graph(*a, **kw)
            finally:
                timed_reference()

        cli._verify_graph = verify_graph_then_reference
    wall_s = cpu_s = 0.0
    for i, step in enumerate(steps):
        if i:
            refs.append(reference_job_s(ref_kind))
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        step()
        wall_s += time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu_s += (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
        # Check and drop each graph's polynomials at once, so that the
        # benchmark holding them does not add to peak_rss_mb.
        psi_rows += [
            {"spec": spec, "routes_agree": trees == dc, "terms": dc.term_count()}
            for spec, trees, dc in built
        ]
        built.clear()
    cli._verify_graph = verify_graph
    wall_s -= in_step[0]
    cpu_s -= in_step[1]
    refs += [reference_job_s(ref_kind) for _ in range(REFERENCE_REPEATS)]
    outputs = {"exit": codes}
    if tracer is not None:
        tracer.restore()
        tracer.write_jsonl(args.trace_out)
        result["counts"] = dict(tracer.counts)
    if psi_rows:
        outputs["psi"] = psi_rows
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        reference_jobs_s=refs,
        outputs=outputs,
        caches=_cache_sizes(),
        numpy=sys.modules["numpy"].__version__,
        python=sys.version.split()[0],
    )
    return _finish(args.result, result)


def _finish(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
