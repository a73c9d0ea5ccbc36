"""graphmotive benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/). W is
one of verify_catalog, count_wheel4, psi_build, or ``all`` to run the three
in turn. Every pass runs in a fresh interpreter (perfbench/worker.py), one
at a time, so no cache outlives a pass. Untraced passes fill the --seconds
budget and give the end-to-end metrics; with --trace 1, two traced passes
follow and give the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
workloads, their metrics and the predictions are documented in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_LIMIT_S = 165.0  # one workload must finish well inside 180 s
SETUP_ONLY_SPAWNS = 5
TRACED_PASSES = 2
WORKLOADS = ("verify_catalog", "count_wheel4", "psi_build")

END_TO_END = (("setup_s", "s"), ("wall_ref", "ref"), ("cpu_ref", "ref"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("counting.sweep.calls", "count"),
    ("counting.sweep.unique", "count"),
    ("counting.sweep.unique_ratio", "ratio"),
    ("counting.sweep.points", "count"),
    ("counting.sweep.self_s", "s"),
    ("counting.sweep.points_per_s", "1/s"),
    ("counting.sweep.w1.points_per_s", "1/s"),
    ("counting.sweep.w2.points_per_s", "1/s"),
    ("counting.sweep.parallel_eff", "ratio"),
    ("counting.count.self_s", "s"),
    ("counting.budget_refused", "count"),
    ("motive.interpolate.calls", "count"),
    ("motive.interpolate.budget_failed", "count"),
    ("motive.interpolate.discarded_s", "s"),
    ("motive.modL.self_s", "s"),
    ("motive.lrat.self_s", "s"),
    ("motive.dc_matrix.self_s", "s"),
    ("motive.count_requests", "count"),
    ("symanzik.psi_dc.calls", "count"),
    ("symanzik.psi_dc.self_s", "s"),
    ("symanzik.psi_trees.self_s", "s"),
    ("symanzik.terms", "count"),
    ("graphs.minors", "count"),
    ("graphs.classify", "count"),
    ("cli.verify.graphs", "count"),
    ("cli.verify.class_skipped", "count"),
    ("trace.overhead_s", "s"),
)
# Per-pass numbers, reported as medians over the untraced passes. Raw
# seconds are printed but not bounded: the shared host's own speed moves
# them by more than any bound allows. wall_ref and cpu_ref divide each pass
# by reference_s, the median time of a fixed job that the pass interpreter
# runs before, between and after the workload's steps (perfbench/worker.py).
PASS_METRICS = ("wall_s", "cpu_s", "wall_ref", "cpu_ref", "peak_rss_mb", "reference_s")
UNITS = dict(END_TO_END, wall_s="s", cpu_s="s", reference_s="s")
# Work counts that must repeat exactly between passes of one seed.
EXACT_COUNTS = (
    "counting.sweep.points",
    "counting.sweep.calls",
    "counting.sweep.unique",
    "graphs.minors",
    "symanzik.terms",
)


class HarnessError(RuntimeError):
    """The benchmark itself is inconsistent; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(workload: str, manifest_path: str, rundir: str, deadline: float,
           setup_only: bool = False, trace_out: str | None = None) -> dict | None:
    """Run one worker to completion; None when it failed or ran out of time."""
    result_path = os.path.join(rundir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest_path, result_path,
           "--workload", workload]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    cmd += ["--spawned", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        print(f"  pass timed out ({workload})", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"  worker exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _output_digest(manifest: dict) -> str | None:
    """Hash of the files the program wrote in this pass (None if it writes none)."""
    paths = [c["out"] for c in manifest.get("counts", [])] or [manifest.get("out")]
    if paths == [None]:
        return None
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def _clear_outputs(manifest: dict) -> None:
    for path in [manifest.get("out")] + [c["out"] for c in manifest.get("counts", [])]:
        if path and os.path.exists(path):
            os.remove(path)


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# -- per-layer metrics from a trace -------------------------------------------


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    from tracer import self_times

    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def self_s(*names):
        return sum(own[s["id"]] for name in names for s in named(name))

    def rate(points, seconds):
        return points / seconds if seconds > 0 else 0.0

    sweeps = named("counting.sweep")
    calls = len(sweeps)
    unique = len({s["key"] for s in sweeps})
    points = sum(s["points"] for s in sweeps)
    sweep_self = self_s("counting.sweep")
    by_workers = {}
    for w in (1, 2):
        group = [s for s in sweeps if s["workers"] == w]
        by_workers[w] = rate(sum(s["points"] for s in group), sum(own[s["id"]] for s in group))
    interp = named("motive.interpolate")
    refused = [s for s in interp if s["status"] == "BudgetExceededError"]
    count_spans = named("counting.count") + named("counting.count_Z")
    psi_dc = named("symanzik.psi_dc")
    verify_graphs = named("cli.verify_graph")
    return {
        "counting.sweep.calls": calls,
        "counting.sweep.unique": unique,
        "counting.sweep.unique_ratio": unique / calls if calls else 0.0,
        "counting.sweep.points": points,
        "counting.sweep.self_s": sweep_self,
        "counting.sweep.points_per_s": rate(points, sweep_self),
        "counting.sweep.w1.points_per_s": by_workers[1],
        "counting.sweep.w2.points_per_s": by_workers[2],
        "counting.sweep.parallel_eff": (
            by_workers[2] / by_workers[1] / 2 if by_workers[1] and by_workers[2] else 0.0
        ),
        "counting.count.self_s": self_s("counting.count", "counting.count_Z"),
        "counting.budget_refused": counts.get("counting.budget_refused", 0),
        "motive.interpolate.calls": len(interp),
        "motive.interpolate.budget_failed": len(refused),
        "motive.interpolate.discarded_s": sum(s["end"] - s["start"] for s in refused),
        "motive.modL.self_s": self_s("motive.modL"),
        "motive.lrat.self_s": self_s("motive.lrat"),
        "motive.dc_matrix.self_s": self_s("motive.dc_matrix"),
        "motive.count_requests": sum(
            1 for s in count_spans
            if s["parent"] is not None and by_id[s["parent"]]["name"].startswith("motive.")
        ),
        "symanzik.psi_dc.calls": len(psi_dc),
        "symanzik.psi_dc.self_s": self_s("symanzik.psi_dc"),
        "symanzik.psi_trees.self_s": self_s("symanzik.psi_trees"),
        "symanzik.terms": sum(s["terms"] for s in psi_dc + named("symanzik.psi_trees")),
        "graphs.minors": counts.get("graphs.minors", 0),
        "graphs.classify": counts.get("graphs.classify", 0),
        "cli.verify.graphs": len(verify_graphs),
        "cli.verify.class_skipped": 0,  # filled from the report by the caller
    }


def _class_skipped(manifest: dict) -> int:
    try:
        with open(manifest["out"], "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError, KeyError):
        return 0
    return sum(1 for e in report.get("graphs", []) if "skipped_budget" in e.get("class", {}))


def _read_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- one workload ----------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import check_pass, make_inputs

    run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    rundir = os.path.join(WORK, f"{workload}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    try:
        manifest = make_inputs(workload, seed, os.path.join(rundir, "inputs"))
        manifest_path = os.path.join(rundir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)

        # The first spawn warms the OS file cache and writes bytecode; dropped.
        setups = []
        for i in range(SETUP_ONLY_SPAWNS + 1):
            res = _spawn(workload, manifest_path, rundir, deadline, setup_only=True)
            if res is None:
                raise HarnessError("setup-only worker failed")
            if i:
                setups.append(res["setup_s"])

        attempted = failed = 0
        errors: list[str] = []
        digests: list[str] = []
        untraced, traced = [], []

        def one_pass(trace_out=None) -> dict | None:
            nonlocal attempted, failed
            _clear_outputs(manifest)
            res = _spawn(workload, manifest_path, rundir, deadline, trace_out=trace_out)
            ops, errs = check_pass(workload, manifest, res["outputs"] if res else None)
            if res is not None:
                res["reference_s"] = statistics.median(res["reference_jobs_s"])
                res["wall_ref"] = res["wall_s"] / res["reference_s"]
                res["cpu_ref"] = res["cpu_s"] / res["reference_s"]
                digest = _output_digest(manifest)
                if digests and digest != digests[0]:
                    errs = errs + ["output bytes differ from the first pass of this seed"] * ops
                digests.append(digest)
                res["digest"] = digest
            attempted += ops
            failed += min(ops, len(errs))
            errors.extend(errs)
            return res

        t_measure = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            res = one_pass()
            if res is None:
                break
            untraced.append(res)
            setups.append(res["setup_s"])
            pass_s = time.perf_counter() - t0
            reserve = TRACED_PASSES * pass_s * 1.3 if trace else 0.0
            if time.perf_counter() - t_measure + pass_s + reserve > seconds:
                break

        layers = None
        if trace and untraced:
            per_pass = []
            for k in range(TRACED_PASSES):
                trace_path = os.path.join(WORK, "traces", f"{workload}-seed{seed}-{k}.jsonl")
                res = one_pass(trace_out=trace_path)
                if res is None:
                    break
                traced.append(res)
                m = layer_metrics(_read_spans(trace_path), res.get("counts", {}))
                if workload == "verify_catalog":
                    m["cli.verify.class_skipped"] = _class_skipped(manifest)
                per_pass.append(m)
            if len(per_pass) == TRACED_PASSES:
                for key in EXACT_COUNTS:
                    values = {m[key] for m in per_pass}
                    if len(values) != 1:
                        raise HarnessError(f"{key} differs between traced passes: {sorted(values)}")
                layers = per_pass[0]
                # In reference units, so that host drift between the
                # untraced and the traced passes does not count as overhead.
                layers["trace.overhead_s"] = (
                    statistics.median(r["wall_ref"] for r in traced)
                    - statistics.median(r["wall_ref"] for r in untraced)
                ) * statistics.median(r["reference_s"] for r in untraced)
        mismatch = _ledger_check(workload, seed, digests[0] if digests else None,
                                 layers["counting.sweep.points"] if layers else None)
        if mismatch:
            errors.append(mismatch)
            failed = min(attempted, failed + 1)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    summary = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "setup_samples": setups,
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "elapsed_s": time.perf_counter() - run_start,
    }
    if untraced:
        summary["end_to_end"] = {
            key: statistics.median(r[key] for r in untraced) for key in PASS_METRICS
        }
        summary["end_to_end"]["setup_s"] = statistics.median(setups)
    return summary


def _ledger_check(workload: str, seed: int, digest: str | None, points: int | None) -> str | None:
    """Across runs in this checkout, with the same source: one seed must
    give the same output bytes (else the message returned counts as a
    failure), and every seed the same sweep points (else HarnessError)."""
    path = os.path.join(WORK, "ledger.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    entry = ledger.setdefault(_src_digest(), {}).setdefault(workload, {"digests": {}})
    if points is not None:
        if entry.get("points", points) != points:
            raise HarnessError(
                f"counting.sweep.points is {points} at seed {seed}, "
                f"{entry['points']} at an earlier seed"
            )
        entry["points"] = points
    old = entry["digests"].setdefault(str(seed), digest) if digest else None
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    if old != digest:
        return f"seed {seed} output hash {digest} differs from an earlier run's {old}"
    return None


# -- reporting -------------------------------------------------------------------


def _describe(summary: dict) -> list[str]:
    w = summary["workload"]
    untraced = summary["untraced"]
    lines = [
        f"workload {w} seed {summary['seed']}: {len(untraced)} untraced + "
        f"{len(summary['traced'])} traced passes in {summary['elapsed_s']:.1f} s"
    ]
    e2e = summary.get("end_to_end")
    if e2e:
        for key in ("setup_s",) + PASS_METRICS:
            vals = summary["setup_samples"] if key == "setup_s" else [r[key] for r in untraced]
            lines.append(
                f"  {key:<12} median {e2e[key]:.4f} {UNITS[key]}  "
                f"(n={len(vals)}, min {min(vals):.4f}, max {max(vals):.4f})"
            )
    ratio = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    lines.append(f"  {'fail_ratio':<12} {ratio:.4f}  ({summary['failed']} of {summary['attempted']} operations)")
    for err in summary["errors"]:
        lines.append(f"  FAILED: {err}")
    if summary["layers"]:
        for key, unit in PER_LAYER:
            lines.append(f"  {key:<34} {summary['layers'][key]:.6g} {unit}")
    if untraced:
        first = untraced[0]
        lines.append(
            f"  env: nproc={len(os.sched_getaffinity(0))} python={first['python']} numpy={first['numpy']} "
            f"caches={json.dumps(first['caches'], sort_keys=True)}"
        )
        if first["digest"]:
            lines.append(f"  output sha256 {first['digest']}")
    return lines


def _metrics(summary: dict, trace: bool) -> dict:
    if trace:
        layers = summary["layers"] or {}
        return {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER}
    e2e = summary.get("end_to_end") or {}
    return {k: {"value": e2e.get(k, 0.0), "unit": u} for k, u in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "graphmotive", "__init__.py")):
        print("error: run from the root of a graphmotive checkout (no src/graphmotive here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(WORK, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
            summaries.append(summary)
            print("\n".join(_describe(summary)), flush=True)
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 3

    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"nproc": len(os.sched_getaffinity(0)), "runs": summaries}, fh, indent=1, sort_keys=True)

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    complete = all(s.get("end_to_end") and (s["layers"] or not args.trace) for s in summaries)
    if len(summaries) == 1:
        metrics = _metrics(summaries[0], bool(args.trace))
    else:
        metrics = {
            f"{s['workload']}.{k}": v
            for s in summaries for k, v in _metrics(s, bool(args.trace)).items()
        }
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
