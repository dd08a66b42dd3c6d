"""Layered benchmark of cybethe: one command, four workloads.

    python3 perfbench/run.py --workload populate_a4 --seed 3 --trace 0

Workloads (see workloads.py and README.md): populate_a4, populate_d4,
typea_a4, cli_mix.

--trace 0 measures the end-to-end metrics with no tracing: set-up time
(median of several fresh-process set-ups), the median wall time of the
workload's fixed work repeated for --seconds, and peak memory.  --trace 1
runs the fixed work once more under the span tracer and reports the
per-layer metrics.  Both modes check the outputs after the timed region.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable summary and a "report" JSON line with the sample counts, the run
environment, the input properties and every check.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import common
import speed
from tracer import Tracer
from workloads import REFERENCE_SEED, WORKLOADS, Checks

SIZES = ("full", "smoke")
SETUP_REPEATS = {"full": 7, "smoke": 1}
IMPORT_REPEATS = 3
EXACT_COMMAND = ["lambda0", "--rank", "3"]
CHILD = str(common.BENCH_DIR / "child.py")

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))

# per-layer functions reported with .calls and .self_s
LAYER_FUNCTIONS = {
    "genengine": ("cyclotomic_generate",),
    "frame": ("is_generic", "is_critical_exact", "is_cyclotomic_tuple"),
    "qpoly": ("qgcd", "is_squarefree", "divide_exact",
              "wronskian_ode_solve", "wronskian"),
    "linalg": ("solve", "nullspace", "rank", "invert"),
    "typea": ("kernel_basis", "frame_conditions_check", "witt_basis",
              "gram_matrix", "apply_flow", "beta", "rational_sqrt"),
    "serialize": ("tuple_doc_json", "catalog_doc", "dumps",
                  "instance_from_doc", "tuple_from_doc"),
}
NUMERIC_FUNCTIONS = ("embed", "residuals", "residual_norm", "grad_check")


def per_layer_units():
    """Ordered (name, unit) of every per-layer metric."""
    out = []
    for module, fnames in LAYER_FUNCTIONS.items():
        for fname in fnames:
            out += [(f"{module}.{fname}.calls", "count"),
                    (f"{module}.{fname}.self_s", "s")]
        out += {
            "genengine": [("genengine.exceptional.count", "count"),
                          ("genengine.new_node_ratio", "ratio")],
            "frame": [("frame.is_generic_per_node", "ratio")],
            "qpoly": [("qpoly.mul.calls", "count"),
                      ("qpoly.max_coeff_bits", "bits")],
        }.get(module, [])
    out += [("scalars.mul.calls", "count"), ("scalars.inverse.calls", "count"),
            ("scalars.mul_ns", "ns"), ("scalars.max_order", "order"),
            ("scalars.rational_op_share", "ratio"),
            ("cli.import_s", "s"), ("cli.numpy_loaded", "flag")]
    out += [(f"numerics.{f}.self_s", "s") for f in NUMERIC_FUNCTIONS]
    out.append(("trace_overhead_ratio", "ratio"))
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=15.0,
                   help="how long to repeat the fixed work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="smoke runs every workload at its smallest size")
    return p.parse_args(argv)


# --- measurements ------------------------------------------------------------

def run_child(*args):
    proc = subprocess.run([sys.executable, CHILD, *args], capture_output=True,
                          text=True, env=common.child_env(), timeout=120,
                          cwd=common.WORK)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(args, repeats):
    """Median (reference seconds, wall seconds) of fresh-process set-ups."""
    ref, wall = [], []
    for k in range(repeats):
        workdir = common.WORK / f"setup-{os.getpid()}-{k}"
        try:
            line = run_child("setup", args.workload, str(args.seed),
                             args.size, str(workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        ref.append(float(line.split()[0]))
        wall.append(float(line.split()[1]))
    return common.median(ref), common.median(wall), repeats


def measure(wl, st, seconds, checks):
    """Repeat the fixed work for `seconds`.

    Returns (probes, first output, kept per rep, peak RSS in MB after the
    first rep).  The peak is read after one rep because later reps let the
    allocator's high-water mark creep up, so it would depend on how many
    reps fit in the time.
    """
    probes, kept, first, rss = [], [], None, None
    start = time.perf_counter()
    while not probes or time.perf_counter() - start < seconds:
        gc.collect()
        try:
            with wl.probe() as probe:
                out = wl.rep(st, probe)
        except Exception as exc:    # an unexpected raise fails the run
            checks.expect("rep", False, repr(exc))
            break
        probes.append(probe)
        if first is None:
            first, rss = out, peak_rss_mb(wl)
        kept.append(wl.keep(out))
    return probes, first, kept, rss


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.kind == "cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_rep(wl, st, workdir, tracer):
    """One rep under the tracer; returns (output, wall seconds)."""
    if wl.kind != "cli":
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span("bench." + wl.name):
                out = wl.rep(st)
            return out, time.perf_counter() - t0
        finally:
            tracer.restore()
            tracer.replay_products()
    out, docs = [], []
    t0 = time.perf_counter()
    for i, req in enumerate(st["requests"]):
        path = workdir / f"trace-{i}.json"
        tracer.request = i
        with tracer.span("bench.cli_request") as span:
            out.append(wl.run_request(
                st, req, command=(sys.executable, CHILD, "traced-cli",
                                  str(path))))
        docs.append((i, span[0], path))
    wall = time.perf_counter() - t0
    for i, parent, path in docs:
        with open(path) as fh:
            tracer.merge(json.load(fh), i, parent)
    return out, wall


def layer_metrics(tracer, wl, out, props, untraced_s, traced_s):
    stats = tracer.layer_stats()
    values = {}
    for module, fnames in LAYER_FUNCTIONS.items():
        for fname in fnames:
            calls, self_s = stats.get(f"{module}.{fname}", (0, 0.0))
            values[f"{module}.{fname}.calls"] = calls
            values[f"{module}.{fname}.self_s"] = self_s
    for fname in NUMERIC_FUNCTIONS:
        values[f"numerics.{fname}.self_s"] = stats.get(
            f"numerics.{fname}", (0, 0.0))[1]
    nodes = wl.bfs_nodes(out)
    bfs = "genengine.explore_population"
    bfs_runs = stats.get(bfs, (0, 0))[0]
    gens = tracer.count_where("genengine.cyclotomic_generate", under=bfs)
    generic = tracer.count_where("frame.is_generic", under=bfs)
    c = tracer.counters
    ops = sum(c[f"scalars.{op}"]
              for op in ("mul", "add", "sub", "div", "inverse"))
    values.update({
        "genengine.exceptional.count": tracer.count_where(
            "genengine.cyclotomic_generate", error="ExceptionalParameter"),
        "genengine.new_node_ratio": (nodes - bfs_runs) / gens if gens else 0,
        "frame.is_generic_per_node": generic / nodes if nodes else 0,
        "qpoly.mul.calls": c["qpoly.mul"],
        "qpoly.max_coeff_bits": props["qpoly.max_coeff_bits"],
        "scalars.mul.calls": c["scalars.mul"],
        "scalars.inverse.calls": c["scalars.inverse"],
        "scalars.mul_ns": tracer.replay[1],
        "scalars.max_order": props["scalars.max_order"],
        "scalars.rational_op_share": c["scalars.rational_ops"] / ops
        if ops else 0,
        "cli.import_s": common.median(
            [float(run_child("import-cli")) for _ in range(IMPORT_REPEATS)]),
        "cli.numpy_loaded": int(run_child("numpy-after", *EXACT_COMMAND)),
        "trace_overhead_ratio": traced_s / untraced_s,
    })
    return values


# --- the two modes ---------------------------------------------------------

def plain_run(args, wl, workdir, checks):
    setup_s, setup_wall, setups = setup_seconds(args,
                                                SETUP_REPEATS[args.size])
    st = wl.setup(args.seed, args.size, workdir)
    common.check_origin()
    if wl.kind == "cli":
        st["requests"] = wl.requests(st)
    probes, first, kept, rss = measure(wl, st, args.seconds, checks)
    if first is None:
        return None
    wl.check(st, first, kept, args.seed, args.size, checks)
    scale = speed.factor(probes)
    walls = [p.work_wall for p in probes]
    metrics = {"setup_s": setup_s, "run_s": common.median(walls) * scale,
               "peak_rss_mb": rss}
    samples = {"setup_s": setups, "run_s": len(probes), "peak_rss_mb": 1,
               "rep_wall_seconds": walls,
               "probe_samples": sum(len(p.samples) for p in probes)}
    extra = {"setup_wall_s": setup_wall, "run_wall_s": common.median(walls),
             "reference_factor": scale}
    if wl.kind == "cli":
        latencies = [r["ms"] * scale for round_ in kept for r in round_]
        tail, pct = common.tail(latencies)
        extra.update({"cli_ms_p50": common.median(latencies),
                      "cli_ms_tail": tail, "cli_ms_tail_percentile": pct,
                      "cli_requests": len(latencies)})
    return metrics, samples, extra, wl.props(st, first)


def traced_run(args, wl, workdir, checks):
    st = wl.setup(args.seed, args.size, workdir)
    common.check_origin()
    if wl.kind == "cli":
        st["requests"] = wl.requests(st)
    probes, first, kept, _ = measure(wl, st, args.seconds / 2, checks)
    if first is None:
        return None
    walls = [p.work_wall for p in probes]
    tracer = Tracer()
    out, traced_s = traced_rep(wl, st, workdir, tracer)
    kept.append(wl.keep(out))
    wl.check(st, first, kept, args.seed, args.size, checks)
    props = wl.props(st, first)
    metrics = layer_metrics(tracer, wl, out, props, common.median(walls),
                            traced_s)
    tracer.write(common.WORK / f"trace-{args.workload}-seed{args.seed}.json")
    samples = {"untraced_reps": len(walls), "traced_reps": 1,
               "rep_wall_seconds": walls, "traced_wall_seconds": traced_s,
               "spans": len(tracer.spans)}
    return metrics, samples, {}, props


def environment(args):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace}


def report_lines(args, metrics, units, samples, extra, props, checks):
    lines = [f"perfbench {args.workload} seed={args.seed} size={args.size} "
             f"trace={args.trace}"]
    env = environment(args)
    lines.append("env: " + " ".join(f"{k}={v}" for k, v in env.items()
                                   if k in ("python", "nproc")))
    lines.append("inputs: " + json.dumps(props, sort_keys=True))
    for name, value in metrics.items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    for name, value in extra.items():
        lines.append(f"  {name:<44} {value!s:>14}")
    attempted = checks.total_attempted + checks.known_attempted
    failed = checks.total_failed + checks.known_failed
    lines.append(f"  {'fail_ratio':<44} {failed / max(attempted, 1):>14.6g} "
                 f"({failed} of {attempted} operations)")
    if checks.known_attempted:
        lines.append(f"  known contract defects: {checks.known_failed} of "
                     f"{checks.known_attempted} requests still break the "
                     "exit-code contract; the result line's failed/attempted "
                     "leave these requests out")
    lines.append("checks: " + json.dumps(checks.attempted, sort_keys=True))
    for message in checks.messages:
        lines.append("FAILED " + message)
    lines.append(json.dumps({"report": {
        "environment": env, "inputs": props, "samples": samples,
        "extra": extra, "checks": checks.attempted,
        "failed_checks": checks.failed,
        "known_defects": {"attempted": checks.known_attempted,
                          "failed": checks.known_failed},
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}}, sort_keys=True))
    return lines


def main(argv=None):
    args = parse_args(argv)
    common.use_source_tree()
    wl = WORKLOADS[args.workload]
    common.WORK.mkdir(exist_ok=True)
    workdir = common.WORK / f"{args.workload}-{os.getpid()}"
    checks = Checks()
    try:
        result = (traced_run if args.trace else plain_run)(
            args, wl, workdir, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print("\n".join(checks.messages), file=sys.stderr)
        return 1
    metrics, samples, extra, props = result
    units = dict(per_layer_units() if args.trace else END_TO_END)
    for line in report_lines(args, metrics, units, samples, extra, props,
                             checks):
        print(line)
    print(json.dumps({
        "correct": checks.total_failed == 0,
        "attempted": checks.total_attempted,
        "failed": checks.total_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
