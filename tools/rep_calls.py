"""Call counts of one warm workload rep under cProfile, for two source trees.

    python tools/rep_calls.py OLD_SRC NEW_SRC [--workload W ...]
                              [--size smoke|full] [--count NAME ...]

OLD_SRC and NEW_SRC are directories holding a `cybethe` package, such as
the `src` of two checkouts.  For each tree a fresh process puts the tree
first on sys.path, imports `perfbench/workloads.py` (read only), sets up
the in-process workload W (`populate_a4`, `populate_d4` or `typea_a4`) at
seed 0, runs one rep to fill the caches and profiles one more rep.
`--workload` may be given more than once; without it all three run.

Prints one section per workload, separated by blank lines: the total call
count of each tree and the 15 functions whose call counts moved most.  A
function is named by its path inside the tree (or its standard-library
path) and its qualified name, such as `cybethe/qpoly.py:QPoly.__mul__`,
so the same function matches across trees whose line numbers differ and
methods of one name in one module are counted apart.  A builtin is named
`~:` and the profiler's text for it.  Exits 1 when the two reps' keep
digests (the catalog or flow-image hashes the benchmark pins) differ on
any workload.

`--count NAME` (repeatable) also prints both trees' counts of every
function whose name contains NAME, moved or not, so counts named in
advance come from one command.

Call counts repeat exactly from run to run, where the time of one rep
spreads widely on a shared machine, so they size each mechanism of a
change before any timed pairs are run.
"""

import argparse
import cProfile
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
IN_PROCESS = ("populate_a4", "populate_d4", "typea_a4")
TOP = 15


def profile_rep(src, workload, size):
    """{"calls": {name: count}, "digest": keep digest} of one warm rep."""
    sys.path[:0] = [str(src), str(BENCH)]
    import workloads
    wl = workloads.WORKLOADS[workload]
    st = wl.setup(0, size)
    wl.rep(st)
    prof = cProfile.Profile()
    out = prof.runcall(wl.rep, st)
    return {"calls": call_counts(prof, str(Path(src).resolve()) + os.sep),
            "digest": wl.keep(out)}


def call_counts(prof, prefix):
    """{name: calls} of a finished profile, each code object named by its
    file without `prefix` and its `co_qualname`."""
    calls = {}
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):
            # a builtin; an object's address differs between processes
            name = "~:" + re.sub(r" at 0x[0-9a-f]+", "", code)
        else:
            path = code.co_filename.removeprefix(prefix)
            name = f"{path}:{code.co_qualname}"
        calls[name] = calls.get(name, 0) + entry.callcount
    return calls


def run_tree(src, workload, size):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src), workload, size],
        capture_output=True, text=True, env=env)
    if proc.returncode:
        raise SystemExit(f"rep_calls: the {workload} rep failed for {src}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(profile_rep(*argv[1:])))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", action="append", choices=IN_PROCESS,
                        help="a workload to profile (repeatable); "
                        "default: all three")
    parser.add_argument("--size", choices=("smoke", "full"), default="full")
    parser.add_argument("--count", action="append", default=[],
                        metavar="NAME", help="also print the counts of "
                        "every function whose name contains NAME")
    args = parser.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "cybethe" / "__init__.py").is_file():
            parser.error(f"no cybethe package in {src}")
    agree = []
    for k, workload in enumerate(dict.fromkeys(args.workload or IN_PROCESS)):
        if k:
            print()
        agree.append(compare(args, workload))
    return 0 if all(agree) else 1


def compare(args, workload):
    """Print the section of one workload; True when the keep digests
    agree."""
    old, new = (run_tree(src, workload, args.size)
                for src in (args.old, args.new))
    totals = [sum(tree["calls"].values()) for tree in (old, new)]
    print(f"{workload} {args.size}, seed 0, one warm rep: "
          f"{totals[0]} -> {totals[1]} calls "
          f"({100 * (totals[1] / totals[0] - 1):+.1f}%)")
    names = set(old["calls"]) | set(new["calls"])
    moved = sorted(((new["calls"].get(n, 0) - old["calls"].get(n, 0), n)
                    for n in names), key=lambda d: (-abs(d[0]), d[1]))
    print(f"{'old':>9} {'new':>9} {'change':>9}  function")
    for delta, name in moved[:TOP]:
        if delta:
            print(f"{old['calls'].get(name, 0):9d} "
                  f"{new['calls'].get(name, 0):9d} {delta:+9d}  {name}")
    for pattern in args.count:
        print(f"counts of functions matching {pattern!r}:")
        for name in sorted(n for n in names if pattern in n):
            print(f"{old['calls'].get(name, 0):9d} "
                  f"{new['calls'].get(name, 0):9d}  {name}")
    same = old["digest"] == new["digest"]
    print(f"keep digest {'same' if same else 'DIFFERS'}: "
          f"{old['digest'][:16]} -> {new['digest'][:16]}")
    return same


if __name__ == "__main__":
    sys.exit(main())
