"""Wall time of each CLI command in fresh processes, for two source trees.

    python tools/cli_wall.py OLD_SRC NEW_SRC [--rounds N]

OLD_SRC and NEW_SRC are directories holding a `cybethe` package, such as
the `src` of two checkouts.  Each package's `.py` files are copied into a
temporary directory, without any `__pycache__`, and every child process
runs with PYTHONDONTWRITEBYTECODE=1: so each request compiles the modules
it imports, as in a fresh checkout.  The commands are the README
quickstart on its A2 documents plus four refused requests.  Each round runs
every command once per tree in a fresh `python -m cybethe` process, the
trees alternating which goes first.

Prints one line per command: the median and quartiles in milliseconds of
each tree and the change of the median.  A command whose exit code or
standard output differs between the trees is marked DIFFERS, and then the
script exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

INSTANCE = {"cartan": {"series": "A", "rank": 2}, "sigma": "(1 2)", "M": 2,
            "omega": "-1", "points": [], "site_weights": [],
            "lambda0": ["1/2", "1/2"]}
TUPLE = {"polys": [{"denom": 1, "terms": {"0": "-1", "3": "1"}},
                   {"denom": 1, "terms": {"0": "1", "3": "1"}}]}
IO = ["--instance", "instance.json", "--tuple", "tuple.json"]
COMMANDS = {
    "fold": ["fold", "--cartan", "A4", "--sigma", "(1 4)(2 3)"],
    "validate": ["validate", "--instance", "instance.json", "--p", "1"],
    "verify": ["verify", *IO],
    "generate": ["generate", *IO, "--direction", "1", "--c", "1"],
    "populate": ["populate", *IO, "--depth", "1", "--samples", "1/3,1,-1/2"],
    "typea analyze": ["typea", "analyze", *IO],
    "typea flow": ["typea", "flow", *IO, "--k", "1", "--c", "1,2,1/2,-1,3"],
    "eigenvalues": ["eigenvalues", *IO],
    "lambda0": ["lambda0", "--rank", "3"],
    "check-numeric": ["check-numeric", *IO],
    "bad sigma": ["fold", "--cartan", "A4", "--sigma", "(1 9)"],
    "bad --c 1/x": ["generate", *IO, "--direction", "1", "--c", "1/x"],
    "bad --c 1/0": ["generate", *IO, "--direction", "1", "--c", "1/0"],
    "missing tuple": ["verify", "--instance", "instance.json",
                      "--tuple", "absent.json"],
}


def run(src, argv, cwd):
    """(seconds, exit code, stdout) of one fresh `python -m cybethe`."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cybethe", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def summary(seconds):
    """(median, first quartile, third quartile) in milliseconds."""
    ms = [1000 * s for s in seconds]
    if len(ms) == 1:
        return ms[0], ms[0], ms[0]
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = []
        for name, src in (("old", args.old), ("new", args.new)):
            if not (src / "cybethe" / "__init__.py").is_file():
                parser.error(f"no cybethe package in {src}")
            shutil.copytree(src / "cybethe", tmp / name / "cybethe",
                            ignore=shutil.ignore_patterns("__pycache__"))
            trees.append(tmp / name)
        work = tmp / "work"
        work.mkdir()
        (work / "instance.json").write_text(json.dumps(INSTANCE))
        (work / "tuple.json").write_text(json.dumps(TUPLE))
        times = {(c, t): [] for c in COMMANDS for t in range(2)}
        outputs = {}
        for r in range(args.rounds):
            for command, cli_args in COMMANDS.items():
                order = (0, 1) if r % 2 == 0 else (1, 0)
                for t in order:
                    seconds, code, out = run(trees[t], cli_args, work)
                    times[command, t].append(seconds)
                    outputs.setdefault((command, t), (code, out))
    print(f"{args.rounds} rounds, ms: median [q1-q3] of {args.old} -> "
          f"{args.new}")
    differs = False
    for command in COMMANDS:
        old, new = summary(times[command, 0]), summary(times[command, 1])
        mark = ""
        if outputs[command, 0] != outputs[command, 1]:
            mark, differs = "  DIFFERS", True
        print(f"{command:14s} {old[0]:6.1f} [{old[1]:.1f}-{old[2]:.1f}] -> "
              f"{new[0]:6.1f} [{new[1]:.1f}-{new[2]:.1f}] "
              f"{100 * (new[0] / old[0] - 1):+6.1f}%{mark}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
