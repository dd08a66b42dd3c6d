"""Child-process entry points used by run.py.

    child.py setup <workload> <seed> <size> <workdir>
        time one workload set-up in a fresh interpreter (imports included);
        prints reference seconds (see speed.py) and wall seconds
    child.py import-cli
        time `import cybethe.cli` in a fresh interpreter
    child.py numpy-after <cli args...>
        run an exact CLI command; print 1 if it left numpy imported, else 0
    child.py traced-cli <trace.json> <cli args...>
        run one CLI command under the tracer and write its spans to a file

Each prints its result as the last line of standard output.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

import common


def setup(name, seed, size, workdir):
    from speed import SpeedProbe, factor
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    with SpeedProbe() as probe:
        wl.setup(int(seed), size, Path(workdir))
    common.check_origin()
    print(repr(probe.work_wall * factor([probe])), repr(probe.work_wall))
    return 0


def import_cli():
    t0 = time.perf_counter()
    import cybethe.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    common.check_origin()
    print(repr(elapsed))
    return 0


def numpy_after(argv):
    from cybethe import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    print(int("numpy" in sys.modules))
    return rc


def traced_cli(out_path, argv):
    import cybethe.cli
    from tracer import Tracer
    common.check_origin()
    tracer = Tracer()
    tracer.install()
    try:
        return cybethe.cli.main(argv)
    finally:
        tracer.restore()
        tracer.replay_products()
        tracer.write(Path(out_path))


def main(argv):
    common.use_source_tree()
    command, rest = argv[0], argv[1:]
    if command == "setup":
        return setup(*rest)
    if command == "import-cli":
        return import_cli()
    if command == "numpy-after":
        return numpy_after(rest)
    if command == "traced-cli":
        return traced_cli(rest[0], rest[1:])
    raise SystemExit(f"child.py: unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
