"""The four benchmark workloads.

Each workload has a set-up (imports plus instance, fold and input
construction), a fixed unit of work that is timed, and output checks that
run after the timed region.  `cybethe` is imported inside the set-up, so a
set-up run in a fresh process pays for the imports.

The seed draws the sample parameters from a fixed pool of small rationals:
one of +-1, one of +-2 and one of +-1/2, in a seeded order.  Every draw
gives populations of nearly the same size and coefficient growth, so runs
with different seeds measure comparable work.  Seed 0 is the reference
draw (1, 2, -1/2) whose outputs are pinned by digests in
`data/expected.json`.
"""

import json
import random
import subprocess
import sys
import time
from typing import Callable, NamedTuple

import common
from speed import ProcessProbe, SpeedProbe

REFERENCE_SEED = 0
REFERENCE_SAMPLES = ("1", "2", "-1/2")
SAMPLE_CLASSES = (("1", "-1"), ("2", "-2"), ("1/2", "-1/2"))
ORACLE_NODES = 4        # nodes per run checked by the floating-point oracle

A4_DOC = {
    "cartan": {"series": "A", "rank": 4},
    "sigma": "(1 4)(2 3)",
    "M": 2,
    "omega": "-1",
    "points": [],
    "site_weights": [],
    "lambda0": ["0", "1/2", "1/2", "0"],
}

D4_DOC = {
    "cartan": {"matrix": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                          [0, -1, 0, 2]]},
    "sigma": "(1 3 4)",
    "M": 3,
    "omega": "w",
    "points": [],
    "site_weights": [],
    "lambda0": ["0", "2", "0", "0"],
}

A2_DOC = {
    "cartan": {"series": "A", "rank": 2},
    "sigma": "(1 2)",
    "M": 2,
    "omega": "-1",
    "points": [],
    "site_weights": [],
    "lambda0": ["1/2", "1/2"],
}

TYPEA_CATALOG = "a4_depth2_catalog.json"


def draw_samples(seed):
    if seed == REFERENCE_SEED:
        return list(REFERENCE_SAMPLES)
    rng = random.Random(seed)
    picks = [rng.choice(cls) for cls in SAMPLE_CLASSES]
    rng.shuffle(picks)
    return picks


def load_expected():
    with open(common.DATA / "expected.json") as fh:
        return json.load(fh)


class Checks:
    """Counts of attempted and failed output checks, by kind.

    `known` holds the requests that exercise a recorded contract defect of
    the program; they are reported apart from the other checks.
    """

    def __init__(self):
        self.attempted = {}
        self.failed = {}
        self.known_attempted = 0
        self.known_failed = 0
        self.messages = []

    def expect(self, kind, ok, detail=""):
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            if len(self.messages) < 20:
                self.messages.append(f"{kind}: {detail}".rstrip(": "))

    def known(self, ok):
        self.known_attempted += 1
        self.known_failed += 0 if ok else 1

    @property
    def total_attempted(self):
        return sum(self.attempted.values())

    @property
    def total_failed(self):
        return sum(self.failed.values())


def _numeric_oracle(inst, tuples, seed, checks):
    """Floating-point residuals of a seeded sample of exact tuples."""
    from cybethe import numerics
    tol = numerics.Tolerances()
    candidates = [y for y in tuples if any(p.degree > 0 for p in y)]
    rng = random.Random(seed)
    for y in rng.sample(candidates, min(ORACLE_NODES, len(candidates))):
        try:
            norm = numerics.residual_norm(inst, numerics.embed(y, tol), tol)
            checks.expect("numeric_oracle", norm < tol.root_residual,
                          f"residual {norm:.3e}")
        except Exception as exc:   # any raise is a failed oracle check
            checks.expect("numeric_oracle", False, repr(exc))


def _exact_node(inst, y, checks):
    from cybethe import is_critical_exact, is_cyclotomic_tuple
    try:
        ok = is_critical_exact(inst, y)[0] and is_cyclotomic_tuple(inst, y)
        checks.expect("node_exact", ok, repr(y))
    except Exception as exc:
        checks.expect("node_exact", False, repr(exc))


# --- populate_a4 / populate_d4 -------------------------------------------

class Populate:
    kind = "in-process"
    probe = SpeedProbe

    def __init__(self, name, doc):
        self.name = name
        self.doc = doc

    def setup(self, seed, size, workdir=None):
        from cybethe import (BetheTuple, orbit_data, serialize,
                             validate_lambda0)
        inst = serialize.instance_from_doc(self.doc)
        fold = orbit_data(inst.cartan, inst.aut)
        ok, violations = validate_lambda0(inst, fold)
        if not ok:
            raise RuntimeError(f"lambda0 rejected: {violations}")
        samples = draw_samples(seed)
        return {"inst": inst, "fold": fold,
                "seed_tuple": BetheTuple.trivial(inst.cartan.n),
                "samples": samples,
                "values": [serialize.parse_scalar(s, inst.M)
                           for s in samples],
                "depth": {"full": 3, "smoke": 1}[size]}

    def rep(self, st, probe=None):
        from cybethe import explore_population, serialize
        graph = explore_population(st["inst"], st["fold"], st["seed_tuple"],
                                   st["depth"], st["values"])
        return graph, serialize.dumps(serialize.catalog_doc(graph))

    def bfs_nodes(self, out):
        return len(out[0].nodes)

    def keep(self, out):
        return common.sha256(out[1])

    def check(self, st, first, kept, seed, size, checks):
        graph = first[0]
        for digest in kept:
            checks.expect("rep_identical", digest == kept[0])
        depths = depth_counts(graph)
        if seed == REFERENCE_SEED:
            want = load_expected()[self.name][size]
            checks.expect("digest", kept[0] == want["sha256"], kept[0])
            checks.expect("depth_counts", depths == want["depth_counts"],
                          str(depths))
        for node in graph.nodes:
            _exact_node(st["inst"], node.tuple_, checks)
        _numeric_oracle(st["inst"], [n.tuple_ for n in graph.nodes], seed,
                        checks)

    def props(self, st, first):
        graph = first[0]
        polys = [p for node in graph.nodes for p in node.tuple_]
        return {"samples": st["samples"], "depth": st["depth"],
                "nodes": len(graph.nodes),
                "depth_counts": depth_counts(graph),
                "scalars.max_order": common.field_order(polys),
                "qpoly.max_coeff_bits": common.coeff_bits(polys)}


def depth_counts(graph):
    depth = {}
    counts = []
    for node in graph.nodes:
        d = 0 if node.parent is None else depth[node.parent] + 1
        depth[node.node_id] = d
        if d == len(counts):
            counts.append(0)
        counts[d] += 1
    return counts


# --- typea_a4 --------------------------------------------------------------

class TypeA:
    kind = "in-process"
    probe = SpeedProbe
    name = "typea_a4"

    def setup(self, seed, size, workdir=None):
        from cybethe import serialize
        from cybethe import typea  # noqa: F401  (part of the import cost)
        inst = serialize.instance_from_doc(A4_DOC)
        with open(common.DATA / TYPEA_CATALOG) as fh:
            catalog = json.load(fh)
        count = {"full": 40, "smoke": 4}[size]
        tuples = [serialize.tuple_from_doc(node["tuple"], inst.M)
                  for node in catalog["nodes"][:count]]
        c = draw_samples(seed)[0]
        return {"inst": inst, "tuples": tuples, "c": c,
                "c_value": serialize.parse_scalar(c, inst.M)}

    def rep(self, st, probe=None):
        from cybethe.typea import (apply_flow, available_generators, beta,
                                   frame_conditions_check, kernel_basis,
                                   witt_basis)
        records = []
        for y in st["tuples"]:
            space, flag = kernel_basis(st["inst"], y)
            report = frame_conditions_check(space)
            wb = witt_basis(space, adjusted=flag.adjusted,
                            quadratic_extension=True)
            images = [apply_flow(space, wb, gen, st["c_value"])[1]
                      for gen in available_generators(space)]
            records.append({"frame_ok": report["ok"],
                            "beta": beta(space, flag.adjusted),
                            "witt": wb.vectors, "images": images})
        return records

    def bfs_nodes(self, out):
        return 0

    def _image_tuples(self, records):
        from cybethe import BetheTuple
        return [BetheTuple.monic_of(img) for r in records
                for img in r["images"]]

    def _image_text(self, records):
        from cybethe import serialize
        return serialize.dumps([serialize.tuple_doc(t)
                                for t in self._image_tuples(records)])

    def keep(self, records):
        return common.sha256(self._image_text(records))

    def check(self, st, records, kept, seed, size, checks):
        from cybethe import BetheTuple
        for digest in kept:
            checks.expect("rep_identical", digest == kept[0])
        if seed == REFERENCE_SEED:
            want = load_expected()[self.name][size]
            checks.expect("digest", kept[0] == want["sha256"], kept[0])
        for y, r in zip(st["tuples"], records):
            checks.expect("frame_conditions", r["frame_ok"] is True)
            checks.expect("beta_roundtrip",
                          BetheTuple.monic_of(r["beta"]) == y)
        images = self._image_tuples(records)
        for y in images:
            _exact_node(st["inst"], y, checks)
        _numeric_oracle(st["inst"], images, seed, checks)

    def props(self, st, records):
        polys = [p for r in records for p in r["witt"]]
        polys += [p for t in self._image_tuples(records) for p in t]
        return {"c": st["c"], "tuples": len(st["tuples"]),
                "images": sum(len(r["images"]) for r in records),
                "scalars.max_order": common.field_order(polys),
                "qpoly.max_coeff_bits": common.coeff_bits(polys)}


# --- cli_mix -----------------------------------------------------------------

class Request(NamedTuple):
    name: str
    argv: list
    expect: Callable            # (returncode, stdout) -> (ok, detail)
    known_defect: bool = False


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _error_record(rc, stdout):
    """README contract: input errors exit 2 (internal 3) with a JSON record."""
    doc = _json(stdout)
    ok = (rc in (2, 3) and isinstance(doc, dict)
          and isinstance(doc.get("error"), dict)
          and "kind" in doc["error"] and "message" in doc["error"])
    return ok, f"exit {rc}"


class CliMix:
    """Closed loop, one client: each request starts when the last ends."""

    kind = "cli"
    name = "cli_mix"
    probe = ProcessProbe
    PROBE_EVERY = 3         # requests between probe-process samples

    def setup(self, seed, size, workdir):
        # cli is imported for its cost: every request pays it
        from cybethe import (BetheTuple, cli, cyclotomic_generate,  # noqa
                             orbit_data, serialize)
        samples = draw_samples(seed)
        inst = serialize.instance_from_doc(A2_DOC)
        fold = orbit_data(inst.cartan, inst.aut)
        member, _ = cyclotomic_generate(
            inst, fold, BetheTuple.trivial(2), 0,
            serialize.parse_scalar(samples[1], inst.M))
        no_cartan = {k: v for k, v in A2_DOC.items() if k != "cartan"}
        workdir.mkdir(parents=True, exist_ok=True)
        files = {"instance.json": A2_DOC,
                 "tuple.json": serialize.tuple_doc(member),
                 "no-cartan.json": no_cartan}
        for fname, doc in files.items():
            (workdir / fname).write_text(json.dumps(doc))
        return {"inst": inst, "fold": fold, "tuple": member,
                "samples": samples, "rank": 2 + seed % 3,
                "workdir": workdir}

    def requests(self, st):
        from cybethe import (canonical_lambda0, cyclotomic_generate,
                             explore_population, serialize)
        inst, fold, y = st["inst"], st["fold"], st["tuple"]
        c, samples, rank = st["samples"][0], st["samples"], st["rank"]
        io = ["--instance", "instance.json", "--tuple", "tuple.json"]

        def expect_doc(want):
            def check(rc, stdout):
                return rc == 0 and _json(stdout) == want, f"exit {rc}"
            return check

        def expect_flags(*keys):
            def check(rc, stdout):
                doc = _json(stdout) or {}
                return (rc == 0 and all(doc.get(k) is True for k in keys),
                        f"exit {rc}")
            return check

        def expect_analyze(rc, stdout):
            doc = _json(stdout) or {}
            ok = doc.get("frame_report", {}).get("ok") is True
            return rc == 0 and ok and doc.get("self_dual") is True, \
                f"exit {rc}"

        def expect_numeric(rc, stdout):
            doc = _json(stdout) or {}
            return rc == 0 and doc.get("max_residual", 1.0) < 1e-8, \
                f"exit {rc}"

        # folding A4 along (1 4)(2 3): L = 1 on {1,4}, L = 2 on {2,3}
        fold_doc = {"reps": [1, 2], "orbit_len": [2, 2, 2, 2],
                    "linking": [1, 2, 2, 1], "a_fold": [[2, -1], [-2, 2]],
                    "d_fold": [2, 1], "orbits": [[1, 4], [2, 3]]}
        generated, _ = cyclotomic_generate(
            inst, fold, y, 0, serialize.parse_scalar(c, inst.M))
        values = [serialize.parse_scalar(s, inst.M) for s in samples]
        catalog = serialize.catalog_doc(
            explore_population(inst, fold, y, 1, values))

        def expect_generate(rc, stdout):
            doc = _json(stdout) or {}
            return (rc == 0 and doc.get("tuple")
                    == serialize.tuple_doc(generated)), f"exit {rc}"

        return [
            Request("fold", ["fold", "--cartan", "A4",
                             "--sigma", "(1 4)(2 3)"], expect_doc(fold_doc)),
            Request("lambda0", ["lambda0", "--rank", str(rank)],
                    expect_doc({"lambda0": serialize.weight_doc(
                        canonical_lambda0(rank))})),
            Request("verify", ["verify"] + io,
                    expect_flags("generic", "critical", "cyclotomic")),
            # "--c=-1/2": argparse reads a separate "-1/2" as an option
            Request("generate", ["generate"] + io
                    + ["--direction", "1", "--c=" + c], expect_generate),
            Request("eigenvalues", ["eigenvalues"] + io,
                    expect_flags("match")),
            Request("typea_analyze", ["typea", "analyze"] + io,
                    expect_analyze),
            Request("populate", ["populate"] + io
                    + ["--depth", "1", "--samples=" + ",".join(samples)],
                    expect_doc(catalog)),
            Request("check_numeric", ["check-numeric"] + io, expect_numeric),
            Request("bad_sigma", ["fold", "--cartan", "A4",
                                  "--sigma", "(1 9)"], _error_record),
            Request("bad_scalar", ["generate"] + io
                    + ["--direction", "1", "--c", "1/x"], _error_record),
            Request("missing_file", ["verify", "--instance", "instance.json",
                                     "--tuple", "absent.json"],
                    _error_record),
            # recorded contract defects: both exit 1 with a traceback today
            Request("no_cartan", ["verify", "--instance", "no-cartan.json",
                                  "--tuple", "tuple.json"], _error_record,
                    known_defect=True),
            Request("zero_denominator", ["generate"] + io
                    + ["--direction", "1", "--c", "1/0"], _error_record,
                    known_defect=True),
        ]

    def run_request(self, st, req, command=(sys.executable, "-m", "cybethe")):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*command, *req.argv], cwd=st["workdir"], env=common.child_env(),
            capture_output=True, text=True, timeout=120)
        return {"name": req.name, "rc": proc.returncode,
                "stdout": proc.stdout,
                "ms": (time.perf_counter() - t0) * 1000.0}

    def rep(self, st, probe=None):
        out = []
        for i, req in enumerate(st["requests"]):
            if probe and i and i % self.PROBE_EVERY == 0:
                probe.sample()
            out.append(self.run_request(st, req))
        return out

    def bfs_nodes(self, results):
        for res in results:
            doc = _json(res["stdout"]) if res["name"] == "populate" else None
            if doc:
                return len(doc["nodes"])
        return 0

    def keep(self, results):
        return results

    def check(self, st, first, kept, seed, size, checks):
        by_name = {r.name: r for r in st["requests"]}
        for round_ in kept:
            for res in round_:
                req = by_name[res["name"]]
                ok, detail = req.expect(res["rc"], res["stdout"])
                if req.known_defect:
                    checks.known(ok)
                else:
                    checks.expect("request:" + req.name, ok, detail)

    def props(self, st, first):
        from cybethe import serialize
        polys = list(st["tuple"])
        for res in first:
            doc = _json(res["stdout"])
            if res["name"] == "populate" and doc:
                for node in doc["nodes"]:
                    polys += serialize.tuple_from_doc(node["tuple"],
                                                      st["inst"].M)
        return {"samples": st["samples"], "lambda0_rank": st["rank"],
                "requests_per_round": len(st["requests"]),
                "scalars.max_order": common.field_order(polys),
                "qpoly.max_coeff_bits": common.coeff_bits(polys)}


WORKLOADS = {
    "populate_a4": Populate("populate_a4", A4_DOC),
    "populate_d4": Populate("populate_d4", D4_DOC),
    "typea_a4": TypeA(),
    "cli_mix": CliMix(),
}
