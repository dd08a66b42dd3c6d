"""Regenerate the committed benchmark inputs and reference digests.

    python3 perfbench/record.py

Writes data/a4_depth2_catalog.json, the input of typea_a4 (the populate_a4
catalog at depth 2 with the reference samples), and data/expected.json:
for the reference seed, the sha256 of each workload's output at each size
and the node count at each BFS depth.  The benchmark treats these digests
as ground truth, so record them only from a commit whose outputs are
trusted.
"""

import json
from pathlib import Path

import common
from workloads import REFERENCE_SEED, TYPEA_CATALOG, WORKLOADS, depth_counts


def main():
    common.use_source_tree()
    from cybethe import explore_population, serialize
    a4 = WORKLOADS["populate_a4"]
    st = a4.setup(REFERENCE_SEED, "full")
    graph = explore_population(st["inst"], st["fold"], st["seed_tuple"], 2,
                               st["values"])
    common.DATA.mkdir(exist_ok=True)
    (common.DATA / TYPEA_CATALOG).write_text(
        serialize.dumps(serialize.catalog_doc(graph)) + "\n")

    expected = {}
    for name in ("populate_a4", "populate_d4", "typea_a4"):
        wl = WORKLOADS[name]
        expected[name] = {}
        for size in ("full", "smoke"):
            st = wl.setup(REFERENCE_SEED, size, Path("."))
            out = wl.rep(st)
            entry = {"sha256": wl.keep(out)}
            if name.startswith("populate"):
                entry["depth_counts"] = depth_counts(out[0])
            expected[name][size] = entry
            print(name, size, entry, flush=True)
    (common.DATA / "expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
