import ast
import cProfile
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_src_lines_totals_the_modules():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"),
         str(ROOT / "src")], capture_output=True, text=True, check=True)
    rows = [line.split(maxsplit=1) for line in out.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total" and int(total) > 0
    assert int(total) == sum(int(count) for count, _ in modules)
    assert any(path.endswith("qpoly.py") for _, path in modules)


def test_src_lines_compares_two_trees(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, files in ((old, {"kept.py": "x = 1\ny = 2\n",
                               "gone.py": '"""doc"""\nz = 3\n'}),
                        (new, {"kept.py": "x = 1\n# note\ny = 2\nw = 4\n",
                               "pkg/added.py": "a = 1\n\nb = 2\n"})):
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py"), str(old),
         str(new)], capture_output=True, text=True, check=True)
    assert [line.split() for line in out.stdout.splitlines()] == [
        ["1", "-", "-1", "gone.py"],
        ["2", "3", "+1", "kept.py"],
        ["-", "2", "+2", str(Path("pkg") / "added.py")],
        ["3", "5", "+2", "total"]]


def test_every_exported_name_resolves():
    import cybethe
    for name in cybethe.__all__:
        assert getattr(cybethe, name) is not None, name


def test_the_package_imports_only_the_standard_library():
    # numpy and the other test oracles stay out of the library, and so does
    # `dataclasses`, whose import of `inspect` each CLI request would pay
    for path in sorted((ROOT / "src" / "cybethe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    (path.name, name)
                assert name != "dataclasses", path.name
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []


def test_cli_wall_runs_one_round():
    cli_wall = ROOT / "tools" / "cli_wall.py"
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(cli_wall), src, src, "--rounds", "1"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.startswith("1 rounds")
    names = [row[:14].strip() for row in rows]
    assert names[:2] == ["fold", "validate"] and "missing tuple" in names
    assert not any("DIFFERS" in row for row in rows)


def rep_calls(old, new):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rep_calls.py"), str(old),
         str(new), "--workload", "populate_d4", "--size", "smoke"],
        capture_output=True, text=True, timeout=300)


def test_rep_calls_compares_one_smoke_rep(tmp_path):
    src = ROOT / "src"
    out = rep_calls(src, src)
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.startswith("populate_d4 smoke, seed 0, one warm rep: ")
    assert "calls (+0.0%)" in header
    assert rows[-1].startswith("keep digest same: ")
    # a tree whose catalog bytes differ: one more call, and exit 1
    shutil.copytree(src / "cybethe", tmp_path / "cybethe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    serialize = tmp_path / "cybethe" / "serialize.py"
    serialize.write_text(serialize.read_text().replace(
        'separators=(",", ":"))', 'separators=(",", ":")).strip() + " "'))
    out = rep_calls(src, tmp_path)
    assert out.returncode == 1, out.stderr
    (row,) = [r for r in out.stdout.splitlines() if "'strip'" in r]
    old, new, change, name = row.split(maxsplit=3)
    assert (old, name) == ("0", "~:<method 'strip' of 'str' objects>")
    assert int(new) == int(change) > 0
    assert out.stdout.splitlines()[-1].startswith("keep digest DIFFERS: ")


def test_rep_calls_prints_one_section_per_workload(tmp_path):
    src = ROOT / "src"
    shutil.copytree(src / "cybethe", tmp_path / "cybethe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # a tree whose catalogs gain a key: the populate digests differ, the
    # flow images of typea_a4 do not
    serialize = tmp_path / "cybethe" / "serialize.py"
    serialize.write_text(serialize.read_text().replace(
        '    doc = {}\n    put(doc, "c"',
        '    doc = {"x": 1}\n    put(doc, "c"'))

    def sections(*workloads):
        out = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "rep_calls.py"), str(src),
             str(tmp_path), "--size", "smoke",
             *(arg for w in workloads for arg in ("--workload", w))],
            capture_output=True, text=True, timeout=300)
        parts = [part.splitlines() for part in out.stdout.split("\n\n")]
        return out.returncode, [(lines[0].split()[0], lines[-1].split(":")[0])
                                for lines in parts]

    # without --workload all three run
    assert sections() == (1, [("populate_a4", "keep digest DIFFERS"),
                              ("populate_d4", "keep digest DIFFERS"),
                              ("typea_a4", "keep digest same")])
    assert sections("typea_a4") == (0, [("typea_a4", "keep digest same")])
    assert sections("typea_a4", "populate_d4", "typea_a4") == (
        1, [("typea_a4", "keep digest same"),
            ("populate_d4", "keep digest DIFFERS")])


def test_rep_calls_counts_named_functions_moved_or_not():
    src = ROOT / "src"
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rep_calls.py"), str(src),
         str(src), "--workload", "populate_d4", "--size", "smoke",
         "--count", "serialize.py:tuple_doc", "--count", "no such name"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    first = lines.index("counts of functions matching "
                        "'serialize.py:tuple_doc':")
    assert lines[first + 4] == "counts of functions matching 'no such name':"
    rows = [line.split() for line in lines[first + 1:first + 4]]
    # tuple_doc, its list comprehension and tuple_doc_json did not move,
    # and are printed anyway
    assert [name for *_, name in rows] == [
        "cybethe/serialize.py:tuple_doc",
        "cybethe/serialize.py:tuple_doc.<locals>.<listcomp>",
        "cybethe/serialize.py:tuple_doc_json"]
    assert all(old == new and int(old) > 0 for old, new, _ in rows)
    assert lines[first + 5].startswith("keep digest same: ")


def test_rep_calls_counts_methods_of_one_name_apart():
    spec = importlib.util.spec_from_file_location(
        "rep_calls", ROOT / "tools" / "rep_calls.py")
    rep_calls = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rep_calls)
    from cybethe import cartan
    from cybethe.scalars import Cyc
    prefix = str(Path(cartan.__file__).resolve().parents[1]) + os.sep
    a2, aut, omega = cartan.CartanData.series("A", 2), \
        cartan.DiagramAut((1, 0)), Cyc.of(-1)
    u, v = (cartan.ProblemInstance(a2, aut, omega, (), (),
                                   cartan.Weight([1, 1])) for _ in range(2))
    got = []
    for run in (lambda: u.lambda0 == v.lambda0, lambda: u == v):
        prof = cProfile.Profile()
        prof.runcall(run)
        counts = rep_calls.call_counts(prof, prefix)
        got.append({name: count for name, count in counts.items()
                    if name.startswith("cybethe/")
                    and name.endswith("__eq__")})
    # the Record comparison compares the instances' fields, of which only
    # the weights at the origin are distinct objects
    assert got[0] == {"cybethe/cartan.py:Weight.__eq__": 1}
    assert set(got[1]) == {"cybethe/cartan.py:Weight.__eq__",
                           "cybethe/cartan.py:Record.__eq__"}
    assert got[1]["cybethe/cartan.py:Record.__eq__"] == 1


# What `tools/reach.py` reports: the definitions that no command and no
# benchmark file reaches, each kept for the reason given.  Anything else it
# reports is code to wire into a command or to delete.
KEPT_UNREACHED = {
    # the benchmark tracer's SPANNED wraps it by `getattr` (ROADMAP item 9)
    "linalg.nullspace",
    # the benchmark tracer's SPANNED wraps it by `getattr` (ROADMAP item 9)
    "linalg.rank",
    # the only reader of `genengine.is_generic`, which the benchmark's smoke
    # test asserts (ROADMAP item 9)
    "genengine.elementary_generate_L1",
}


def reach(*args):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"), *map(str, args)],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_reach_reports_only_the_kept_definitions():
    assert set(reach()) == KEPT_UNREACHED


def test_no_export_is_unreached():
    # a name the package exports is one that a command or the benchmark
    # uses
    import cybethe
    objs = [getattr(cybethe, name) for name in cybethe.__all__]
    exported = {f"{obj.__module__.partition('.')[2]}.{obj.__qualname__}"
                for obj in objs if not isinstance(obj, type(cybethe))}
    assert exported & set(reach()) == set()


def test_reach_follows_commands_and_benchmark_files(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "perfbench"
    shutil.copytree(ROOT / "src" / "cybethe", src / "cybethe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench.mkdir()
    # a new function that only a test calls is reported; so is the
    # benchmark's oracle once no benchmark file uses it
    typea = src / "cybethe" / "typea.py"
    typea.write_text(typea.read_text() + "\n\ndef unread(space):\n"
                     "    return kernel_basis(space)\n")
    got = reach(src, bench)
    assert "typea.unread" in got and "numerics.residual_norm" in got
    assert "typea.kernel_basis" not in got
    # a name that a benchmark file imports, or reads off a module, is a
    # root; a string is not
    (bench / "use.py").write_text(
        "from cybethe.typea import unread\nfrom cybethe import numerics\n"
        "unread(numerics.residual_norm)\nNAMES = ('rank',)\n")
    got = reach(src, bench)
    assert "typea.unread" not in got and "numerics.residual_norm" not in got
    assert "linalg.rank" in got
