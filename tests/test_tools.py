import subprocess
import sys
from pathlib import Path

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
