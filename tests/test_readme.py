"""README's library example runs as shown: each ``print`` writes the ``# ...`` line under it."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_example_prints_the_lines_it_shows():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    lines = example.splitlines()
    shown = [after for line, after in zip(lines, lines[1:]) if line.startswith("print(")]
    assert shown and all(after.startswith("# ") for after in shown), shown
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", example], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [after.removeprefix("# ") for after in shown]
