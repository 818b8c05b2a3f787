"""The README's python examples run as written: each ```python block is
executed in a fresh interpreter with this checkout's src/ on the path, so an
example that names a deleted function or a changed signature fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_examples_run(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python examples"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for number, block in enumerate(blocks, start=1):
        done = subprocess.run(
            [sys.executable, "-c", block],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, f"README python block {number} failed:\n{done.stderr}"
