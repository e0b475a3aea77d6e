"""The README's documented library call runs against the package as it is."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "evaluate(result.p_g, oos, catalog)" in code
    exec(compile(code, str(README), "exec"), {"__name__": "readme_library"})
    s, eps_single, eps_joint = (float(v) for v in capsys.readouterr().out.split())
    assert s > 0.0 and 0.0 <= eps_single <= eps_joint <= 1.0
