"""The README's documented calls run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The python block under "Library quick start"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    assert out.getvalue().startswith("PASS thm-ramanujan-qairy q=(0.5+0j) max_rel_err=")
