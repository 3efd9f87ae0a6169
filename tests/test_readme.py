"""The README's library example runs as written."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _section_code(heading):
    text = open(README, encoding="utf-8").read()
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, f"{heading} should hold one python block, found {len(blocks)}"
    return blocks[0]


def test_library_example_runs_and_prints_both_metrics():
    code = _section_code("## Library")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
    iou, oa = (float(v) for v in out.getvalue().split())
    assert 0.0 <= iou <= 1.0 and 0.0 <= oa <= 1.0
