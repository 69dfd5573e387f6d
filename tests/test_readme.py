"""README's library example runs, and prints what its comments say.

The Python block under "## Library example" is extracted and executed
as it stands, so that an API change that leaves README behind fails here.
"""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under '## Library example'"
    return match.group(1)


def test_library_example_prints_its_commented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 8, lines
    r, m, residual, roots, reason, homogeneous, s_shape, m_shape = lines
    assert abs(float(r) - 1.744506261727850) <= 1e-15
    assert m.startswith("-0.573228094354")
    assert float(residual) <= 1e-14
    assert roots == "[-1.0]"
    assert reason == "det(BR+I) vanishes"
    assert homogeneous == "False"
    assert s_shape == m_shape == "(2, 1, 1)"
