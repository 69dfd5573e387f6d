"""Byte-for-byte stdout and exit code of CLI calls against a recorded corpus.

``golden/cli.json`` lists, per call, the argv, the exit code and the
stdout of ``cli.run``; a null stdout is not compared (the usage text of
an unknown command depends on the terminal width).  A change that alters
numbers on purpose re-records the file and says so in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib

import pytest

from singext.cli import run

CASES = json.loads((pathlib.Path(__file__).parent / "golden" / "cli.json")
                   .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_golden(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(list(case["argv"]))
    assert code == case["exit_code"]
    if case["stdout"] is not None:
        assert out.getvalue() == case["stdout"]
