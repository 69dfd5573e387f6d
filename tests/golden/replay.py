"""Replay the golden CLI corpus against a command in fresh processes.

``tests/test_golden.py`` calls ``cli.run`` in process; this script runs
each recorded argv through a real command instead, so that an installed
console script or ``python -m singext`` is held to the same bytes.  It
compares the exit code of every call, and its stdout wherever the corpus
records one (a null stdout is not compared).

    python tests/golden/replay.py singext
    PYTHONPATH=src python tests/golden/replay.py python -m singext

It prints one line per mismatch and exits 1 if there was any, else 0.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

CORPUS = pathlib.Path(__file__).with_name("cli.json")


def replay(command: list[str], corpus: pathlib.Path = CORPUS) -> list[str]:
    """Mismatches of ``command + argv`` against every case of the corpus."""
    problems = []
    for case in json.loads(corpus.read_text(encoding="utf-8")):
        proc = subprocess.run(command + case["argv"], capture_output=True, check=False)
        call = " ".join(case["argv"])
        if proc.returncode != case["exit_code"]:
            problems.append(f"{call}: exit code {proc.returncode}, "
                            f"recorded {case['exit_code']}")
        if case["stdout"] is not None and proc.stdout.decode("utf-8") != case["stdout"]:
            problems.append(f"{call}: stdout differs from the recording")
    return problems


def main() -> None:
    command = sys.argv[1:]
    if not command:
        sys.exit("usage: replay.py COMMAND [ARG...]")
    problems = replay(command)
    for line in problems:
        print(line)
    print(f"{len(problems)} mismatches replaying {CORPUS.name} through {' '.join(command)}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
