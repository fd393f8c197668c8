import hashlib
import re
import shlex
from pathlib import Path

import pytest

from finslergo.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # the blocks build on each other, so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].unique
    assert namespace["batch"].xi.shape == (1000, 4)


# the README commands, run in-process; their output bytes were recorded
# when the one-pass solve came in and must not change
OUTPUTS = Path(__file__).resolve().parent / "readme_outputs"
SCAN_CSV_SHA256 = \
    "b6585ba5eb3cb35649257b4d3d9ba7a42eab9a2b766a742210366c1aadeeb091"
COMMANDS = {argv[0]: argv for argv in map(shlex.split, re.findall(
    r"^finslergo (.*)$", README.read_text(), flags=re.M))}


def test_readme_lists_the_pinned_commands():
    assert sorted(COMMANDS) == ["graph", "orbit", "scan", "validate-l",
                                "verify-s7"]


@pytest.mark.parametrize("command", ["validate-l", "graph", "verify-s7",
                                     "orbit"])
def test_readme_command_prints_its_recorded_bytes(capsys, command):
    assert main(COMMANDS[command]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (OUTPUTS / f"{command}.txt").read_bytes()


def test_readme_scan_writes_its_recorded_csv(tmp_path):
    argv = list(COMMANDS["scan"])
    out = tmp_path / "scan.csv"
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_CSV_SHA256
