"""The README's command examples stay in step with the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from tnplan.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """Every ``tnplan ...`` line of the README's ``sh`` blocks, continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "tnplan":
                commands.append(argv[1:])
    return commands


def test_readme_shows_every_subcommand():
    shown = {argv[0] for argv in readme_commands()}
    assert shown == {"ingest", "plan", "anneal", "execute", "bench", "report"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)
