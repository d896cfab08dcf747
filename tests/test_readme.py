"""The README's examples: every JSON block is a scenario the parser accepts,
and every ``haloflow alltoall`` command prints the block that follows it."""

import json
import re
import shlex
from pathlib import Path

import pytest

from haloflow import cli, parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```json\n(.*?)```", TEXT, re.S)


def _alltoall_examples():
    """Each sh block's ``haloflow alltoall`` commands, with the block that follows it."""
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, re.S | re.M)  # (language, body)
    examples = []
    for (lang, body), (_next_lang, printed) in zip(fenced, fenced[1:]):
        argvs = [shlex.split(line)[1:] for line in body.splitlines()
                 if line.startswith("haloflow alltoall ")]
        if lang == "sh" and argvs:
            examples.append((argvs, printed))
    return examples


COMMANDS = _alltoall_examples()


def test_readme_has_json_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_json_block_parses(index):
    parse_scenario(json.loads(BLOCKS[index]))


def test_readme_has_alltoall_commands():
    assert COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_readme_alltoall_command_prints_the_next_block(index, capsys):
    argvs, printed = COMMANDS[index]
    for argv in argvs:
        assert cli.main(argv) == 0, shlex.join(argv)
    assert capsys.readouterr().out.encode() == printed.encode()
