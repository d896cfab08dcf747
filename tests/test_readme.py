"""Every JSON example in the README is a scenario the parser accepts."""

import json
import re
from pathlib import Path

import pytest

from haloflow import parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_json_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_json_block_parses(index):
    parse_scenario(json.loads(BLOCKS[index]))
