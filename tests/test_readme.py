"""Every ```python block of README.md runs as written, and every ```ini
block parses as a config."""

import re
from pathlib import Path

import pytest

from squeezephase.cli import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
CONFIGS = re.findall(r"^```ini\n(.*?)^```", TEXT, flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_has_config_blocks():
    assert CONFIGS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code):
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("text", CONFIGS,
                         ids=[f"config{i}" for i in range(len(CONFIGS))])
def test_readme_config_parses(text):
    parse_config(text)
