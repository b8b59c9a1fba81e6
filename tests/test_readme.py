"""README's library sketch runs as written, and each flag it names exists."""

import re
from pathlib import Path

import pytest

from threesquares.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs(capsys):
    text = README.read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S)
    assert sketch, "README has no library sketch"
    exec(compile(sketch.group(1), "README.md", "exec"), {})
    assert "'discriminant': 8464" in capsys.readouterr().out


FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def test_every_flag_the_readme_names_is_an_option(capsys):
    # The options each subcommand's -h lists, so a flag removed from the
    # command line cannot stay documented.
    commands = re.search(r"\{([\w,]+)\}", build_parser().format_help()).group(1)
    options = set()
    for command in commands.split(","):
        with pytest.raises(SystemExit):
            main([command, "-h"])
        options |= set(FLAG.findall(capsys.readouterr().out))
    assert "--max-n" in options
    assert set(FLAG.findall(README.read_text())) - options == set()
