"""The README's CLI and Library examples run as written."""

import re
import shlex
from pathlib import Path

from interdict.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(section, lang):
    """The first ```lang block after the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.DOTALL)[1]


def test_cli_block_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in fenced_block("CLI", "sh").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "interdict" for argv in commands)
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)


def test_library_block_runs():
    exec(fenced_block("Library", "python"), {})
