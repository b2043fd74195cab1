"""README's examples run as written: each `panweird ...` line of its command
line block exits 0, and its library block executes, so a removed flag or
function named there fails here."""

import re
import shlex
from pathlib import Path

from panweird.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading, lang):
    """The first ```lang block after the line `heading`."""
    section = README[README.index("\n%s\n" % heading):]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the examples write their files here
    commands = [shlex.split(line, comments=True)[1:]
                for line in fenced_block("## Command line", "sh").splitlines()
                if line.startswith("panweird ")]
    assert len(commands) > 10
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_readme_library_block_runs(capsys):
    exec(fenced_block("## Library", "python"), {})
