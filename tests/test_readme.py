"""README's examples run: the library tour, and every `thetaq` line of the
command-line block with its --output moved under tmp_path."""

import shlex
from pathlib import Path

from thetaq.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading, lang):
    """The first ```lang block after the level-2 heading."""
    section = README.split("\n## %s\n" % heading, 1)[1]
    return section.split("```%s\n" % lang, 1)[1].split("```", 1)[0]


def test_library_tour_runs():
    exec(compile(fenced_block("Library tour", "python"), "README.md", "exec"), {})


def test_command_line_examples_exit_0(capsys, tmp_path):
    lines = [line for line in fenced_block("Command line", "sh").splitlines()
             if line.startswith("thetaq ")]
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--output" in argv:
            at = argv.index("--output") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == 0, line
    capsys.readouterr()
