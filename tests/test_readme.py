"""The ``python`` blocks and the ``tvclust`` commands of README.md run as
written, so the documented API and CLI cannot drift from the code.

The blocks run in order in one namespace, so a later block may use names an
earlier one defined.  Asserts inside a block are part of the check.  The
commands run in order through ``cli.main`` in one temporary directory, so a
later command may read the files an earlier one wrote.
"""

import re
import shlex
from pathlib import Path

from tvclust.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
BASH = re.compile(r"^```bash\n(.*?)^```", re.MULTILINE | re.DOTALL)


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in BLOCK.finditer(text)
    ]


def cli_commands():
    """The argument lists of the ``tvclust`` lines of the bash blocks, with
    backslash continuations joined and comments dropped."""
    text = README.read_text(encoding="utf-8")
    lines = "\n".join(m.group(1) for m in BASH.finditer(text)).replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
        for line in lines.split("\n")
        if line.startswith("tvclust ")
    ]


def test_readme_has_python_blocks():
    assert python_blocks()


def test_readme_python_blocks_run():
    namespace = {"__name__": "readme"}
    for line, block in python_blocks():
        exec(compile(block, f"{README}:{line}", "exec"), namespace)


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    commands = cli_commands()
    assert [argv[0] for argv in commands] == ["generate", "fit", "experiment", "audit"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)
