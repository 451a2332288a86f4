"""The ``python`` blocks of README.md run as written, so the documented API
cannot drift from the code.

The blocks run in order in one namespace, so a later block may use names an
earlier one defined.  Asserts inside a block are part of the check.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in BLOCK.finditer(text)
    ]


def test_readme_has_python_blocks():
    assert python_blocks()


def test_readme_python_blocks_run():
    namespace = {"__name__": "readme"}
    for line, block in python_blocks():
        exec(compile(block, f"{README}:{line}", "exec"), namespace)
