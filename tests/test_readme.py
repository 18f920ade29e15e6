"""The README's python blocks run, in order, in one namespace, as a reader
pastes them."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_python_blocks_run():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == text.count("```python") > 0
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
