"""The README's python blocks run, in order, in one namespace, as a reader
pastes them; and msrr exports only what they, the tests and the scripts
import from it."""

import ast
import pathlib
import re

import msrr

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_the_readme_python_blocks_run():
    text = README.read_text()
    blocks = _python_blocks()
    assert len(blocks) == text.count("```python") > 0
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_every_exported_name_is_imported_from_msrr_by_the_readme_tests_or_scripts():
    files = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))
    sources = _python_blocks() + [path.read_text() for path in files]
    imported = {alias.name for text in sources for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ImportFrom) and node.module == "msrr"
                for alias in node.names}
    assert all(hasattr(msrr, name) for name in msrr.__all__)
    assert set(msrr.__all__) <= imported, sorted(set(msrr.__all__) - imported)
