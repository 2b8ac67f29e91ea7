"""The public surface: every export has a caller outside the tests, and
the README's library example runs."""

import ast
import pathlib
import re

import gtrep

ROOT = pathlib.Path(__file__).resolve().parent.parent


def referenced_names(paths):
    # names that code reads: Name ids, Attribute attrs and the names of
    # `from ... import` statements (docstrings and comments do not count)
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def readme_library_example():
    # the first python block under "## Library"
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_every_export_has_a_caller_outside_the_tests():
    paths = [p for p in sorted((ROOT / "src" / "gtrep").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    used = referenced_names(paths)
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in gtrep.__all__ if name not in used
              and not re.search(r"\b%s\b" % re.escape(name), readme)]
    assert unused == []


def test_readme_library_example_runs():
    exec(compile(readme_library_example(), "README.md", "exec"), {})
