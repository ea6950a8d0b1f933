"""Checks on the package source and its documentation.

The README's library example is executed as written, so the documented
API cannot drift from the code. Every name a module of the package
imports must be used in it; no linter is assumed, so the check walks the
module's syntax tree.
"""

import ast
import contextlib
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hilferlab"

# names bound only so that bench/spans.py can wrap them in these modules
KEPT_FOR_THE_TRACER = {("picard_solver", "check_bielecki"), ("stability_lab", "make_grid")}


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    [example] = [block.split("```", 1)[0] for block in readme.split("```python\n")[1:]]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(example, "README.md", "exec"), {})
    lines = printed.getvalue().splitlines()
    assert lines[0].startswith("True ")  # the worked problem converges
    assert len(lines) == 2 + 4 and all(line.endswith(" True") for line in lines[1:])


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a package re-exports the names its __all__ lists
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_imported_name_is_used():
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text(), str(path)))
    }
    assert unused == KEPT_FOR_THE_TRACER
