"""The package's public surface stays what the package itself uses.

Every public top-level function or class in ``src/linepierce``, and every
public method or property of a public class, must be referenced somewhere in
the package other than its own definition and the package root's re-export,
so a helper kept alive only by its own tests fails here.  References match
by name.  The allowlist names what the acceptance criteria call although the
package does not.  Starting the CLI imports neither ``dataclasses`` nor
``inspect``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import linepierce

SRC = Path(linepierce.__file__).parent
ALLOWED_UNUSED = {"max_vertical_distance", "ruling_line_y"}


def parsed_modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def public_definitions(trees):
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node


def public_methods(trees):
    for module, node in public_definitions(trees):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}", member


def uses(trees, definition) -> int:
    """Names and attributes spelling the definition's name, outside its own
    body and outside the package root."""
    own = {id(node) for node in ast.walk(definition)}
    count = 0
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Name) and node.id == definition.name:
                count += 1
            elif isinstance(node, ast.Attribute) and node.attr == definition.name:
                count += 1
    return count


def test_every_public_definition_is_used_by_the_package():
    trees = parsed_modules()
    unused = [
        f"{module}.{node.name}"
        for module, node in public_definitions(trees)
        if node.name not in ALLOWED_UNUSED and not uses(trees, node)
    ]
    assert unused == []


def test_every_public_method_is_used_by_the_package():
    trees = parsed_modules()
    unused = [
        f"{owner}.{node.name}"
        for owner, node in public_methods(trees)
        if not uses(trees, node)
    ]
    assert unused == []


def test_every_root_export_resolves():
    tree = parsed_modules()["__init__"]
    exports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exports
    for module, name in exports:
        source = importlib.import_module(f"linepierce.{module}")
        assert getattr(linepierce, name) is getattr(source, name)


def test_no_module_imports_dataclasses():
    imported = set()
    for tree in parsed_modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    assert "fractions" in imported
    assert "dataclasses" not in {name.split(".")[0] for name in imported}


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    probe = ("import sys, linepierce.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
