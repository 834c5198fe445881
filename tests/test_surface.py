"""The package's surface stays what the package itself uses.

Every public top-level function or class in ``src/linepierce``, and every
public method or property of a public class, must be referenced somewhere in
the package other than its own definition and the package root's re-export,
so a helper kept alive only by its own tests fails here.  So must every
private top-level function or class and every other method, dunders left
out, so a private helper fails here once its last caller goes.  References
match by name.  The allowlist names what the acceptance criteria call
although the package does not.  Starting the CLI imports neither
``dataclasses`` nor ``inspect``, nor ``typing``.
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


def is_public(name: str) -> bool:
    return not name.startswith("_")


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(trees):
    """Top-level functions and classes, dunders left out."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not is_dunder(node.name):
                yield module, node


def methods(trees):
    """Each class's methods and properties, dunders left out, with the class."""
    for module, node in definitions(trees):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not is_dunder(member.name):
                    yield module, node, member


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
        for module, node in definitions(trees)
        if is_public(node.name) and node.name not in ALLOWED_UNUSED and not uses(trees, node)
    ]
    assert unused == []


def test_every_public_method_is_used_by_the_package():
    trees = parsed_modules()
    unused = [
        f"{module}.{owner.name}.{member.name}"
        for module, owner, member in methods(trees)
        if is_public(owner.name) and is_public(member.name) and not uses(trees, member)
    ]
    assert unused == []


def test_every_private_definition_is_used_by_the_package():
    trees = parsed_modules()
    unused = [
        f"{module}.{node.name}"
        for module, node in definitions(trees)
        if not is_public(node.name) and not uses(trees, node)
    ]
    assert unused == []


def test_every_private_method_is_used_by_the_package():
    # private methods, and every method of a private class
    trees = parsed_modules()
    unused = [
        f"{module}.{owner.name}.{member.name}"
        for module, owner, member in methods(trees)
        if not (is_public(owner.name) and is_public(member.name)) and not uses(trees, member)
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
    # without site (-S), whose own imports would hide the package's
    probe = ("import sys, linepierce.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
