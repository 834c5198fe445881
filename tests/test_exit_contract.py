"""The exit-code contract of ``--verify``, checked on the source of ``cli.py``.

A re-check of what a command just wrote can only fail through a defect of
the package, so every ``raise`` whose message starts ``verification
failed`` must raise ``InternalError`` (exit 5), and ``verify_refutation``
never raises ``InputError`` (exit 3, reserved for faults in the inputs).
"""

import ast
from pathlib import Path

import linepierce

CLI = ast.parse((Path(linepierce.__file__).parent / "cli.py").read_text(encoding="utf-8"))


def raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def message(node: ast.Raise) -> str:
    """The leading literal text of the raised exception's first argument."""
    if not (isinstance(node.exc, ast.Call) and node.exc.args):
        return ""
    arg = node.exc.args[0]
    if isinstance(arg, ast.JoinedStr) and arg.values:
        arg = arg.values[0]
    return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else ""


def test_failed_verification_raises_internal_error():
    raises = [
        node for node in ast.walk(CLI)
        if isinstance(node, ast.Raise) and message(node).startswith("verification failed")
    ]
    assert len(raises) >= 5  # at least one re-check per command
    assert {raised_name(node) for node in raises} == {"InternalError"}


def test_verify_refutation_raises_no_input_error():
    (verify,) = [
        node for node in CLI.body
        if isinstance(node, ast.FunctionDef) and node.name == "verify_refutation"
    ]
    names = [raised_name(node) for node in ast.walk(verify) if isinstance(node, ast.Raise)]
    assert names and "InputError" not in names
