"""Every name the tdlab package exports has a caller in the package or
its demos; tests alone do not keep a name alive. No module imports a
name it never uses, and importing the CLI loads no module that only the
pool's old executor or gen-mrp's checksum needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tdlab"

# Definitional references the tests pin the fast code against.
REFERENCES = (
    "interim_lambda_return",
    "offline_lambda_return",
    "watkins_interim_target",
    "accumulating_trace_nonrecursive",
)


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def used_names(node, defining=frozenset()):
    """Names loaded or read as attributes under node, except inside the
    function or class that defines them (imports are not uses)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defining = defining | {node.name}
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= used_names(child, defining)
    return found - defining


def test_every_export_has_a_caller():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    used = set()
    for path in sources:
        used |= used_names(ast.parse(path.read_text()))
    unused = [n for n in exported_names() if n not in used and n not in REFERENCES]
    assert unused == []


def test_references_are_exported():
    assert set(REFERENCES) <= set(exported_names())


def imported_names(tree):
    """The names a module's imports bind, except `from __future__` ones."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the exports
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported_names(tree) if name not in loaded]
    assert unused == []


# concurrent.futures, with logging, and multiprocessing once cost every
# command about 10 and 17 ms of set-up; hashlib loads OpenSSL, about 7 ms
# and 3.6 MB of peak RSS, and only gen-mrp uses it
NOT_LOADED_BY_THE_CLI = ("concurrent.futures", "logging", "multiprocessing", "hashlib", "_hashlib")


def test_importing_the_cli_loads_no_executor_pool_or_openssl():
    code = "import sys, tdlab.cli; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "tdlab.cli" in loaded
    assert [name for name in NOT_LOADED_BY_THE_CLI if name in loaded] == []
