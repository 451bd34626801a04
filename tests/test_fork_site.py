"""The package forks in one place: ``parallel.fork_join``, which both the CSV
writer and the frequency walk call, holds the guards a fork needs (no other
thread, the child's ``os._exit``, the reaping).  A second ``os.fork`` call
would have to repeat them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "atompairs"


def fork_sites(source: str) -> list[str]:
    """``line: function`` of each call of ``os.fork`` in ``source``, as
    ``os.fork()``, through ``import os as x`` or ``from os import fork``;
    ``<module>`` for a call outside any function."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "os"}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names |= {alias.asname or alias.name for alias in node.names if alias.name == "fork"}
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            through_module = isinstance(func, ast.Attribute) and func.attr == "fork" and isinstance(func.value, ast.Name) and func.value.id in modules
            if through_module or (isinstance(func, ast.Name) and func.id in names):
                sites.append(f"{child.lineno}: {function}")
            visit(child, function)

    visit(tree, "<module>")
    return sorted(sites, key=lambda site: int(site.split(":")[0]))


def test_the_package_calls_os_fork_in_one_function():
    functions = []
    for path in sorted(PACKAGE.glob("*.py")):
        functions += [f"{path.name}:{site.split(': ')[1]}" for site in fork_sites(path.read_text())]
    assert functions == ["parallel.py:fork_join"]


def test_the_guard_sees_every_form_of_fork_call():
    source = "\n".join(
        [
            "import os",
            "import os as system",
            "from os import fork, fork as spawn",
            "os.fork()",
            "def one():",
            "    return system.fork()",
            "def two():",
            "    def inner():",
            "        fork()",
            "    spawn(); os.forkpty(); other.fork()",
        ]
    )
    assert fork_sites(source) == ["4: <module>", "6: one", "9: inner", "10: two"]
