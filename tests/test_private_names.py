"""No module of the package and no script reads another atompairs module's
private (``_``-prefixed) names, so a policy such as the grid-resolution rule
stays behind its module's public functions.  Tests are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "atompairs"
MODULES = {"atompairs"} | {f"atompairs.{path.stem}" for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _dotted(node) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"]; None for anything but a name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def private_reads(source: str, own: str | None = None) -> list[str]:
    """``line: name`` of each private name of an atompairs module other than
    ``own`` that ``source`` reads, as ``mod._x`` or ``from atompairs.mod import _x``."""
    tree = ast.parse(source)
    bound = {}  # local name -> the dotted atompairs name it stands for
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "atompairs":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else "atompairs"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "atompairs":
            for alias in node.names:
                if _private(alias.name) and node.module != own:
                    reads.append(f"{node.lineno}: {node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            owner = ".".join([bound[chain[0]]] + chain[1:-1])
            if owner in MODULES and owner != own and _private(chain[-1]):
                reads.append(f"{node.lineno}: {owner}.{chain[-1]}")
    return sorted(reads)


def test_no_module_or_script_reads_another_modules_private_names():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        own = f"atompairs.{path.stem}" if path.parent == PACKAGE else None
        offences += [f"{path.relative_to(ROOT)}:{read}" for read in private_reads(path.read_text(), own)]
    assert offences == []


def test_the_guard_sees_both_forms_of_private_read():
    source = "\n".join(
        [
            "import atompairs.vapor",
            "from atompairs import vapor as v, cli",
            "from atompairs.filters import _fadof_transmission, filter_metrics",
            "v._check(atompairs.vapor._LN2, cli.__doc__, vapor_._x, filter_metrics)",
        ]
    )
    assert private_reads(source) == [
        "3: atompairs.filters._fadof_transmission",
        "4: atompairs.vapor._LN2",
        "4: atompairs.vapor._check",
    ]
    assert private_reads(source, own="atompairs.vapor") == ["3: atompairs.filters._fadof_transmission"]
