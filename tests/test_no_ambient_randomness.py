"""No module under ``src/repro`` draws from or seeds ambient random state.

Results are identical for any worker count only because every draw
comes from an explicitly seeded generator: ``parallel_map`` seeds
nothing, so a task that called ``np.random.random()`` would return
whatever the global state of its worker process happened to be.  The
only calls allowed on ``random`` and ``numpy.random`` are the seeded
generator constructors ``random.Random(...)`` and
``np.random.default_rng(...)``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: module -> the names a module may call or import from it
ALLOWED = {"random": {"Random"}, "numpy.random": {"default_rng", "Generator"}}


def _dotted(node: ast.AST) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def ambient_random_uses(source: str, filename: str = "<source>") -> list[str]:
    """``file:line: name`` for every ambient-randomness call or import."""
    tree = ast.parse(source, filename=filename)
    aliases: dict[str, str] = {}  # local name -> module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                qualified = f"{node.module}.{alias.name}"
                if qualified == "numpy.random":
                    aliases[alias.asname or alias.name] = qualified
                elif node.module in ALLOWED and alias.name not in ALLOWED[node.module]:
                    found.append(f"{filename}:{node.lineno}: {qualified}")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None:
            continue
        head, _, rest = name.partition(".")
        if head not in aliases or not rest:
            continue
        qualified = f"{aliases[head]}.{rest}"
        module, _, attr = qualified.rpartition(".")
        if module in ALLOWED and attr not in ALLOWED[module]:
            found.append(f"{filename}:{node.lineno}: {qualified}")
    return found


def test_scanner_flags_ambient_draws_and_seeds():
    source = (
        "import random\n"
        "import numpy as np\n"
        "from numpy import random as npr\n"
        "from random import shuffle\n"
        "random.seed(1)\n"
        "random.random()\n"
        "np.random.seed(2)\n"
        "np.random.rand()\n"
        "npr.normal()\n"
        "random.Random(3).random()\n"
        "np.random.default_rng(4).random()\n"
        "rng = np.random.Generator\n"
    )
    assert [line.split(": ")[1] for line in ambient_random_uses(source)] == [
        "random.shuffle",
        "random.seed",
        "random.random",
        "numpy.random.seed",
        "numpy.random.rand",
        "numpy.random.normal",
    ]


def test_no_module_uses_ambient_randomness():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += ambient_random_uses(path.read_text(), str(path.relative_to(SRC)))
    assert found == []
