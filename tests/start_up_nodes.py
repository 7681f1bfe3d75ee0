"""What a fresh CLI process compiles, counted in AST nodes.

    python3 tests/start_up_nodes.py [SRC]

For each invocation of perfbench/golden.json, runs `abyss.cli` in a fresh
interpreter with SRC (default: this tree's src) on its path, and prints the
total AST node count of the abyss modules the process loaded, the
invocation, and those modules.  With PYTHONDONTWRITEBYTECODE set and no
__pycache__, a process compiles every module it imports, so the count is
the size of its compile work; unlike a wall time it repeats exactly, so it
shows where a start-up saving lies.  Run it on a `git archive` export of a
parent commit's src to compare the two.

Stdlib only; run by hand (pytest does not collect it).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# runs cli.main on its argv, then writes the abyss modules loaded as the last
# line of stderr
PROBE = ("import sys\nfrom abyss import cli\ntry:\n    cli.main(sys.argv[1:])\nfinally:\n"
         "    sys.stderr.write('\\n' + ' '.join(m for m in sys.modules "
         "if m.partition('.')[0] == 'abyss'))\n")


def loaded_modules(src: Path, argv: list[str]) -> list[str]:
    """The abyss modules a fresh process loads to run argv, sorted."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("ABYSS_FUEL", None)
    done = subprocess.run([sys.executable, "-c", PROBE] + argv, cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    return sorted(done.stderr.rpartition("\n")[2].split())


def node_count(src: Path, module: str) -> int:
    """The AST nodes of an abyss module's source under src."""
    parts = module.split(".")
    path = src.joinpath(*parts).with_suffix(".py")
    if not path.exists():
        path = src.joinpath(*parts, "__init__.py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


def main(argv: list[str]) -> None:
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["cli"]
    nodes = {}
    for invocation in golden:
        modules = loaded_modules(src, invocation.split())
        for m in modules:
            if m not in nodes:
                nodes[m] = node_count(src, m)
        names = " ".join(m.partition(".")[2] or m for m in modules)
        print("%6d  %-52s %s" % (sum(nodes[m] for m in modules), invocation, names))


if __name__ == "__main__":
    main(sys.argv[1:])
