"""What a fresh CLI process compiles, counted in AST nodes.

    python3 tests/start_up_nodes.py [SRC]
    python3 tests/start_up_nodes.py --against REF [SRC]

For each invocation of perfbench/golden.json, runs `abyss.cli` in a fresh
interpreter with SRC (default: this tree's src) on its path, and prints the
total AST node count of the abyss modules the process loaded, the
invocation, and those modules.  With PYTHONDONTWRITEBYTECODE set and no
__pycache__, a process compiles every module it imports, so the count is
the size of its compile work; unlike a wall time it repeats exactly, so it
shows where a start-up saving lies.

With --against REF (any git ref), exports REF with `git archive`, as
`bench_pairs.py` does, and prints each invocation's count under REF's src,
under SRC, and the change; the exit status is 1 when any count rises.

Stdlib only; run by hand (pytest does not collect it).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

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


def counts(src: Path) -> list[tuple[int, str, str]]:
    """(nodes, invocation, modules loaded) for each golden invocation under src."""
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["cli"]
    nodes, out = {}, []
    for invocation in golden:
        modules = loaded_modules(src, invocation.split())
        for m in modules:
            if m not in nodes:
                nodes[m] = node_count(src, m)
        names = " ".join(m.partition(".")[2] or m for m in modules)
        out.append((sum(nodes[m] for m in modules), invocation, names))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    parser.add_argument("--against", metavar="REF", help="git ref to compare with")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if args.against is None:
        for total, invocation, names in counts(src):
            print("%6d  %-52s %s" % (total, invocation, names))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        export(args.against, Path(tmp))
        before = counts(Path(tmp) / "src")
    rose = 0
    for (old, invocation, _), (new, _, _) in zip(before, counts(src)):
        rose += new > old
        print("%6d %6d %+6d  %s" % (old, new, new - old, invocation))
    print("%d of %d invocations compile more than %s" % (rose, len(before), args.against))
    return 1 if rose else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
