"""Functions of ``src/hypergconv`` that no CLI kind calls.

    python3 tools/reach.py

Runs every CLI kind through ``cli.main`` under ``sys.setprofile``: both
resisting games against all three players, ``polyak-worst`` in float64
(r = 5) and in mpmath (r = 12), the cut game on a dense and a capped packing
with both players, ``interp``, ``zoo-validate`` and a two-cell sweep, each
writing into a temporary directory; calls made while ``hypergconv.cli`` is
imported count as reached.  Then it lists every function of
``src/hypergconv`` whose body was never entered, one line each as
``file:line qualname (n lines)``, counting the lines from the ``def`` (or its
first decorator) to the end of the body.  A function nested in an unreached
one is counted with it, not on its own line.  The last line gives the totals.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypergconv"
sys.path.insert(0, str(ROOT / "src"))

PLAYERS = ["polyak", "rgd", "random"]
RUNS = [
    ("lb-nonsmooth", {"T": 8, "r": 2.0, "players": PLAYERS}),
    ("lb-smooth", {"T": 4, "r": 2.0, "players": PLAYERS}),
    ("polyak-worst", {"eps": 0.1, "r": 5.0}),
    ("polyak-worst", {"eps": 0.1, "r": 12.0}),
    ("cut-game", {"d": 3, "r": 4.1, "eps": 0.12, "games": 1, "max_rounds": 10,
                  "player": "random"}),
    ("cut-game", {"d": 3, "r": 6.0, "eps": 0.1, "games": 1, "max_rounds": 10,
                  "player": "center"}),
    ("interp", {"theta_grid": [0.1, 1.4, 4], "triples": 20}),
    ("zoo-validate", {"d": 4, "samples": 20}),
    ("sweep", {"kind": "lb-nonsmooth", "base": {"r": 1.0, "players": ["polyak"]},
               "grid": {"T": [4, 8]}}),
]


def reached() -> set[tuple[str, int]]:
    """(file name, first line) of every code object entered while importing
    ``hypergconv.cli`` and during the runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        from hypergconv import cli

        if Path(cli.__file__).resolve().parent != SRC:
            raise RuntimeError(f"hypergconv imported from {cli.__file__}, not {SRC}")
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            for i, (kind, config) in enumerate(RUNS):
                path = Path(tmp) / f"config{i}.json"
                path.write_text(json.dumps(config))
                if cli.main([kind, "--config", str(path), "--seed", "0",
                             "--out", str(Path(tmp) / str(i))]) == 2:
                    raise RuntimeError(f"{kind} refused its config {config}")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return seen


def unreached(seen: set[tuple[str, int]]) -> list[tuple[str, int, str, int]]:
    """(file, first line, qualname, lines) of the outermost unreached functions."""
    out = []

    def walk(node, path, names, inside_unreached):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                missed = (str(path), first) not in seen
                if missed and not inside_unreached:
                    out.append((path.name, first, ".".join([*names, child.name]),
                                child.end_lineno - first + 1))
                walk(child, path, [*names, child.name], inside_unreached or missed)
            elif isinstance(child, ast.ClassDef):
                walk(child, path, [*names, child.name], inside_unreached)
            else:
                walk(child, path, names, inside_unreached)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, [], False)
    return out


def main() -> int:
    rows = unreached(reached())
    for name, line, qual, n in rows:
        print(f"{name}:{line} {qual} ({n} lines)")
    print(f"{len(rows)} functions, {sum(r[3] for r in rows)} lines reached by no CLI kind")
    return 0


if __name__ == "__main__":
    sys.exit(main())
