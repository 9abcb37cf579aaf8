#!/usr/bin/env python3
"""Check that every function in ``src/etkit`` is reached by a CLI verb or
a bench workload.

Under ``sys.setprofile`` this imports ``etkit`` from ``src/``, empties
every ``functools`` cache in the package (a warm cache hides calls), and
then runs:

- every case of both golden corpora (``tests/data``) through
  ``cli.main``;
- one seeded round of each bench workload through its ``run``, ``check``
  and ``digest`` (``bench/`` is only imported);
- ``EXTRA_ARGV`` below, for inputs that neither holds;
- ``FALLBACK_ARGV`` below, well-formed inputs that the CLI's direct
  reader declines, so that the argparse parser reads them.

Every ``def`` under ``src/etkit`` whose code never ran is then compared
with ``ALLOWED``, where each kept function gives its reason.  The script
prints any difference and exits 1 on one in either direction: a function
that nothing reaches belongs in ``tests/`` or nowhere, and an allowed one
that is now reached should leave the list.

    python scripts/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "etkit"

# inputs that neither golden corpus nor a bench round holds
EXTRA_ARGV = [
    # the group kinds klein4 and product
    ["oracle", "h1", "--p", "2", "--group", '{"kind":"klein4"}'],
    ["oracle", "h2", "--p", "2", "--group",
     '{"kind":"product","factors":[{"kind":"cyclic","n":2},{"kind":"cyclic","n":4}]}'],
    # a free product sorts an extension of the trivial pair by its base
    ["normalize", "--p", "2", "ext(2,triv) * E"],
]
# an abbreviated flag and --flag=value, which only argparse reads
FALLBACK_ARGV = [
    ["cohom", "--p=2", "--max", "3", "E*E"],
]

# function -> why it stays although no run above calls it
ALLOWED = {
    "field_models.FieldModel.check": "abstract method",
    "field_models.FieldModel.basis": "abstract method",
    "field_models.FieldModel.class_of": "abstract method",
    "field_models.FieldModel.predict": "abstract method",
    "rigidity.is_rigid": "the bench wraps it (bench/tracing.py SCAN_FUNCS)",
    "laurent.LaurentRing.inv": "the bench wraps it (bench/tracing.py); pow_ takes it "
                               "for n < 0; it inverts the units c*t^v alone",
    "smallfields.GF.inv": "the base step of LaurentRing.inv",
    "field_models._FracOps.inv": "an element operation of every domain() (README, Adding "
                                 "a field backend)",
}


def defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every def in the package,
    nested ones included; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    out = {}
    for path in sorted(PACKAGE.resolve().glob("*.py")):
        module = path.stem

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = name
                    walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), f"{module}.")
    return out


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def exercise() -> list[str]:
    """Run every input; return the failures found on the way."""
    import etkit.cli

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "etkit" or mod_name.startswith("etkit."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()

    failures = []
    for corpus in ("expr_golden.json", "field_golden.json"):
        for case in json.loads((ROOT / "tests" / "data" / corpus).read_text()):
            if _quiet(etkit.cli.main, case["argv"]) != case["code"]:
                failures.append(f"{corpus}: {case['argv']}")
    for argv in EXTRA_ARGV + FALLBACK_ARGV:
        if _quiet(etkit.cli.main, argv) != 0:
            failures.append(f"extra: {argv}")

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name, w in sorted(workloads.WORKLOADS.items()):
        for item in w.round(301, 0):
            out = w.run(item)
            if not w.check(item, out):
                failures.append(f"{name}: {item['stratum']}")
            w.digest(out)
    return failures


def main() -> int:
    sys.path.insert(0, str(SRC))
    ran = set()

    def hook(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(hook)
    try:
        failures = exercise()
    finally:
        sys.setprofile(None)

    import etkit
    if Path(etkit.__file__).resolve().parent != PACKAGE.resolve():
        print(f"etkit was imported from {etkit.__file__}, not from {PACKAGE}")
        return 1
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in ran}
    unreached = {name for key, name in defs().items() if key not in reached}

    for f in failures:
        print(f"failed: {f}")
    for name in sorted(unreached - set(ALLOWED)):
        print(f"unreached and not allowed: {name}")
    for name in sorted(set(ALLOWED) - unreached):
        print(f"allowed but reached or gone: {name}")
    bad = failures or unreached != set(ALLOWED)
    print(f"{len(unreached)} unreached, {len(ALLOWED)} allowed: "
          f"{'mismatch' if bad else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
