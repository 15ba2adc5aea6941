"""Source guard: no hash-kernel ``np.unique`` in the package.

NumPy 2.x answers ``np.unique(x)`` without a ``return_*`` argument with a
hash kernel that is an order of magnitude slower than one sort on large
integer keys; graph construction and the partitioner dedupe through
:func:`repro.graph.gather.sorted_unique` / ``unique_inverse`` instead.
This test walks every module under ``src/repro`` and fails on any bare
call, so the hash path cannot creep back in.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
HASH_FUNCS = {"unique", "unique_values"}
NUMPY_NAMES = {"np", "numpy"}


def bare_unique_calls(source: str, filename: str) -> list:
    """``(line, text)`` of every ``np.unique(...)`` call in ``source`` that
    passes no ``return_*`` keyword (plus every ``np.unique_values``)."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in HASH_FUNCS
            and isinstance(func.value, ast.Name)
            and func.value.id in NUMPY_NAMES
        ):
            continue
        if any((kw.arg or "").startswith("return_") for kw in node.keywords):
            continue
        found.append((node.lineno, ast.get_source_segment(source, node)))
    return found


def test_guard_flags_bare_calls_only():
    src = (
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b, c = np.unique(x, return_inverse=True)\n"
        "d = numpy.unique(x, axis=0)\n"
        "e = np.unique_values(x)\n"
        "f = sorted_unique(x)\n"
    )
    assert [line for line, _ in bare_unique_calls(src, "<t>")] == [2, 4, 5]


def test_no_bare_np_unique_in_package():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for line, text in bare_unique_calls(path.read_text(), str(path)):
            offenders.append(f"{path.relative_to(PACKAGE)}:{line}: {text}")
    assert not offenders, (
        "hash-kernel np.unique calls; use repro.graph.gather.sorted_unique "
        "or unique_inverse:\n" + "\n".join(offenders)
    )
