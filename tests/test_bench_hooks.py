"""The traced benchmark run wraps quatbraid functions by name; guard those names.

This imports the benchmark's tracer hooks, installs them and takes them out
again without running any workload, so a refactor that deletes or renames a
wrapped function fails here rather than in a traced benchmark run.
"""

import sys
from pathlib import Path

from quatbraid import cover, diagrams, gf2, image_group
from quatbraid.algebra import AlgebraElement
from quatbraid.image_group import SignedPermutation
from quatbraid.scalar import Scalar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

WRAPPED = [
    (diagrams, "admissible_diagrams"),
    (diagrams, "path_counts"),
    (cover, "double_cover_determinant"),
    (cover, "symplectic_check"),
    (image_group, "exact_determinant"),
    (gf2, "rank"),
    (gf2, "nullity"),
    (gf2, "nullspace"),
]


def _bindings() -> dict:
    """Every name bound in a quatbraid module or on a patched class, with its object."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "quatbraid" or name.startswith("quatbraid."):
            out.update({(name, key): value for key, value in vars(mod).items()})
    for cls in (Scalar, AlgebraElement, SignedPermutation):
        out.update({(cls.__name__, key): value for key, value in vars(cls).items()})
    return out


def test_trace_hooks_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads
    from tracer import Tracer

    before = _bindings()
    tracer = Tracer()
    layers.instrument(tracer, workloads)
    try:
        for module, name in WRAPPED:
            assert getattr(module, name).__wrapped__ is before[(module.__name__, name)]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
