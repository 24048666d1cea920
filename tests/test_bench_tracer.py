"""The benchmark's layer tracer, ``perfbench/tracing.py``, wraps names of the
package from outside it, private ones included. Installing it over the
package needs every one of those names, so removing or renaming one fails
here; uninstalling it must put back the very objects it replaced."""

import importlib.util
from pathlib import Path

import numpy as np

from fairalloc import CapacityVector, Population, policies


def load_tracing():
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_the_package_and_uninstalls():
    tracing = load_tracing()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracing._patches()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, original in originals:
            wrapped = owner.__dict__[attr]
            assert wrapped is not original and wrapped.__wrapped__ is original, attr
        # a tie-heavy utilitarian allocation runs under the wrappers: one tie
        # resolution, and no feasibility probe or LP call inside it
        pop = Population(np.full((6, 3), 0.5))
        alloc = policies.allocate_utilitarian(pop, CapacityVector([2, 2, 2]))
    finally:
        tracer.uninstall()
    assert alloc.assignment.tolist() == [1, 1, 2, 2, 3, 3]
    layers = tracer.per_layer()
    assert layers["allocate.calls"] == layers["allocate.ties.calls"] == 1
    assert layers["allocate.probe.calls"] == layers["allocate.lp.calls"] == 0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
