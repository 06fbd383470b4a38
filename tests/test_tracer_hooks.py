"""The whole-run benchmark's tracer against the code it patches.

``benchmarks/e2e/e2e_tracer.py`` times each layer by replacing entry
points by name: methods from their class's own ``__dict__``, functions
wherever a module imported them.  A rename under ``src/`` would only
surface as a crash of the benchmark's traced pass, so these tests load
the tracer read-only and hold ``src/`` to its two lists.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tracer() -> types.ModuleType:
    path = ROOT / "benchmarks" / "e2e" / "e2e_tracer.py"
    spec = importlib.util.spec_from_file_location("e2e_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize(
    "layer, modname, clsname, methods, iters", TRACER.CLASS_ENTRY_POINTS,
    ids=[entry[2] for entry in TRACER.CLASS_ENTRY_POINTS])
def test_every_class_entry_point_is_a_plain_method_of_its_class(
        layer, modname, clsname, methods, iters):
    cls = getattr(importlib.import_module(modname), clsname)
    names = TRACER.public_methods(cls) if methods == TRACER.PUBLIC \
        else list(methods)
    assert names, f"{clsname}: no method to patch"
    assert set(iters) <= set(names), f"{clsname}: iterator not patched"
    for name in names:
        assert isinstance(cls.__dict__.get(name), types.FunctionType), \
            f"{clsname}.{name} is not a plain function in its own __dict__"


@pytest.mark.parametrize(
    "layer, modname, functions", TRACER.FUNCTION_ENTRY_POINTS,
    ids=[entry[1] for entry in TRACER.FUNCTION_ENTRY_POINTS])
def test_every_function_entry_point_exists(layer, modname, functions):
    module = importlib.import_module(modname)
    for name in functions:
        assert isinstance(getattr(module, name, None), types.FunctionType), \
            f"{modname}.{name} is missing"


def test_instrument_patches_and_restores_every_entry_point():
    device = importlib.import_module("repro.disk.device").BlockDevice
    before = dict(vars(device))
    tracer = TRACER.Tracer()
    with tracer.installed(lambda t: TRACER.instrument(t, {})):
        assert vars(device)["submit"] is not before["submit"]
    assert dict(vars(device)) == before


@pytest.mark.parametrize("batch_size, batches", [(0, 1), (2, 3)])
def test_a_policy_read_adds_one_request_per_span_list(batch_size, batches):
    """``disk.requests`` adds ``len(args[1])`` per ``submit`` call: a
    ``submit_policy`` read of N span lists adds exactly N, cut into any
    batch size, as long as ``submit`` takes the request list first."""
    from repro.disk.device import BlockDevice
    from repro.disk.geometry import scaled_disk
    from repro.disk.policy import DevicePolicy
    from repro.units import KB, MB

    device = BlockDevice(scaled_disk(64 * MB),
                         policy=DevicePolicy(batch_size=batch_size))
    requests = [[(at * MB, 4 * KB)] for at in range(5)]
    counters: dict[str, int] = {}
    tracer = TRACER.Tracer()
    with tracer.installed(lambda t: TRACER.instrument(t, counters)):
        device.submit_policy(requests)
    assert counters["disk.requests"] == len(requests)
    assert tracer.records[("disk", "BlockDevice.submit")][0] == batches
