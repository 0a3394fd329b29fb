"""The benchmark's span tracer still finds what it wraps.

``perfbench/tracer.py`` names gprclutter functions in ``LAYERS`` and binds
the arguments of those it splits or counts by argument. A rename here
would otherwise surface only when the benchmark runs.
"""

import importlib
import inspect
import pathlib
import types

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    """``perfbench/tracer.py`` as a module, executed from its source so that
    no bytecode is written next to it (it imports only the standard library)."""
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


LAYERS = _tracer().LAYERS

#: Arguments a count reads from its function's bound arguments, by function.
COUNTED_ARGUMENTS = {("gprclutter.harness.cmat", "persist_matrix"): ("path",)}


def _function(module: str, name: str):
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module, name", [layer[:2] for layer in LAYERS],
                         ids=[".".join(layer[:2]) for layer in LAYERS])
def test_every_layer_is_a_module_level_function_of_the_package(module, name):
    function = _function(module, name)
    assert inspect.isfunction(function)
    assert function.__module__ == module


def test_every_argument_the_tracer_reads_is_a_parameter():
    read = {(module, name): (split[0],) for module, name, _, _, split in LAYERS if split}
    assert read, "no split layer left: the splits this test guards are gone"
    read.update(COUNTED_ARGUMENTS)
    missing = [(module, name, argument) for (module, name), arguments in read.items()
               for argument in arguments
               if argument not in inspect.signature(_function(module, name)).parameters]
    assert missing == []
