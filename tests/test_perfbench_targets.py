"""The names the benchmark's tracer wraps still exist in the package.

perfbench/tracing.py skips a target whose name is gone and leaves out every
metric that needs it, so a rename would silently drop part of a traced run.
The module is loaded by path; nothing under perfbench/ is changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from bettistab.monomial_ideal import MonomialIdeal

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up while it is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves_to_a_callable():
    targets = _load_tracing().TARGETS
    assert targets
    for target in targets:
        owner = importlib.import_module(f"bettistab.{target.module}")
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), target.name


def test_hook_dependencies_exist():
    # the betti_oracle hook reads the lcm box off the ideal
    assert callable(getattr(MonomialIdeal, "exponent_lcm", None))
