import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # the lookup of Tracer.install: a class attribute must be the class's
    # own, so a rename cannot leave the tracer wrapping nothing
    targets = _load_tracer()._TARGETS
    assert targets
    for module_name, path, _name, _hook in targets:
        owner = importlib.import_module("hypbuild." + module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            assert attr in owner.__dict__, path
        else:
            assert callable(getattr(owner, attr, None)), path
