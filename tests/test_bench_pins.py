"""The benchmark in ``bench/run.py`` wraps program functions by name when it
traces a run; every name it pins must resolve, so that renaming one fails
here and not only in a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))  # run.py imports its siblings spans and speed
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves(bench_run):
    assert bench_run.TARGETS
    for target in bench_run.TARGETS:
        owner = importlib.import_module(f"{bench_run.PACKAGE}.{target.module}")
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{target.name}: {target.module}.{target.attr} is gone"
        assert callable(owner), f"{target.name} is not callable"
