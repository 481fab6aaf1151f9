"""The harness runners free each finished run by reference counting.

``run_native``, ``run_fasttrack`` and ``run_aikido_fasttrack`` build a
kernel (and, for the DBR modes, an engine, a code cache and a superblock
cache) whose parts point back at one another. Each runner closes the
kernel once its :class:`RunResult` is built, so nothing of the run waits
for the cyclic garbage collector.
"""

import gc
import weakref

import pytest

import repro.core.system as core_system
from repro.harness import runner
from repro.workloads.parsec import build_benchmark


@pytest.fixture
def system_refs(monkeypatch):
    refs = []
    for module in (runner, core_system):
        class WatchedKernel(module.Kernel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.extend([weakref.ref(self), weakref.ref(self.memory)])

        class WatchedEngine(module.DBREngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self))

        monkeypatch.setattr(module, "Kernel", WatchedKernel)
        monkeypatch.setattr(module, "DBREngine", WatchedEngine)
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _canneal():
    return build_benchmark("canneal", threads=2, scale=0.2)


def test_native_run_is_freed(system_refs):
    result = runner.run_native(_canneal(), seed=3, quantum=100)
    assert result.cycles > 0
    assert len(system_refs) == 2
    assert [ref() for ref in system_refs] == [None, None]


# canneal at this scale builds superblocks, whose bodies and caches link
# back to the engine.
@pytest.mark.parametrize("mode", ["fasttrack", "aikido-fasttrack"])
def test_compiled_tier_runs_are_freed(system_refs, mode):
    result = runner.run_mode(_canneal(), mode, seed=3, quantum=100)
    assert result.superblocks["superblocks_built"] > 0
    assert len(system_refs) == 3
    assert [ref() for ref in system_refs] == [None, None, None]
