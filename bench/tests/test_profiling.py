"""The cProfile roll-up is a partition of the total call count."""

import json
import os
import threading

import repro
from repro.vcs.patch import Patch

from bench import profiling
from bench.tests.conftest import ROOT

REPRO_ROOT = os.path.dirname(os.path.abspath(repro.__file__))
BENCH_ROOT = os.path.join(ROOT, "bench")


def workload():
    patch = Patch.modifying({"a.py": "x = 2\n"}, base={"a.py": "x = 1\n"})
    snapshot = patch.apply({"a.py": "x = 1\n"})
    return json.dumps({"paths": sorted(snapshot), "n": len(snapshot)})


def test_rollup_sums_to_the_total_and_names_the_buckets():
    counter = profiling.CallCounter()
    profile = counter.start_here()
    workload()
    profile.disable()
    total = sum(entry.callcount for entry in profile.getstats())
    rollup = counter.rollup(REPRO_ROOT, BENCH_ROOT)
    assert tuple(rollup) == profiling.BUCKETS
    assert sum(rollup.values()) == total
    assert rollup["vcs"] > 0 and rollup["stdlib"] > 0 and rollup["builtins"] > 0
    assert rollup["other"] >= 1  # this file's own frames are not under bench/


def test_bucket_of():
    import repro.serve
    import repro.types

    bucket = lambda code: profiling.bucket_of(code, REPRO_ROOT, BENCH_ROOT)
    assert bucket(Patch.apply.__code__) == "vcs"
    assert bucket(repro.serve.ObservabilityServer.state.__code__) == "serve"
    assert bucket(repro.types.BuildKey.label.__code__) == "other"
    assert bucket(profiling.bucket_of.__code__) == "other"
    assert bucket(json.dumps.__code__) == "stdlib"
    assert bucket("<built-in method builtins.len>") == "builtins"


def test_threads_started_after_the_hook_are_counted():
    counter = profiling.CallCounter()
    counter.hook_new_threads()
    try:
        thread = threading.Thread(target=workload)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    finally:
        counter.unhook_new_threads()
    assert counter.rollup(REPRO_ROOT, BENCH_ROOT)["vcs"] > 0
