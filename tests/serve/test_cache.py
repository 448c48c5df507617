"""Persistent compile cache: keying, durability, corruption recovery."""

import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro import acc
from repro.gpu.device import K20C
from repro.serve.cache import (PAYLOAD_VERSION, CompileCache,
                               device_fingerprint)

SRC = """
int a[n];
int s = 0;
#pragma acc parallel copyin(a)
#pragma acc loop gang vector reduction(+:s)
for (i = 0; i < n; i++)
    s += a[i];
"""

SRC2 = SRC.replace("s += a[i];", "s += a[i] * 2;")

GEOM = dict(num_gangs=2, num_workers=2, vector_length=32)


@pytest.fixture
def cache(tmp_path):
    return CompileCache(tmp_path / "cc")


def _key(cache, source=SRC, **kw):
    kw = {**GEOM, **kw}
    return cache.key_for(source, **kw)


class TestKeying:
    def test_key_is_stable(self, cache):
        assert _key(cache) == _key(cache)

    def test_source_changes_key(self, cache):
        assert _key(cache) != _key(cache, source=SRC2)

    def test_geometry_changes_key(self, cache):
        assert _key(cache) != _key(cache, num_gangs=4)

    def test_pipeline_changes_key(self, cache):
        # explicit on both sides: under REPRO_PASSES=minimal the default
        # resolves to "minimal", and the two keys must still differ
        assert (_key(cache, pipeline="minimal")
                != _key(cache, pipeline="optimized"))

    def test_compiler_profile_changes_key(self, cache):
        assert _key(cache) != _key(cache, compiler="vendor-a")

    def test_options_change_key(self, cache):
        assert _key(cache) != _key(cache, options={"scheduling": "blocked"})

    def test_device_cost_model_changes_key(self, cache):
        # a cost-model constant changes modeled behaviour => new key
        slow = K20C.with_overrides(kernel_launch_us=999.0)
        assert _key(cache) != _key(cache, device=slow)

    def test_device_name_does_not_change_key(self, cache):
        # pool devices are clones distinguished only by label
        clone = K20C.with_overrides(name="K20C #3")
        assert _key(cache) == _key(cache, device=clone)
        assert "name=" not in device_fingerprint(K20C)


class TestRoundTrip:
    def test_miss_compile_store_then_hit(self, cache):
        prog, status = cache.compile(SRC, **GEOM)
        assert status == "miss"
        prog2, status2 = cache.compile(SRC, **GEOM)
        assert status2 == "hit"
        a = np.arange(64, dtype=np.int32)
        assert prog.run(a=a).scalars["s"] == prog2.run(a=a).scalars["s"] \
            == a.sum()
        assert cache.stats()["stores"] == 1

    def test_disk_hit_after_memory_drop(self, cache):
        cache.compile(SRC, **GEOM)
        cache.drop_memory()
        prog, status = cache.compile(SRC, **GEOM)
        assert status == "hit"
        assert cache.stats()["disk_hits"] == 1
        a = np.arange(32, dtype=np.int32)
        assert prog.run(a=a).scalars["s"] == a.sum()

    def test_reconstructed_program_fresh_per_get(self, cache):
        cache.compile(SRC, **GEOM)
        key = _key(cache)
        p1 = cache.get(key, K20C)
        p2 = cache.get(key, K20C)
        assert p1 is not p2  # compiled-kernel state must not be shared

    def test_uncacheable_custom_profile(self, cache):
        from repro.acc.profiles import get_profile

        prog, status = cache.compile(SRC, compiler=get_profile("openuh"),
                                     **GEOM)
        assert status == "uncacheable"
        assert cache.stats()["stores"] == 0
        a = np.arange(16, dtype=np.int32)
        assert prog.run(a=a).scalars["s"] == a.sum()


class TestCorruptionRecovery:
    def _entry_path(self, cache):
        paths = list(cache.objects.glob("*/*.rcc"))
        assert len(paths) == 1
        return paths[0]

    def _poisoned(self, cache, mutate):
        cache.compile(SRC, **GEOM)
        path = self._entry_path(cache)
        blob = path.read_bytes()
        path.write_bytes(mutate(blob))
        cache.drop_memory()
        return path

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:len(b) // 2],                      # truncated payload
        lambda b: b"GARBAGE!" + b[8:],                  # bad magic
        lambda b: b.replace(b"\n", b" ", 1),            # headerless blob
        lambda b: b[:-10] + bytes(10),                  # flipped tail bytes
        lambda b: b"",                                  # empty file
    ])
    def test_defect_quarantined_and_recompiled(self, cache, mutate):
        path = self._poisoned(cache, mutate)
        prog, status = cache.compile(SRC, **GEOM)
        assert status == "miss"          # defect -> miss -> recompile
        assert cache.stats()["corrupt"] == 1
        assert path.exists()             # re-stored after recompile
        a = np.arange(64, dtype=np.int32)
        assert prog.run(a=a).scalars["s"] == a.sum()

    def test_wrong_payload_version_is_a_miss(self, cache):
        import hashlib

        def mutate(blob):
            nl = blob.index(b"\n")
            doc = pickle.loads(blob[nl + 1:])
            doc["v"] = 999
            payload = pickle.dumps(doc)
            header = b" ".join((
                b"REPROCC1",
                hashlib.sha256(payload).hexdigest().encode(),
                str(len(payload)).encode())) + b"\n"
            return header + payload

        self._poisoned(cache, mutate)
        _, status = cache.compile(SRC, **GEOM)
        assert status == "miss"
        assert cache.stats()["corrupt"] == 1

    def test_previous_payload_version_is_a_miss(self, cache):
        """A v3 entry (trace source calling helpers the executor no
        longer defines) must recompile, not reach the executor."""
        import hashlib

        def as_v3(blob):
            nl = blob.index(b"\n")
            doc = pickle.loads(blob[nl + 1:])
            doc["v"] = 3
            payload = pickle.dumps(doc)
            header = b" ".join((
                b"REPROCC1",
                hashlib.sha256(payload).hexdigest().encode(),
                str(len(payload)).encode())) + b"\n"
            return header + payload

        self._poisoned(cache, as_v3)
        prog, status = cache.compile(SRC, **GEOM)
        assert status == "miss"
        assert cache.stats()["corrupt"] == 1
        a = np.arange(64, dtype=np.int32)
        res = prog.run(a=a, executor_mode="trace", attribution=True)
        assert res.scalars["s"] == a.sum()

    def test_checksum_catches_silent_bitflip(self, cache):
        def flip(blob):
            i = len(blob) - 5
            return blob[:i] + bytes([blob[i] ^ 0x40]) + blob[i + 1:]

        self._poisoned(cache, flip)
        _, status = cache.compile(SRC, **GEOM)
        assert status == "miss"

    def test_quarantine_removes_corrupt_bytes_before_recompile(self, cache):
        # the corrupt entry leaves its canonical name at *detection*
        # time, not at recompile time — a concurrent process probing the
        # key in between must see a clean miss, never the corrupt bytes
        path = self._poisoned(cache, lambda b: b[: len(b) // 2])
        assert cache.get(cache.key_for(SRC, **GEOM), K20C) is None
        assert not path.exists()
        assert not list(path.parent.glob("*.qtn"))  # no quarantine litter

    def test_quarantine_preserves_a_concurrent_repair(self, cache):
        # the race the rename discipline exists for: reader A has
        # corrupt bytes in hand; before A quarantines, process B
        # recompiles and atomically replaces the entry with a healthy
        # one.  A's (now stale) quarantine must not delete B's repair.
        cache.compile(SRC, **GEOM)
        path = self._entry_path(cache)
        healthy = path.read_bytes()
        path.write_bytes(healthy[: len(healthy) // 2])  # A reads this...
        path.write_bytes(healthy)                       # ...B repairs it
        cache._quarantine(path)                         # A acts late
        assert path.exists()
        cache.drop_memory()
        _, status = cache.compile(SRC, **GEOM)
        assert status == "hit"  # the repair survived A's quarantine
        assert not list(path.parent.glob("*.qtn"))


class TestConcurrency:
    def test_two_processes_race_same_key(self, tmp_path):
        """Two processes compile the same program, then *write the same
        key at the same moment* (barrier-synchronized).  The atomic
        tmp+rename protocol means whichever replace lands last sticks,
        and the surviving entry always verifies whole."""
        import os
        import repro

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        root = tmp_path / "cc"
        go = tmp_path / "go"
        script = f"""
import os, sys, time
sys.path.insert(0, {str(src_root)!r})
import numpy as np
from repro.serve.cache import CompileCache
cache = CompileCache({str(root)!r})
from repro import acc
prog = acc.compile({SRC!r}, num_gangs=2, num_workers=2, vector_length=32)
key = cache.key_for({SRC!r}, num_gangs=2, num_workers=2, vector_length=32)
# barrier: both processes finish compiling, then store simultaneously
while not os.path.exists({str(go)!r}):
    time.sleep(0.005)
for _ in range(20):
    cache.put(key, prog)
print("stored")
"""
        procs = [subprocess.Popen([sys.executable, "-c", script],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
                 for _ in range(2)]
        import time
        time.sleep(1.0)  # let both reach the barrier
        go.write_text("go")
        for p in procs:
            out, err = p.communicate(timeout=180)
            assert p.returncode == 0, err.decode()
            assert out.decode().strip() == "stored"
        # the surviving entry is whole and verifiable by a third reader
        reader = CompileCache(root)
        prog, status = reader.compile(SRC, **GEOM)
        assert status == "hit"
        assert reader.stats()["corrupt"] == 0
        a = np.arange(64, dtype=np.int32)
        assert prog.run(a=a).scalars["s"] == a.sum()
        assert not list(reader.objects.glob("**/*.tmp"))

    def test_two_processes_corrupt_quarantine_repair_race(self, tmp_path):
        """Two processes hammer one key with corrupt->detect->repair
        cycles.  The quarantine discipline under test: a detected-corrupt
        entry leaves its canonical name atomically (no process can read
        the same corrupt bytes after another detected them and moved on
        to recompiling), and a quarantine racing a repair never deletes
        the repair.  Neither process may ever crash on garbage, and the
        key must end servable."""
        import os
        import time

        import repro

        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        root = tmp_path / "cc"
        go = tmp_path / "go"
        seed = CompileCache(root)
        key = seed.key_for(SRC, **GEOM)
        seed.compile(SRC, **GEOM)
        script = f"""
import os, sys, time
sys.path.insert(0, {str(src_root)!r})
from repro.serve.cache import CompileCache
from repro.gpu.device import K20C
from repro import acc
cache = CompileCache({str(root)!r})
prog = acc.compile({SRC!r}, num_gangs=2, num_workers=2, vector_length=32)
key = {key!r}
path = cache._path(key)
while not os.path.exists({str(go)!r}):
    time.sleep(0.005)
for i in range(25):
    try:
        path.write_bytes(b"REPROCC1 junk 3\\nxxx")  # vandalize
    except OSError:
        pass
    cache.drop_memory()
    got = cache.get(key, K20C)   # never raises: None (miss) or valid
    if got is None:
        cache.put(key, prog)     # repair
print("done", cache.corrupt)
"""
        procs = [subprocess.Popen([sys.executable, "-c", script],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
                 for _ in range(2)]
        time.sleep(1.0)
        go.write_text("go")
        detected = 0
        for p in procs:
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err.decode()
            word, n = out.decode().split()
            assert word == "done"
            detected += int(n)
        assert detected > 0  # the corruption path actually exercised
        # end state: the canonical name is either absent or healthy, a
        # recompile round-trips, and no quarantine/tmp litter remains
        reader = CompileCache(root)
        prog, status = reader.compile(SRC, **GEOM)
        assert status in ("hit", "miss")
        a = np.arange(64, dtype=np.int32)
        assert prog.run(a=a).scalars["s"] == a.sum()
        assert not list(reader.objects.glob("**/*.qtn"))
        assert not list(reader.objects.glob("**/*.tmp"))

    def test_no_tmp_litter_after_stores(self, cache):
        cache.compile(SRC, **GEOM)
        cache.compile(SRC2, **GEOM)
        assert not list(cache.objects.glob("**/*.tmp"))


class TestPruneAndClear:
    def test_max_entries_prunes_oldest(self, tmp_path):
        import os
        import time

        cache = CompileCache(tmp_path / "cc", max_entries=2)
        sources = [SRC.replace("s += a[i];", f"s += a[i] + {k};")
                   for k in range(3)]
        for i, src in enumerate(sources):
            cache.compile(src, **GEOM)
            # entry mtimes must be distinguishable for LRU-by-mtime
            path = cache._path(_key(cache, source=src))
            t = time.time() + i
            os.utime(path, (t, t))
        assert cache.stats()["entries"] == 2
        assert cache.stats()["evictions"] == 1
        # the oldest entry is the evicted one
        assert cache.get(_key(cache, source=sources[0]), K20C) is None

    def test_clear_drops_everything(self, cache):
        cache.compile(SRC, **GEOM)
        cache.clear()
        st = cache.stats()
        assert st["entries"] == 0 and st["stores"] == 0
        _, status = cache.compile(SRC, **GEOM)
        assert status == "miss"


class TestPayloadV5:
    """The payload stores the lowered IR and no generated code: a trace
    launch of a cache-served Program emits its source lazily, exactly as
    a freshly compiled Program does."""

    def _doc(self, cache):
        cache.compile(SRC, **GEOM)
        (path,) = cache.objects.glob("*/*.rcc")
        blob = path.read_bytes()
        return blob, pickle.loads(blob[blob.index(b"\n") + 1:])

    def test_payload_carries_no_generated_source(self, cache):
        blob, doc = self._doc(cache)
        assert PAYLOAD_VERSION == 5 and doc["v"] == 5
        assert sorted(doc) == ["autotune", "lowered", "pipeline",
                               "profile", "v"]
        assert b"_run_chunk" not in blob

    def test_v4_entry_is_a_miss(self, cache):
        import hashlib

        blob, doc = self._doc(cache)
        doc = {**doc, "v": 4, "trace_src": {"acc_region_main": "x = ("}}
        payload = pickle.dumps(doc)
        (path,) = cache.objects.glob("*/*.rcc")
        path.write_bytes(b" ".join((
            b"REPROCC1", hashlib.sha256(payload).hexdigest().encode(),
            str(len(payload)).encode())) + b"\n" + payload)
        cache.drop_memory()
        prog, status = cache.compile(SRC, **GEOM)
        assert status == "miss"
        assert cache.stats()["corrupt"] == 1
        a = np.arange(64, dtype=np.int32)
        assert prog.run(a=a, executor_mode="trace").scalars["s"] == a.sum()

    def test_cache_served_trace_launch_matches_fresh_compile(self, cache):
        from repro.gpu.executor_trace import emit_trace_source

        # a float sum lowers to buffer-style gang partials, which the
        # trace executor runs (atomic partials demote it to batched)
        src = SRC.replace("int", "float")
        fresh = acc.compile(src, **GEOM)
        cache.compile(src, **GEOM)
        cache.drop_memory()
        served, status = cache.compile(src, **GEOM)
        assert status == "hit" and cache.disk_hits == 1
        assert all(ck.trace_source is None
                   for ck in served._compiled.values())
        a = ((np.arange(200) % 11) / 4.0).astype(np.float32)
        runs = [p.run(a=a, executor_mode="trace", attribution=True)
                for p in (fresh, served)]
        for name, ck in served._compiled.items():
            if ck.trace_source is not None:
                assert ck.trace_source \
                    == fresh._compiled[name].trace_source \
                    == emit_trace_source(ck.kernel, served.device)
        assert any(st.executor == "trace"
                   for st in runs[1].kernel_stats.values())
        assert (runs[0].scalars["s"].tobytes()
                == runs[1].scalars["s"].tobytes())
        assert runs[0].kernel_stats == runs[1].kernel_stats
        assert runs[0].modeled_ms == runs[1].modeled_ms
