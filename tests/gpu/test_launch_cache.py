"""Launch compile-cache tests (keyed on kernel identity × device)."""

import numpy as np

from repro.dtypes import DType
from repro.gpu import GlobalMemory, K20C, launch
from repro.gpu.kernelir import Bin, GStore, Kernel, Special
from repro.gpu.launch import (
    _COMPILE_CACHE_DEFAULT_MAX, compile_cache_clear, compile_cache_info,
)


def ids_kernel(name="ids"):
    return Kernel(name, (
        GStore("out", Bin("+", Bin("*", Special("bx"), Special("ntid")),
                          Special("tid")),
               Special("bx")),
    ), buffers=("out",))


def _gmem(device=K20C):
    g = GlobalMemory(device)
    g.alloc("out", 64, DType.INT)
    return g


class TestCompileCache:
    def setup_method(self):
        compile_cache_clear()

    def test_relaunch_hits_cache(self):
        # two *separately constructed* but structurally equal kernels
        # share one compilation: the key is kernel identity, not object id
        launch(ids_kernel(), _gmem(), grid_dim=2, block_dim=(16, 2))
        launch(ids_kernel(), _gmem(), grid_dim=2, block_dim=(16, 2))
        info = compile_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        assert info["size"] == 1

    def test_cached_launch_same_results(self):
        g1, g2 = _gmem(), _gmem()
        r1 = launch(ids_kernel(), g1, grid_dim=2, block_dim=(16, 2))
        r2 = launch(ids_kernel(), g2, grid_dim=2, block_dim=(16, 2))
        np.testing.assert_array_equal(g1["out"].data, g2["out"].data)
        assert r1.stats.summary() == r2.stats.summary()
        assert compile_cache_info()["hits"] == 1

    def test_different_device_is_a_different_entry(self):
        slow = K20C.with_overrides(kernel_launch_us=100.0)
        launch(ids_kernel(), _gmem(), grid_dim=1, block_dim=(32, 1))
        launch(ids_kernel(), _gmem(slow), grid_dim=1, block_dim=(32, 1),
               device=slow)
        info = compile_cache_info()
        assert info["misses"] == 2
        assert info["hits"] == 0
        assert info["size"] == 2

    def test_eviction_keeps_cache_bounded(self):
        for i in range(_COMPILE_CACHE_DEFAULT_MAX + 8):
            launch(ids_kernel(f"k{i}"), _gmem(), grid_dim=1,
                   block_dim=(32, 1))
        info = compile_cache_info()
        assert info["size"] == _COMPILE_CACHE_DEFAULT_MAX
        assert info["misses"] == _COMPILE_CACHE_DEFAULT_MAX + 8
        assert info["evictions"] == 8

    def test_env_cap_bounds_cache(self, monkeypatch):
        # REPRO_LAUNCH_CACHE_MAX lets the service layer bound the memory
        # spent on compiled closures without reloading the module
        monkeypatch.setenv("REPRO_LAUNCH_CACHE_MAX", "4")
        for i in range(10):
            launch(ids_kernel(f"k{i}"), _gmem(), grid_dim=1,
                   block_dim=(32, 1))
        info = compile_cache_info()
        assert info["maxsize"] == 4
        assert info["size"] == 4
        assert info["evictions"] == 6
        # the LRU keeps the most recent entries: relaunching k9 hits
        launch(ids_kernel("k9"), _gmem(), grid_dim=1, block_dim=(32, 1))
        assert compile_cache_info()["hits"] == 1

    def test_env_cap_garbage_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_LAUNCH_CACHE_MAX", "not-a-number")
        assert compile_cache_info()["maxsize"] == _COMPILE_CACHE_DEFAULT_MAX
        monkeypatch.setenv("REPRO_LAUNCH_CACHE_MAX", "0")
        assert compile_cache_info()["maxsize"] == 1  # clamps to >= 1

    def test_options_key_separates_entries(self):
        # same kernel compiled under different pipeline/option fingerprints
        # must not share a cache slot — a post-optimization kernel and its
        # minimal twin can otherwise alias
        launch(ids_kernel(), _gmem(), grid_dim=1, block_dim=(32, 1),
               options_key=("minimal", ()))
        launch(ids_kernel(), _gmem(), grid_dim=1, block_dim=(32, 1),
               options_key=("optimized", ("fuse-finish",)))
        info = compile_cache_info()
        assert info["misses"] == 2
        assert info["size"] == 2

    def test_sid_fingerprint_separates_structural_twins(self):
        # Stmt.sid is compare=False, so two structurally equal kernels
        # with different statement ids would collide without the sid
        # fingerprint in the key — corrupting per-statement attribution
        import dataclasses

        from repro.gpu.kernelir import stamp_sids

        k1 = stamp_sids(ids_kernel())
        k2 = ids_kernel()
        k2 = dataclasses.replace(k2, body=tuple(
            dataclasses.replace(s, sid=100 + i)
            for i, s in enumerate(k2.body)))
        assert k1 == k2  # structural equality ignores sids...
        launch(k1, _gmem(), grid_dim=1, block_dim=(32, 1))
        launch(k2, _gmem(), grid_dim=1, block_dim=(32, 1))
        info = compile_cache_info()  # ...but the cache must not
        assert info["misses"] == 2
        assert info["size"] == 2

    def test_mode_switch_never_serves_a_stale_closure(self):
        # executor mode and block_batch are launch-time arguments, NOT
        # part of the cache key: the per-mode artifacts live in separate
        # fields of the one cached CompiledKernel.  Switching modes on
        # the same kernel+device must share that entry (one miss) and
        # every mode must produce the reference answer — a closure that
        # baked in a mode or batch shape would serve stale results here
        from repro.gpu.kernelir import stamp_sids

        outs = {}
        for mode, bb in (("reference", None), ("batched", None),
                         ("trace", None), ("batched", 3), ("trace", 2),
                         ("reference", None)):
            g = _gmem()
            launch(stamp_sids(ids_kernel()), g, grid_dim=2,
                   block_dim=(16, 2), mode=mode, block_batch=bb)
            outs[(mode, bb)] = g["out"].data.copy()
        info = compile_cache_info()
        assert info["misses"] == 1  # one shared entry across all modes
        assert info["size"] == 1
        ref = outs[("reference", None)]
        for key, out in outs.items():
            np.testing.assert_array_equal(out, ref, err_msg=str(key))

    def test_fusion_fingerprint_separates_fused_twins(self):
        # kernelopt fusion decisions are part of the key: a kernel
        # rewritten by fuse-finish/cascade-fusion carries a fusion
        # marker in its note, and must never share a closure with its
        # unfused twin even under the same options_key
        import dataclasses

        from repro.gpu.launch import _fusion_fingerprint

        plain = ids_kernel()
        fused = dataclasses.replace(
            ids_kernel(), note="cascade-fused finish of s (from stage 0)")
        assert _fusion_fingerprint(plain) == ()
        assert _fusion_fingerprint(fused) == ("cascade-fused finish",)
        launch(plain, _gmem(), grid_dim=1, block_dim=(32, 1),
               options_key=("optimized",))
        launch(fused, _gmem(), grid_dim=1, block_dim=(32, 1),
               options_key=("optimized",))
        info = compile_cache_info()
        assert info["misses"] == 2
        assert info["size"] == 2

    def test_cascade_toggle_never_serves_a_stale_closure(self):
        # mirror of test_mode_switch_never_serves_a_stale_closure for
        # the cascade-fusion toggle: alternating fused / pinned-unfused
        # compiles of the same source must keep distinct compiled
        # closures and keep producing one set of result bits
        from repro import acc
        from repro.apps.softmax import SOFTMAX_SRC
        from repro.gpu.launch import _fusion_fingerprint

        # explicit pipeline pin: the toggle must fuse even when the
        # suite runs under REPRO_PASSES=minimal
        geom = dict(num_gangs=4, num_workers=2, vector_length=32,
                    pipeline="optimized")
        x = (np.arange(128) % 13).astype(np.float32)
        kw = dict(y=np.zeros_like(x), m=np.float32(-np.inf),
                  s=np.float32(0.0))
        bits = {}
        for tag, opts in (("fused", {}),
                          ("never", {"cascade_fusion": "never"}),
                          ("fused", {}),
                          ("never", {"cascade_fusion": "never"})):
            prog = acc.compile(SOFTMAX_SRC, **geom, **opts)
            bits.setdefault(tag, set()).add(
                prog.run(x=x, **kw).outputs["y"].tobytes())
            marks = {_fusion_fingerprint(k)
                     for k in prog.lowered.kernels}
            if tag == "fused":
                assert ("cascade-fused finish",) in marks
            else:
                assert not any("cascade-fused finish" in m
                               for mk in marks for m in mk)
        assert len(bits["fused"]) == 1
        assert bits["fused"] == bits["never"]  # bit-identical either way

    def test_clear_resets_counters(self):
        launch(ids_kernel(), _gmem(), grid_dim=1, block_dim=(32, 1))
        compile_cache_clear()
        assert compile_cache_info() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0,
            "maxsize": _COMPILE_CACHE_DEFAULT_MAX,
        }
