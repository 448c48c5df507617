"""Golden-dump coverage around the optimization passes: the pass
manager's captured before/after listings (rendered through
:mod:`repro.ir.pprint` and :func:`repro.gpu.kernelir.dump`), sid-mapped
dumps of post-optimization kernels, and the annotated listings the
attribution layer renders — which must show the *post*-optimization IR.
"""

import numpy as np

from repro import acc
from repro.gpu.kernelir import dump_with_sids, walk_stmts

SRC = """
float a[n];
float total = 0.0;
#pragma acc parallel copyin(a)
#pragma acc loop gang worker vector reduction(+:total)
for (i = 0; i < n; i++)
    total += a[i];
"""

GEOM = dict(num_gangs=8, num_workers=2, vector_length=32)


def _records(pipeline):
    prog = acc.compile(SRC, **GEOM, pipeline=pipeline, capture_ir=True)
    return prog, {r.name: r for r in prog.pass_records}


class TestCapturedListings:
    def test_frontend_listings_use_pprint(self):
        _, recs = _records("optimized")
        region = recs["build-ir"].after["region"]
        assert "region kind=parallel" in region
        assert "reduction(+:total)" in region
        plan = recs["analyze"].after["plan"]
        assert "reduction plan" in plan
        assert "span gang & worker & vector" in plan

    def test_fuse_finish_removes_a_listing(self):
        _, recs = _records("optimized")
        rec = recs["fuse-finish"]
        assert "acc_reduction_finish_total" in rec.before
        assert "acc_reduction_finish_total" not in rec.after
        # the epilogue lands in the main kernel's dump
        assert "_sfin_" not in rec.before["acc_region_main"]
        assert "_sfin_" in rec.after["acc_region_main"]

    def test_eliminate_barriers_golden_delta(self):
        geom = dict(num_gangs=8, num_workers=1, vector_length=32)
        prog = acc.compile(SRC, **geom, pipeline="optimized",
                           capture_ir=True)
        rec = {r.name: r for r in prog.pass_records}["eliminate-barriers"]
        before = rec.before["acc_region_main"]
        after = rec.after["acc_region_main"]
        assert before.count("__syncthreads") > 0
        assert after.count("__syncthreads") == 0
        # only barriers were removed: every other line survives verbatim
        kept = [ln for ln in before.splitlines()
                if "__syncthreads" not in ln]
        assert kept == after.splitlines()

    def test_minimal_pipeline_listings_are_stable_after_lower(self):
        _, recs = _records("minimal")
        assert recs["lower"].changed
        assert not recs["stamp-sids"].changed  # sids don't alter the dump


class TestDumpWithSids:
    def _main(self, pipeline):
        prog = acc.compile(SRC, **GEOM, pipeline=pipeline)
        return prog.lowered.main_kernel

    def test_sids_dense_and_mapped_post_optimization(self):
        for pipeline in ("minimal", "optimized"):
            kernel = self._main(pipeline)
            sids = [s.sid for s, _ in walk_stmts(kernel.body)]
            assert sids == list(range(len(sids)))
            lines, sid_lines = dump_with_sids(kernel)
            assert set(sid_lines) == set(sids)
            assert all(0 <= ix < len(lines) for ix in sid_lines.values())

    def test_fused_kernel_dump_is_the_longer_one(self):
        lines_min, _ = dump_with_sids(self._main("minimal"))
        lines_opt, _ = dump_with_sids(self._main("optimized"))
        assert len(lines_opt) > len(lines_min)
        assert any("_sfin_" in ln for ln in lines_opt)
        assert not any("_sfin_" in ln for ln in lines_min)


class TestAnnotateShowsPostOptimizationIR:
    def test_attributed_listing_contains_fused_epilogue(self):
        from repro.obs import Profiler, annotate_record

        with Profiler() as prof:
            prog = acc.compile(SRC, **GEOM, pipeline="optimized")
            assert len(prog.lowered.kernels) == 1  # finish kernel fused away
            prog.run(a=np.ones(2048, dtype=np.float32), attribution=True)
        rec = prof.kernels_named("acc_region_main")[0]
        text = annotate_record(rec)
        # the annotated listing renders the post-optimization kernel:
        # the fused epilogue's staging array appears, and every row of
        # the attribution table points at a real line of that listing
        assert "_sfin_" in text
        st = rec.stats
        assert st.attribution is not None and st.attribution.rows
        lines, sid_lines = dump_with_sids(rec.kernel)
        assert all(sid in sid_lines for sid in st.attribution.rows)
