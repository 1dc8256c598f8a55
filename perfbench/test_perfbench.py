"""Tests of the end-to-end benchmark's own logic (not of the library).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repo root.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from measure import LayerClock, percentile, window_totals
from workloads import (KERNEL_PRIMITIVES, IntegerWorkload, TrainWorkload,
                       outputs_close)

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class TestPercentile:
    @pytest.mark.parametrize("q", [0, 1, 25, 50, 75, 90, 99, 100])
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
    def test_matches_numpy(self, q, n):
        values = np.random.default_rng(n).lognormal(size=n)
        assert percentile(values, q) == pytest.approx(np.percentile(values, q),
                                                      rel=1e-12)

    def test_failed_operations_count_as_missing_the_limit(self):
        assert percentile([1.0, 2.0, float("inf")], 50) == 2.0
        assert percentile([1.0, float("inf"), float("inf")], 50) == float("inf")


class TestWindowTotals:
    def test_counts_at_end_times_match_numpy_histogram(self):
        rng = np.random.default_rng(0)
        t0 = 100.0
        ends = t0 + rng.uniform(-0.5, 10.5, size=2000)
        counts, _ = np.histogram(ends, bins=np.arange(t0, t0 + 11, 1.0))
        np.testing.assert_array_equal(
            window_totals(ends, np.ones_like(ends), t0, 10.0), counts)

    def test_prorated_matches_numpy_overlap(self):
        rng = np.random.default_rng(1)
        t0 = 5.0
        starts = t0 + np.sort(rng.uniform(-0.3, 6.0, size=40))
        ends = starts + rng.uniform(0.05, 0.8, size=40)
        weights = rng.integers(1, 33, size=40).astype(float)
        lo = t0 + np.arange(6.0)[:, None]
        overlap = np.clip(np.minimum(ends, lo + 1) - np.maximum(starts, lo),
                          0.0, None)
        expected = (overlap / (ends - starts) * weights).sum(axis=1)
        np.testing.assert_allclose(
            window_totals(ends, weights, t0, 6.0, starts=starts), expected,
            rtol=1e-12)

    def test_back_to_back_operations_give_their_rate(self):
        starts = np.arange(0.0, 10.0, 0.3)
        totals = window_totals(starts + 0.3, np.full(starts.size, 8.0), 0.0,
                               9.0, starts=starts)
        np.testing.assert_allclose(totals, 8 / 0.3)


class TestLayerClock:
    def test_nested_calls_leave_self_time_to_the_callee(self):
        clock = LayerClock()
        inner = clock.wrap("inner", lambda: sum(range(20000)))
        outer = clock.wrap("outer", lambda: inner() + inner())
        outer()
        snap = clock.snapshot()
        assert snap["inner"].calls == 2 and snap["outer"].calls == 1
        assert snap["outer"].self_s == pytest.approx(
            snap["outer"].total - snap["inner"].total)


class TestMetricNames:
    def test_every_name_is_well_formed_and_unique(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        names += [w["name"] for w in SPEC["workloads"]]
        assert all(METRIC_NAME.fullmatch(name) for name in names)
        metric_names = names[:-len(SPEC["workloads"])]
        assert len(set(metric_names)) == len(metric_names)

    def test_every_kernel_primitive_is_declared(self):
        declared = {m["name"] for m in SPEC["per_layer"]}
        for primitive in KERNEL_PRIMITIVES:
            assert f"kernels.{primitive}.ms" in declared
            assert f"kernels.{primitive}.calls" in declared


class TestOutputChecks:
    def test_served_result_check_rejects_a_perturbed_output(self):
        direct = np.random.default_rng(0).standard_normal(10)
        assert outputs_close(direct.copy(), direct)
        perturbed = direct.copy()
        perturbed[3] += 1e-6
        assert not outputs_close(perturbed, direct)

    def test_integer_check_rejects_a_one_ulp_change(self):
        workload = IntegerWorkload("int_tapwise_f4", seed=0)
        workload.setup()
        bad, _ = workload.check()
        assert bad == 0
        assert workload.accumulator_bits <= 32
        out = workload.outputs[5]
        out.flat[7] = np.nextafter(out.flat[7], np.inf)
        bad, _ = workload.check()
        assert bad == 1

    def test_train_check_rejects_a_perturbed_step1_frame(self):
        workload = TrainWorkload("train_qat_dp", seed=0)
        workload.setup()
        try:
            bad, _ = workload.check()
            assert bad == 0
            assert len(workload.step1_frames) == workload.workers
            frame = workload.step1_frames[-1]
            frame[4] += 1.0                 # first pixel after the header
            bad, _ = workload.check()
            assert bad > 0
        finally:
            workload.close()
