"""One process of the end-to-end benchmark: set up a workload, time it, check it.

``run.py`` starts this file for every set-up sample and for the measured run,
always with BLAS/OpenMP threads pinned to 1 and fresh cache directories in
the environment (numpy reads the thread settings when it loads, so they must
come from the parent).  Start the benchmark through ``run.py``.

Every workload goes through the public API only: ``repro.serve``
(``compile_model``, ``Server``), ``repro.quant.integer_winograd_conv2d`` and
``repro.train.DataParallelTrainer``.  The traced run times the calls into each
layer from here: a wrapped model handed to ``Server``, an instrumented copy
of the in-process kernel backend, and timing wrappers around the training
step's public helpers.  Nothing under ``src/`` is instrumented for it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
from bisect import bisect_right
from collections import deque
from pathlib import Path

import numpy as np

from measure import (LayerClock, LayerTime, cpu_ticks, delta, host_probe_ms,
                     percentile, steal_pct, sum_layers, window_totals)

ROOT = Path(__file__).resolve().parent.parent
KERNEL_PRIMITIVES = ("winograd_forward", "conv2d_gemm", "im2col",
                     "extract_tiles", "apply_transform_pair", "tile_contract")
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RESULT_TIMEOUT_S = 30.0
# The traced run alternates untraced and traced phases, so that host drift
# within the run lands on both sides of trace.overhead_ratio alike.
TRACE_ROUNDS = 5


def declared_metrics() -> dict:
    """The metric declarations of ``BENCHMARK.json`` (the one list of names)."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": [m["name"] for m in spec["end_to_end"]],
            "per_layer": [m["name"] for m in spec["per_layer"]]}


def ms(seconds: float) -> float:
    return seconds * 1e3


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tile_contract_macs(tiles, weight, *args, **kwargs) -> float:
    """MACs of ``(N,Cin,nH,nW,a,a) x (Cout,Cin,a,a)``, from tensor sizes."""
    n, cin, n_h, n_w, a, b = tiles.shape
    return float(n * n_h * n_w * a * b * cin * weight.shape[0])


def timed_backend(clock: LayerClock):
    """The active kernel backend with every primitive timed by ``clock``.

    The copy gets its own name, so plans lowered for it are cached apart
    from the plain backend's plans and dispatch through the timed copy.
    """
    from repro.kernels import get_backend
    plain = get_backend()

    def wrap(name, fn):
        work = tile_contract_macs if name == "tile_contract" else None
        return clock.wrap(f"kernels.{name}", fn, work=work)

    return plain, dataclasses.replace(plain.instrumented(wrap),
                                      name=plain.name + "+timed")


@dataclasses.dataclass
class Phase:
    """One timed phase: per operation start, end, latency and work done.

    ``prorate`` spreads each operation's work over its duration when the
    throughput windows are filled (see :func:`measure.window_totals`).
    """

    t0: float
    seconds: float
    prorate: bool
    starts: list = dataclasses.field(default_factory=list)
    ends: list = dataclasses.field(default_factory=list)
    latencies: list = dataclasses.field(default_factory=list)
    weights: list = dataclasses.field(default_factory=list)
    failed: int = 0

    def record(self, start, end, latency, weight, ok=True):
        self.starts.append(start)
        self.ends.append(end)
        self.latencies.append(latency if ok else float("inf"))
        self.weights.append(weight if ok else 0)
        self.failed += 0 if ok else 1

    def window_totals(self) -> list[float]:
        return window_totals(self.ends, self.weights, self.t0, self.seconds,
                             starts=self.starts if self.prorate else None)


def summarize(phases: list[Phase]) -> dict:
    """Latency p50 over every operation, throughput over every window."""
    latencies = [lat for phase in phases for lat in phase.latencies]
    windows = [total for phase in phases for total in phase.window_totals()]
    return {"latency_p50_ms": ms(percentile(latencies, 50)),
            "throughput_per_s": percentile(windows, 50)}


def back_to_back(seconds: float, operation, weight: int, clock: LayerClock,
                 records: list | None = None) -> Phase:
    """Run ``operation`` back to back for ``seconds``; one record each.

    ``operation()`` returns whether its result is valid; raising counts as
    a failure.  With ``records``, each operation's duration and the layer
    times it spent (from ``clock``) are appended there.
    """
    phase = Phase(time.perf_counter(), seconds, prorate=True)
    end = phase.t0 + seconds
    while True:
        before = clock.snapshot() if records is not None else None
        start = time.perf_counter()
        try:
            ok = operation()
        except Exception as exc:
            print(f"operation failed: {exc!r}", file=sys.stderr)
            ok = False
        stop = time.perf_counter()
        phase.record(start, stop, stop - start, weight, ok=ok)
        if records is not None:
            records.append((stop - start, delta(clock.snapshot(), before)))
        if stop >= end:
            return phase


def print_table(title: str, unit: str, rows, e2e_ms: float) -> None:
    """A per-layer table whose self column, ``unattributed`` included, is e2e."""
    print(f"\nper-layer table: {title} (ms per {unit})")
    print(f"  {'layer':34s} {'calls':>8s} {'total':>10s} {'self':>10s}")
    parts = 0.0
    for name, calls, total, self_ms in rows:
        calls_s = "-" if calls is None else f"{calls:.2f}"
        total_s = "-" if total is None else f"{total:.4f}"
        print(f"  {name:34s} {calls_s:>8s} {total_s:>10s} {self_ms:10.4f}")
        parts += self_ms
    print(f"  {'sum of self column':34s} {'':8s} {'':10s} {parts:10.4f}")
    print(f"  {'end to end (mean)':34s} {'':8s} {'':10s} {e2e_ms:10.4f}")


class Workload:
    """What every workload provides; ``setup_layers`` holds set-up timings."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.setup_layers: dict = {}

    def diagnostics(self, phases: list[Phase]) -> dict:
        return {}

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# Serving: Server over compile_model(resnet_tiny)
# --------------------------------------------------------------------------- #
class TimedModel:
    """The model handed to ``Server`` in the traced run: times every call.

    Each call records its start, end, batch size and the kernel self time
    spent inside it (only the server's one worker thread runs kernels).
    """

    def __init__(self, compiled, clock: LayerClock):
        self.compiled = compiled
        self.clock = clock
        self.calls: list[tuple] = []

    def infer(self, x):
        before = self.clock.snapshot()
        start = time.perf_counter()
        out = self.compiled.infer(x)
        end = time.perf_counter()
        self.calls.append((start, end, len(x),
                           delta(self.clock.snapshot(), before)))
        return out


class ServeWorkload(Workload):
    """``Server`` at its defaults over the compiled resnet_tiny.

    A closed loop with 32 requests outstanding, sent from the calling thread
    only, so batches stay full and kernels at batch 8 dominate.
    """

    outstanding = 32
    n_images = 256
    check_every = 16

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        self.rng = np.random.default_rng([seed, 1])
        self.samples: list[tuple[int, np.ndarray]] = []
        # (requests, submit times, model calls) per traced phase
        self.traced: list[tuple] = []
        self.server = None

    # -- set-up ------------------------------------------------------------ #
    def setup(self) -> None:
        from repro.models.resnet_cifar import resnet_tiny
        from repro.serve import Server, compile_model

        self.images = self.rng.standard_normal((self.n_images, 3, 32, 32))
        model = resnet_tiny(seed=0)
        start = time.perf_counter()
        self.compiled = compile_model(model, (8, 3, 32, 32))
        self.setup_layers["engine.compile_s"] = time.perf_counter() - start
        self.server = Server(self.compiled)
        self._warm_up(self.server)

    def _warm_up(self, server) -> None:
        """A fixed warm-up: two bursts of every batch size from 1 to 8."""
        for _ in range(2):
            for size in range(1, 9):
                handles = [server.submit(self.images[i]) for i in range(size)]
                for handle in handles:
                    handle.result(RESULT_TIMEOUT_S)

    # -- timed phases --------------------------------------------------------- #
    def run_phase(self, seconds: float, traced: bool, clock: LayerClock) -> Phase:
        """One phase on its own server; set-up's server serves the first."""
        from repro.kernels import set_backend
        from repro.serve import Server

        server, self.server = self.server, None
        plain = None
        if traced:
            if server is not None:
                server.close()
            plain, timed = timed_backend(clock)
            set_backend(timed)
            model = TimedModel(self.compiled, clock)
            server = Server(model)
            self._warm_up(server)
            model.calls.clear()
        elif server is None:
            server = Server(self.compiled)
            self._warm_up(server)
        try:
            phase, requests, submitted = self._closed_loop(server, seconds)
        finally:
            server.close()
            if traced:
                set_backend(plain)
        if traced:
            self.traced.append((requests, submitted, model.calls))
        return phase

    @staticmethod
    def _submit(server, image):
        """The request handle, or the exception ``submit`` raised (shed)."""
        try:
            return server.submit(image)
        except Exception as exc:
            return exc

    def _collect(self, phase: Phase, requests, submitted, index) -> None:
        for k, (request, sent) in enumerate(zip(requests, submitted)):
            try:
                if isinstance(request, Exception):
                    raise request
                out = request.result(RESULT_TIMEOUT_S)
            except Exception as exc:   # shed, timed out or a failed batch
                print(f"request {k} failed: {exc!r}", file=sys.stderr)
                phase.record(sent, time.perf_counter(), 0.0, 1, ok=False)
                continue
            phase.record(sent, request.completed_at,
                         request.completed_at - sent, 1)
            if k % self.check_every == 0:
                self.samples.append((index[k], out))

    def _closed_loop(self, server, seconds: float):
        requests, index = [], []
        window: deque = deque()
        phase = Phase(time.perf_counter(), seconds, prorate=False)
        end = phase.t0 + seconds

        def send():
            k = len(requests) % self.n_images
            request = self._submit(server, self.images[k])
            requests.append(request)
            index.append(k)
            if not isinstance(request, Exception):
                window.append(request)

        for _ in range(self.outstanding):
            send()
        while window:
            oldest = window.popleft()
            try:
                oldest.result(RESULT_TIMEOUT_S)
            except Exception:
                pass                    # recorded as failed by _collect
            if time.perf_counter() < end:
                send()
        submitted = [getattr(request, "submitted_at", end)
                     for request in requests]
        self._collect(phase, requests, submitted, index)
        return phase, requests, submitted

    # -- traced-run attribution ------------------------------------------------ #
    def traced_layers(self) -> dict:
        """Split every request's latency into queue wait and its batch's call."""
        requests = [r for phase in self.traced for r in phase[0]]
        submitted = [d for phase in self.traced for d in phase[1]]
        calls = [c for phase in self.traced for c in phase[2]]
        ends = [call[1] for call in calls]
        latencies, waits, model_s, unattributed = [], [], [], []
        kernel_ms = {p: [] for p in KERNEL_PRIMITIVES}
        kernel_calls = {p: [] for p in KERNEL_PRIMITIVES}
        for request, sent in zip(requests, submitted):
            done = getattr(request, "completed_at", None)
            i = bisect_right(ends, done) - 1 if done is not None else -1
            if i < 0:
                continue
            start, end, _, kernels = calls[i]
            latencies.append(done - sent)
            waits.append(done - sent - (end - start))
            model_s.append(end - start)
            kernel_self = 0.0
            for p in KERNEL_PRIMITIVES:
                kernel = kernels.get(f"kernels.{p}", LayerTime())
                kernel_ms[p].append(ms(kernel.self_s))
                kernel_calls[p].append(kernel.calls)
                kernel_self += kernel.self_s
            unattributed.append(ms(end - start - kernel_self))
        by_size: dict[int, list] = {}
        for start, end, size, _ in calls:
            by_size.setdefault(size, []).append(end - start)
        layers = {
            "serve.queue_wait_p50_ms": ms(percentile(waits, 50)),
            "serve.batch_size_mean": mean(c[2] for c in calls),
            "serve.batches": len(calls),
            "model.infer_p50_ms.b1": ms(percentile(by_size[1], 50))
            if 1 in by_size else 0.0,
            "model.infer_p50_ms.b8": ms(percentile(by_size[8], 50))
            if 8 in by_size else 0.0,
            "model.unattributed_ms": mean(unattributed),
        }
        rows = [("serve.queue_wait (batcher, server)", None,
                 ms(mean(waits)), ms(mean(waits))),
                ("model.infer (serve.model)", 1.0, ms(mean(model_s)), 0.0)]
        for p in KERNEL_PRIMITIVES:
            layers[f"kernels.{p}.ms"] = mean(kernel_ms[p])
            layers[f"kernels.{p}.calls"] = mean(kernel_calls[p])
            rows.append((f"  kernels.{p}", mean(kernel_calls[p]),
                         mean(kernel_ms[p]), mean(kernel_ms[p])))
        rows.append(("unattributed (model glue)", None, None,
                     mean(unattributed)))
        print_table(f"{self.name}, traced phases, {len(latencies)} requests",
                    "request", rows, ms(mean(latencies)))
        return layers

    # -- checks ------------------------------------------------------------------ #
    def check(self) -> tuple[int, list[str]]:
        """Sampled served outputs against a direct ``CompiledModel.infer``."""
        bad = 0
        for index, served in self.samples:
            direct = self.compiled.infer(self.images[index][None])[0]
            if not outputs_close(served, direct):
                bad += 1
        notes = [f"{len(self.samples) - bad}/{len(self.samples)} sampled "
                 "served results equal a direct CompiledModel.infer"]
        return bad, notes

    def diagnostics(self, phases: list[Phase]) -> dict:
        latencies = [lat for phase in phases for lat in phase.latencies]
        return {"serve.latency_p99_ms": ms(percentile(latencies, 99)),
                "serve.latency_samples": sum(1 for lat in latencies
                                             if lat != float("inf"))}

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


def outputs_close(served: np.ndarray, direct: np.ndarray) -> bool:
    """Served and direct float results agree up to summation order."""
    return served.shape == direct.shape and bool(
        np.allclose(served, direct, rtol=1e-9, atol=1e-9 * (
            float(np.abs(direct).max()) + 1.0)))


# --------------------------------------------------------------------------- #
# Tap-wise integer F4 over the ResNet-20 layer geometries
# --------------------------------------------------------------------------- #
def resnet20_geometries() -> list[tuple[int, int, int]]:
    """``(cin, cout, resolution)`` of ResNet-20's 19 3x3 convolutions.

    The two stride-2 stage transitions run at stride 1 at their output
    resolution, since the Winograd path covers unit stride only.
    """
    stage = [(16, 16, 32)] * 6 + [(16, 32, 16)] + [(32, 32, 16)] * 5 \
        + [(32, 64, 8)] + [(64, 64, 8)] * 5
    return [(3, 16, 32)] + stage


class IntegerWorkload(Workload):
    """``integer_winograd_conv2d``: F4, power-of-two tap-wise scales, int8.

    One operation is a pass through all 19 layers at batch 8.  No batcher,
    model glue, pool or trainer runs, so only kernels and ``repro.quant``
    can move it.
    """

    batch = 8

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        self.rng = np.random.default_rng([seed, 2])
        self.passes: list[tuple] = []       # (seconds, layer deltas) traced
        self.timed = None

    def setup(self) -> None:
        from repro.quant import calibrate_tapwise_scales, integer_winograd_conv2d
        from repro.winograd import winograd_f4

        self.conv = integer_winograd_conv2d
        self.transform = winograd_f4()
        self.layers = []
        calibrate_s = 0.0
        for cin, cout, size in resnet20_geometries():
            x = self.rng.standard_normal((self.batch, cin, size, size))
            w = self.rng.standard_normal((cout, cin, 3, 3)) * np.sqrt(2.0 / (9 * cin))
            start = time.perf_counter()
            scales = calibrate_tapwise_scales(x, w, self.transform,
                                              power_of_two=True)
            calibrate_s += time.perf_counter() - start
            self.layers.append((x, w, scales))
        self.setup_layers["quant.calibrate_s"] = calibrate_s
        self.outputs = self._pass(self.conv, None)     # lowers every layer

    def _pass(self, conv, backend):
        return [conv(x, w, self.transform, s, backend=backend)
                for x, w, s in self.layers]

    def run_phase(self, seconds: float, traced: bool, clock: LayerClock) -> Phase:
        conv, backend = self.conv, None
        if traced:
            if self.timed is None:
                self.timed = (clock.wrap("quant.integer_winograd_conv2d",
                                         self.conv),
                              timed_backend(clock)[1])
                self._pass(*self.timed)         # lowers the timed plans
            conv, backend = self.timed

        def one_pass() -> bool:
            self.outputs = self._pass(conv, backend)
            return True

        return back_to_back(seconds, one_pass, self.batch, clock,
                            self.passes if traced else None)

    def traced_layers(self) -> dict:
        n = len(self.passes)
        totals = sum_layers(layers for _, layers in self.passes)
        pass_ms = ms(mean(p[0] for p in self.passes))
        conv = totals.get("quant.integer_winograd_conv2d", LayerTime())
        layers = {"quant.self_ms": ms(conv.self_s) / n,
                  "quant.accumulator_bits_max": self.accumulator_bits}
        rows = [("quant.integer_winograd_conv2d", conv.calls / n,
                 ms(conv.total) / n, ms(conv.self_s) / n)]
        for p in KERNEL_PRIMITIVES:
            kernel = totals.get(f"kernels.{p}", LayerTime())
            layers[f"kernels.{p}.ms"] = ms(kernel.self_s) / n
            layers[f"kernels.{p}.calls"] = kernel.calls / n
            rows.append((f"  kernels.{p}", kernel.calls / n,
                         ms(kernel.total) / n, ms(kernel.self_s) / n))
        contract = totals.get("kernels.tile_contract", LayerTime())
        if contract.self_s > 0:
            layers["kernels.tile_contract.gmac_per_s"] = (
                contract.work / contract.self_s / 1e9)
        rows.append(("unattributed (pass loop)", None, None,
                     pass_ms - ms(conv.total) / n))
        print_table(f"{self.name}, traced phases, {n} passes", "pass", rows,
                    pass_ms)
        return layers

    def check(self) -> tuple[int, list[str]]:
        """Bit-exact against the reference backend on every layer."""
        bad, bits = 0, 0
        for (x, w, s), out in zip(self.layers, self.outputs):
            ref, ref_stats = self.conv(x, w, self.transform, s,
                                       return_stats=True, backend="reference")
            _, stats = self.conv(x, w, self.transform, s, return_stats=True)
            bits = max(bits, stats["accumulator_bits"])
            if stats != ref_stats or not np.array_equal(out, ref):
                bad += 1
        self.accumulator_bits = bits
        return bad, [f"{len(self.layers) - bad}/{len(self.layers)} layers "
                     "bit-exact against backend='reference'",
                     f"widest integer accumulator: {bits} bits"]


# --------------------------------------------------------------------------- #
# Data-parallel tap-wise QAT
# --------------------------------------------------------------------------- #
class TrainWorkload(Workload):
    """``DataParallelTrainer``, 2 shm workers, TinyConvNet under tap-wise F4 QAT.

    The only workload that runs ``repro.train``, the pool transport and
    supervision, and the autograd kernels.  One operation is one optimizer
    step at batch 32.
    """

    batch = 32

    def __init__(self, name: str, seed: int):
        super().__init__(name, seed)
        self.workers = min(2, os.cpu_count() or 1)
        self.steps: list[tuple] = []        # (seconds, layer deltas) traced
        self.step1_frames: list[np.ndarray] = []

    def model(self):
        from repro.models.small import TinyConvNet
        from repro.quant.qat import QatConfig, convert_model
        return convert_model(TinyConvNet(seed=self.seed), QatConfig())

    def build(self, clock: LayerClock):
        """The trainer, with its pool's construction timed by ``clock``."""
        from repro.datasets.synthetic import make_shapes_dataset
        from repro.nn.data import DataLoader
        from repro.nn.optim import SGD
        from repro.serve import pool as pool_mod
        from repro.train import DataParallelTrainer
        from repro.utils import seed_everything

        seed_everything(self.seed)
        data = make_shapes_dataset(num_samples=512, seed=self.seed)
        model = self.model()
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        loader = DataLoader(data, batch_size=self.batch, shuffle=True,
                            seed=self.seed)
        init = pool_mod.ShmWorkerPool.__init__
        pool_mod.ShmWorkerPool.__init__ = clock.wrap("pool.spawn", init)
        try:
            return DataParallelTrainer(model, optimizer, loader,
                                       num_workers=self.workers)
        finally:
            pool_mod.ShmWorkerPool.__init__ = init

    @staticmethod
    def step(trainer) -> float:
        trainer.fit(epochs=trainer.epoch + 1, max_batches=1)
        return trainer.history[-1]

    def setup(self) -> None:
        """Build the trainer and run step 1, keeping the frames it sends."""
        import repro.train.trainer as trainer_mod

        clock = LayerClock()
        self.trainer = self.build(clock)
        if self.trainer.degraded:
            raise RuntimeError("worker pool unavailable")
        self.setup_layers["pool.spawn_s"] = clock.total.get("pool.spawn", 0.0)
        encode = trainer_mod.encode_frame

        def capture(*args):
            self.step1_frames.append(encode(*args))
            return self.step1_frames[-1]

        trainer_mod.encode_frame = capture
        try:
            self.step(self.trainer)
        finally:
            trainer_mod.encode_frame = encode

    def run_phase(self, seconds: float, traced: bool, clock: LayerClock) -> Phase:
        import repro.train.trainer as trainer_mod
        from repro.serve.pool import ShmWorkerPool

        optimizer = self.trainer.optimizer
        patched = []
        if traced:
            for owner, attr, layer in (
                    (trainer_mod, "flatten_state", "train.encode"),
                    (trainer_mod, "encode_frame", "train.encode"),
                    (ShmWorkerPool, "map", "train.dispatch_wait"),
                    (trainer_mod, "accumulate_replies", "train.apply"),
                    (trainer_mod, "apply_step_results", "train.apply"),
                    (optimizer, "step", "train.apply")):
                original = getattr(owner, attr)
                patched.append((owner, attr, original))
                setattr(owner, attr, clock.wrap(layer, original))
        try:
            return back_to_back(
                seconds, lambda: bool(np.isfinite(self.step(self.trainer))),
                self.batch, clock, self.steps if traced else None)
        finally:
            for owner, attr, original in reversed(patched):
                if owner is optimizer:
                    del optimizer.step      # back to the class's method
                else:
                    setattr(owner, attr, original)

    def traced_layers(self) -> dict:
        n = len(self.steps)
        parts = ("train.encode", "train.dispatch_wait", "train.apply")
        totals = sum_layers(layers for _, layers in self.steps)
        totals = {p: totals.get(p, LayerTime()) for p in parts}
        step_ms = ms(mean(s[0] for s in self.steps))
        layers = {f"{p}_ms": ms(totals[p].self_s) / n for p in parts}
        rows = [(p, totals[p].calls / n, ms(totals[p].total) / n,
                 ms(totals[p].self_s) / n) for p in parts]
        rows.append(("unattributed (trainer loop)", None, None,
                     step_ms - sum(layers.values())))
        print_table(f"{self.name}, traced phases, {n} steps", "step", rows,
                    step_ms)
        pool = self.trainer.pool_stats()
        return {**layers, "pool.deaths": pool.get("deaths", 0),
                "pool.retried_jobs": pool.get("retried_jobs", 0)}

    def check(self) -> tuple[int, list[str]]:
        """Finite losses, step 1 recomputed in this process, a clean pool.

        The frames the pool received for step 1 run again here, each through
        a freshly compiled ``GradStepJob`` as a freshly started worker runs
        it, and the combined loss must agree to float tolerance.  Later
        steps cannot be checked that way: the QAT observers' running maxima
        live outside the parameters and buffers a frame carries, so each
        worker keeps its own calibration state across steps.
        """
        from repro.train import GradStepJob, accumulate_replies

        history = self.trainer.history
        pool = self.trainer.pool_stats()
        job = GradStepJob(self.model(), loss=self.trainer.loss)
        replies = [job.compile()(frame) for frame in self.step1_frames]
        step1 = accumulate_replies(replies, job)[0]

        finite = bool(np.all(np.isfinite(history)))
        same = bool(np.isclose(history[0], step1, rtol=1e-9, atol=0.0))
        faults = pool.get("deaths", 0) + pool.get("retried_jobs", 0)
        bad = (0 if finite and same else len(history)) + faults
        notes = [f"{len(history)} losses finite: {finite}",
                 f"step 1 equals its {len(replies)} shard frames recomputed "
                 f"in-process: {same}",
                 f"pool deaths {pool.get('deaths', 0)}, "
                 f"retried jobs {pool.get('retried_jobs', 0)}"]
        return bad, notes

    def close(self) -> None:
        self.trainer.close()


WORKLOADS = {
    "serve_saturated": ServeWorkload,
    "int_tapwise_f4": IntegerWorkload,
    "train_qat_dp": TrainWorkload,
}


def environment() -> dict:
    from repro.engine import autotune
    from repro.kernels import get_backend
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "pinned": {var: os.environ.get(var) for var in PINNED_ENV},
        "REPRO_OBS": os.environ.get("REPRO_OBS"),
        "REPRO_PLAN_CACHE": os.path.relpath(os.environ["REPRO_PLAN_CACHE"], ROOT),
        "REPRO_CODEGEN_CACHE": os.path.relpath(
            os.environ["REPRO_CODEGEN_CACHE"], ROOT),
        "backend": get_backend().name,
        "autotune_mode": autotune.get_mode(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"), default="run")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() at which run.py started us")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    for var in PINNED_ENV:
        if os.environ.get(var) != "1":
            raise SystemExit(f"{var} is not pinned to 1; start run.py")
    workload = WORKLOADS[args.workload](args.workload, args.seed)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.role == "setup":
        workload.close()
        Path(args.out).write_text(json.dumps(result))
        return 0

    from repro.engine import plan_cache_stats
    plan_setup = plan_cache_stats()
    declared = declared_metrics()
    clock = LayerClock()
    probe_start = host_probe_ms()
    ticks_start = cpu_ticks()
    usage_start = resource.getrusage(resource.RUSAGE_SELF)
    rounds = max(1, min(TRACE_ROUNDS, int(args.seconds // 2))) \
        if args.trace else 1
    seconds = (max(args.seconds / (2 * rounds), 1.0) if args.trace
               else args.seconds)
    untraced, traced = [], []
    try:
        for i in range(rounds):
            untraced.append(workload.run_phase(seconds, False, clock))
            if i == 0:
                plan_timed = plan_cache_stats()
                usage_timed = resource.getrusage(resource.RUSAGE_SELF)
            if args.trace:
                traced.append(workload.run_phase(seconds, True, clock))
        ticks_end = cpu_ticks()
        probe_end = host_probe_ms()
        bad, notes = workload.check()
    finally:
        workload.close()

    phases = untraced + traced
    attempted = sum(len(p.latencies) for p in phases)
    end_to_end = {"setup_s": setup_s, **summarize(untraced)}
    timed_ops = len(untraced[0].latencies)
    result.update({
        "attempted": attempted,
        "failed": min(sum(p.failed for p in phases) + bad, attempted),
        "correct": bad == 0,
        "end_to_end": {k: end_to_end[k] for k in declared["end_to_end"]},
        "checks": notes,
        "diagnostics": {"host.probe_ms": {"start": probe_start,
                                          "end": probe_end},
                        "host.steal_pct": steal_pct(ticks_start, ticks_end),
                        # This process only: pool workers are not counted.
                        "process.minflt_per_op": (
                            usage_timed.ru_minflt - usage_start.ru_minflt)
                        / timed_ops,
                        "process.sys_ms_per_op": ms(
                            usage_timed.ru_stime - usage_start.ru_stime)
                        / timed_ops,
                        **workload.diagnostics(untraced),
                        "engine.plan_cache.setup_hits_misses": [
                            plan_setup.hits, plan_setup.misses],
                        "engine.plan_cache.timed_hits_misses": [
                            plan_timed.hits - plan_setup.hits,
                            plan_timed.misses - plan_setup.misses]},
        "environment": environment(),
    })
    if args.trace:
        measured = {**workload.setup_layers, **workload.traced_layers(),
                    "engine.plan_cache.hits": plan_timed.hits,
                    "engine.plan_cache.misses": plan_timed.misses,
                    "trace.overhead_ratio": (
                        summarize(traced)["latency_p50_ms"]
                        / end_to_end["latency_p50_ms"])}
        layers = dict.fromkeys(declared["per_layer"], 0.0)
        unknown = set(measured) - set(layers)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        layers.update(measured)
        result["per_layer"] = layers
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
