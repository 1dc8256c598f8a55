"""Tuned kernel backend: per-shape autotuned variants of the fast primitives.

The ``fast`` backend commits to one implementation strategy per primitive.
This backend keeps a *candidate space* per primitive and asks
:mod:`repro.engine.autotune`, keyed by the call shape (the same geometry a
:class:`~repro.engine.LayerPlan` freezes), which variant to run:

* **fused Winograd forward** — the cache-blocked per-image loop at several
  working-set sizes (48-1152 KB), plus a whole-batch tile ordering
  (``"batch"``) that gathers every image's tiles through one strided view
  and feeds a single fat GEMM chain — fewer, larger GEMMs, which wins when
  the per-image blocks are too small to amortise dispatch.
* **fused Winograd autograd** — the same working-set sweep for the
  forward+backward training kernel.
* **tap contraction** — the alpha²-batched tap-major GEMM vs. the single
  flattened einsum contraction.
* **pair transforms** — the flattened single-GEMM Kronecker formulation vs.
  two skinny broadcast GEMM stages (a³ vs. a⁴ MACs, but one big GEMM vs.
  many small ones — which wins depends on tile count and alpha).
* **im2col GEMM** — the one-shot batched GEMM vs. column-chunked GEMMs that
  keep the hot panel cache-resident.

The three hottest spaces — fused forward, fused autograd, im2col GEMM —
additionally offer a ``{"kernel": "codegen"}`` candidate when
:mod:`repro.kernels.codegen` can deliver a shape-specialized native kernel
for the call geometry.  The kernel is built (or loaded from the on-disk
object store) *before* the benchmark rounds, so :func:`decide` times the
kernel, never the compile; the winner persists through the plan cache like
any other choice.  Adopting a persisted codegen choice on a host where
codegen has since become unavailable falls back to the default numpy
variant at run time (and the autotune disk loader skips such records as
clean misses before they are ever adopted).

Every default choice executes *exactly* the fast backend's code, so with an
empty store (``REPRO_AUTOTUNE=off``, or ``cached`` mode before any tuning)
this backend is behaviourally identical to ``fast``.  Integer inputs (the
bit-exact accelerator simulation path) always take the fast backend's exact
code paths untouched — integer results stay bit-identical across backends
by construction.  Primitives without a candidate space (adjoints, tiling,
col2im) are the fast implementations verbatim.

This module lives in :mod:`repro.kernels`, which must not import the engine
at module scope (the engine imports us); the autotune store is reached
lazily at call time, after both packages exist.
"""

from __future__ import annotations

import numpy as np

from . import codegen, fast
from .einsum_cache import cached_einsum
from .registry import KernelBackend

__all__ = ["BACKEND", "plan_primitive_keys"]

_is_float = fast._is_float

_AUTOTUNE = None


def _autotune():
    global _AUTOTUNE
    if _AUTOTUNE is None:
        from ..engine import autotune
        _AUTOTUNE = autotune
    return _AUTOTUNE


_CODEGEN_CHOICE = {"kernel": "codegen"}


def _offering_codegen(key: str) -> bool:
    """Should this call try to *add* the codegen candidate to its space?

    Only while a full-mode tuning pass is actually going to benchmark this
    key: in ``cached``/``off`` mode (or once a winner is bound) building a
    kernel nobody asked for would charge a multi-second compile to a serving
    call.  Adopting an already-persisted codegen winner goes through the
    ``_run_*`` dispatchers instead, which load straight from the object
    store.
    """
    at = _autotune()
    if at.get_mode() != "full":
        return False
    return at.lookup(key) is None


# --------------------------------------------------------------------------- #
# Fused Winograd forward
# --------------------------------------------------------------------------- #
_FWD_DEFAULT = {"kernel": "blocked", "block_kb": fast._BLOCK_BYTES // 1024}
# The block sweep reaches well past the fast default because the default's
# row granularity degenerates for wide layers: one row of F4 tiles at
# Cin=64 is already ~144KB, so the untuned kernel runs a Python-level block
# iteration per single tile row — exactly where 2-4x larger working sets
# win despite the worse cache residency.
_FWD_CANDIDATES = (
    {"kernel": "batch"},
    {"kernel": "blocked", "block_kb": 48},
    {"kernel": "blocked", "block_kb": 96},
    {"kernel": "blocked", "block_kb": 144},
    {"kernel": "blocked", "block_kb": 288},
    {"kernel": "blocked", "block_kb": 576},
    {"kernel": "blocked", "block_kb": 1152},
)


def _forward_key(x_shape: tuple, cout: int, tname: str, dtype) -> str:
    return (f"winograd_forward|x={tuple(x_shape)}|cout={int(cout)}"
            f"|t={tname}|dt={dtype}")


def _winograd_forward_batch(x_padded: np.ndarray, weight: np.ndarray,
                            transform, out_h: int, out_w: int,
                            w_r: np.ndarray | None = None,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Whole-batch tile ordering: all N·n_h·n_w tiles through one GEMM chain.

    Same algebra as :func:`repro.kernels.fast.winograd_forward`, but the
    tap-major gather spans the batch axis too, so the input transform, the
    alpha² channel GEMMs and the output transform each run once over every
    tile in the batch instead of once per ~:data:`fast._BLOCK_BYTES` block.
    Trades cache residency for GEMM size — the autotuner decides per shape.
    """
    m, r, a = transform.m, transform.r, transform.alpha
    n, cin, hp, wp = x_padded.shape
    cout = weight.shape[0]
    n_h = (hp - (r - 1)) // m
    n_w = (wp - (r - 1)) // m
    bt, at = transform.BT, transform.AT

    if w_r is None:
        w_r = fast.transform_weights_tap_major(weight, transform)

    out_dtype = np.result_type(x_padded.dtype, w_r.dtype)
    full_shape = (n, cout, n_h * m, n_w * m)
    if out is None:
        out = np.empty(full_shape, dtype=out_dtype)
    elif out.shape != full_shape or out.dtype != out_dtype:
        raise ValueError(f"out workspace must be {full_shape} of {out_dtype}, "
                         f"got {out.shape} of {out.dtype}")

    s0, s1, s2, s3 = x_padded.strides
    # Tap-major overlapping-tile view of the whole batch: (a, a, Cin, N, nH, nW).
    view = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(a, a, cin, n, n_h, n_w),
        strides=(s2, s3, s1, s0, s2 * m, s3 * m),
        writeable=False,
    )
    tiles = n * n_h * n_w
    f3 = np.ascontiguousarray(view).reshape(a, a, cin * tiles)
    g1 = np.matmul(bt, f3)                        # 1-D BT over 2nd tap axis
    x_r = (bt @ g1.reshape(a, -1)).reshape(a * a, cin, tiles)

    acc = np.matmul(w_r, x_r)                     # (a², Cout, tiles)

    t1 = np.matmul(at, acc.reshape(a, a, cout * tiles))
    ot = (at @ t1.reshape(a, -1)).reshape(m, m, cout, n, n_h, n_w)
    out_view = out.reshape(n, cout, n_h, m, n_w, m)
    np.copyto(out_view, ot.transpose(3, 2, 4, 0, 5, 1))
    if out.shape[2] == out_h and out.shape[3] == out_w:
        return out
    return np.ascontiguousarray(out[:, :, :out_h, :out_w])


def _run_forward(choice: dict, x_padded, weight, transform, out_h, out_w,
                 w_r, out):
    if choice.get("kernel") == "codegen":
        res = codegen.try_forward(x_padded, weight, transform,
                                  out_h, out_w, w_r=w_r, out=out)
        if res is not None:
            return res
        choice = _FWD_DEFAULT        # codegen no longer available: fall back
    if choice.get("kernel") == "batch":
        return _winograd_forward_batch(x_padded, weight, transform,
                                       out_h, out_w, w_r=w_r, out=out)
    block_kb = int(choice.get("block_kb", fast._BLOCK_BYTES // 1024))
    return fast.winograd_forward(x_padded, weight, transform, out_h, out_w,
                                 w_r=w_r, out=out, block_bytes=block_kb * 1024)


def winograd_forward(x_padded: np.ndarray, weight: np.ndarray, transform,
                     out_h: int, out_w: int,
                     w_r: np.ndarray | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    if not _is_float(x_padded, weight if w_r is None else w_r):
        return fast.winograd_forward(x_padded, weight, transform,
                                     out_h, out_w, w_r=w_r, out=out)
    if w_r is None:
        # Hoist so benchmarking rounds don't re-transform the weights.
        w_r = fast.transform_weights_tap_major(weight, transform)
    key = _forward_key(x_padded.shape, weight.shape[0], transform.name,
                       x_padded.dtype)
    candidates = _FWD_CANDIDATES
    if _offering_codegen(key) and codegen.prepare_forward(
            x_padded, w_r, transform, out_h, out_w):
        candidates = candidates + (_CODEGEN_CHOICE,)
    choice = _autotune().decide(
        key, candidates,
        lambda c: _run_forward(c, x_padded, weight, transform, out_h, out_w,
                               w_r, out),
        _FWD_DEFAULT)
    return _run_forward(choice, x_padded, weight, transform, out_h, out_w,
                        w_r, out)


# --------------------------------------------------------------------------- #
# Fused Winograd autograd
# --------------------------------------------------------------------------- #
_AG_DEFAULT = {"block_kb": fast._BLOCK_BYTES // 1024}
_AG_CANDIDATES = (
    {"block_kb": 96},
    {"block_kb": 144},
    {"block_kb": 288},
    {"block_kb": 576},
)


def _autograd_key(x_shape: tuple, w_shape: tuple, tname: str, dtype) -> str:
    return (f"winograd_autograd|x={tuple(x_shape)}|w={tuple(w_shape)}"
            f"|t={tname}|dt={dtype}")


def winograd_autograd(x_padded: np.ndarray, weight: np.ndarray, transform,
                      out_h: int, out_w: int):
    if not _is_float(x_padded, weight):
        return fast.winograd_autograd(x_padded, weight, transform,
                                      out_h, out_w)
    key = _autograd_key(x_padded.shape, weight.shape, transform.name,
                        x_padded.dtype)
    candidates = _AG_CANDIDATES
    if _offering_codegen(key) and codegen.prepare_autograd(
            x_padded, weight, transform, out_h, out_w):
        candidates = candidates + (_CODEGEN_CHOICE,)

    def _instantiate(choice: dict):
        if choice.get("kernel") == "codegen":
            res = codegen.try_autograd(x_padded, weight, transform,
                                       out_h, out_w)
            if res is not None:
                return res           # codegen no longer available: fall back
            choice = _AG_DEFAULT
        return fast.winograd_autograd(
            x_padded, weight, transform, out_h, out_w,
            block_bytes=int(choice["block_kb"]) * 1024)

    def run(choice: dict) -> None:
        # Benchmark the full training step: forward plus a backward pass on
        # a same-shape gradient (the choice shapes both directions).
        fwd, back = _instantiate(choice)
        back(np.zeros(fwd.shape, dtype=fwd.dtype))

    choice = _autotune().decide(key, candidates, run, _AG_DEFAULT)
    return _instantiate(choice)


# --------------------------------------------------------------------------- #
# Tap-wise contraction
# --------------------------------------------------------------------------- #
_TC_DEFAULT = {"strategy": "batched"}
_TC_CANDIDATES = (
    {"strategy": "batched"},
    {"strategy": "einsum"},
)


def tile_contract(tiles_w: np.ndarray, weight_w: np.ndarray) -> np.ndarray:
    if not _is_float(tiles_w, weight_w):
        return fast.tile_contract(tiles_w, weight_w)
    key = (f"tile_contract|x={tiles_w.shape}|w={weight_w.shape}"
           f"|dt={tiles_w.dtype}")
    choice = _autotune().decide(
        key, _TC_CANDIDATES,
        lambda c: (cached_einsum("ncijab,ocab->noijab", tiles_w, weight_w)
                   if c["strategy"] == "einsum"
                   else fast.tile_contract(tiles_w, weight_w)),
        _TC_DEFAULT)
    if choice["strategy"] == "einsum":
        return cached_einsum("ncijab,ocab->noijab", tiles_w, weight_w)
    return fast.tile_contract(tiles_w, weight_w)


# --------------------------------------------------------------------------- #
# Pair transforms
# --------------------------------------------------------------------------- #
_PAIR_DEFAULT = {"strategy": "kron"}
_PAIR_CANDIDATES = (
    {"strategy": "kron"},
    {"strategy": "separable"},
)


def _pair_key(tiles: np.ndarray, left: np.ndarray, right: np.ndarray) -> str:
    # The transform matrices are tiny constants; their shapes (plus the
    # transform-specific tile geometry) identify them for tuning purposes —
    # two transforms with identical shapes have identical GEMM cost.
    return (f"pair|t={tiles.shape}|l={left.shape}|r={right.shape}"
            f"|dt={tiles.dtype}")


def _pair_separable(tiles: np.ndarray, left: np.ndarray,
                    right: np.ndarray) -> np.ndarray:
    # Two skinny broadcast GEMM stages (a³ MACs per tile per stage).
    return np.matmul(left, np.matmul(tiles, right))


def apply_transform_pair(tiles: np.ndarray, left: np.ndarray,
                         right: np.ndarray) -> np.ndarray:
    if not _is_float(tiles, left, right):
        return fast.apply_transform_pair(tiles, left, right)
    key = _pair_key(tiles, left, right)
    choice = _autotune().decide(
        key, _PAIR_CANDIDATES,
        lambda c: (_pair_separable(tiles, left, right)
                   if c["strategy"] == "separable"
                   else fast.apply_transform_pair(tiles, left, right)),
        _PAIR_DEFAULT)
    if choice["strategy"] == "separable":
        return _pair_separable(tiles, left, right)
    return fast.apply_transform_pair(tiles, left, right)


# --------------------------------------------------------------------------- #
# im2col GEMM
# --------------------------------------------------------------------------- #
_GEMM_DEFAULT = {"col_chunk": 0}        # 0 = single whole-panel GEMM
_GEMM_CANDIDATES = (
    {"col_chunk": 0},
    {"col_chunk": 4096},
    {"col_chunk": 16384},
)


def _gemm_key(w2d: np.ndarray, cols: np.ndarray) -> str:
    return f"conv2d_gemm|w={w2d.shape}|cols={cols.shape}|dt={cols.dtype}"


def _run_gemm(choice: dict, w2d: np.ndarray, cols: np.ndarray,
              out: np.ndarray | None) -> np.ndarray:
    if choice.get("kernel") == "codegen":
        res = codegen.try_gemm(w2d, cols, out=out)
        if res is not None:
            return res
        choice = _GEMM_DEFAULT       # codegen no longer available: fall back
    chunk = int(choice.get("col_chunk", 0))
    p = cols.shape[-1]
    if chunk <= 0 or chunk >= p:
        return fast.conv2d_gemm(w2d, cols, out=out)
    if out is None:
        out = np.empty(cols.shape[:1] + (w2d.shape[0], p),
                       dtype=np.result_type(w2d.dtype, cols.dtype))
    for c0 in range(0, p, chunk):
        np.matmul(w2d, cols[..., c0:c0 + chunk], out=out[..., c0:c0 + chunk])
    return out


def conv2d_gemm(w2d: np.ndarray, cols: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    if not _is_float(w2d, cols):
        return fast.conv2d_gemm(w2d, cols, out=out)
    key = _gemm_key(w2d, cols)
    candidates = _GEMM_CANDIDATES
    if _offering_codegen(key) and codegen.prepare_gemm(w2d, cols):
        candidates = candidates + (_CODEGEN_CHOICE,)
    choice = _autotune().decide(
        key, candidates,
        lambda c: _run_gemm(c, w2d, cols, out),
        _GEMM_DEFAULT)
    return _run_gemm(choice, w2d, cols, out)


# --------------------------------------------------------------------------- #
# Plan introspection
# --------------------------------------------------------------------------- #
def plan_primitive_keys(plan, dtype: str = "float64") -> tuple[str, ...]:
    """The autotune keys a :class:`~repro.engine.LayerPlan` will consult.

    Used by :meth:`repro.engine.autotune.TuningRecord.for_plan` to attach a
    live view of the tuning state to interned tuned-backend plans.  Keys are
    derived from the plan's frozen geometry for the serving dtype (float64
    unless told otherwise) — the same strings the primitives build from
    their call shapes.
    """
    if plan.kind == "winograd" and plan.padded_shape is not None:
        t = plan.transform
        return (
            _forward_key(plan.padded_shape, plan.weight_shape[0], t.name,
                         dtype),
            _autograd_key(plan.padded_shape, plan.weight_shape, t.name,
                          dtype),
        )
    n = plan.in_shape[0]
    cout, cin, kh, kw = plan.weight_shape
    k = cin * kh * kw
    p = plan.out_h * plan.out_w
    return (f"conv2d_gemm|w={(cout, k)}|cols={(n, k, p)}|dt={dtype}",)


BACKEND = KernelBackend(
    name="tuned",
    tile_contract=tile_contract,
    tile_contract_dx=fast.tile_contract_dx,
    tile_contract_dw=fast.tile_contract_dw,
    apply_transform_pair=apply_transform_pair,
    extract_tiles=fast.extract_tiles,
    scatter_tiles_add=fast.scatter_tiles_add,
    im2col=fast.im2col,
    col2im=fast.col2im,
    conv2d_gemm=conv2d_gemm,
    conv2d_gemm_dw=fast.conv2d_gemm_dw,
    conv2d_gemm_dcols=fast.conv2d_gemm_dcols,
    winograd_forward=winograd_forward,
    winograd_autograd=winograd_autograd,
)
