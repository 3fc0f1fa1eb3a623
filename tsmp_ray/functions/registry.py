"""User extension surface: a kernel registry.

The reference's extension model is R's S3 generic system — users add
``find_motif.<Class>`` / ``plot.<Class>`` methods and chain with magrittr
pipes (/root/reference/R/misc.R:1174-1251, utils-pipe.R:1-22). The engine's
equivalent is a plain registry: register a named per-conversation kernel
``fn(series: np.ndarray, **params) -> dict[str, np.ndarray]`` and it becomes
runnable over a packed-series Dataset through the same batched
map_batches scaffold as the built-ins (``kernel_stage``).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa

_REGISTRY: dict[str, Callable] = {}


def register_kernel(name: str, fn: Callable | None = None):
    """Register a per-series kernel (usable as a decorator)."""

    def _do(f: Callable):
        _REGISTRY[name] = f
        return f

    if fn is not None:
        return _do(fn)
    return _do


def get_kernel(name: str) -> Callable:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; registered: {sorted(_REGISTRY)}")


def list_kernels() -> list[str]:
    return sorted(_REGISTRY)


def kernel_stage(ds_packed, name: str, signal: str = "text_len", **params):
    """Run a registered kernel per conversation over a packed-series Dataset.
    The kernel's dict-of-arrays output becomes long rows keyed by
    (conv_id, idx).

    Emits ONE Arrow table per batch (numpy chunks per output key +
    dictionary-encoded conv_id labels) rather than a pandas frame per
    conversation — the same batched-emit shape as tiers_from_packed /
    profile_stage._profile_block, which measured ~6× cheaper on many-conv
    inputs (BASELINE.md round 5, many-conv subsection). Kernels must return the
    same key set for every series and equal-length arrays per series; a
    mismatch raises (within a batch; a cross-batch key drift surfaces as
    a block-schema mismatch downstream) instead of silently NaN-filling
    or misaligning rows like a concat of ragged arrays would.
    """
    from ..stages.signals import list_cell, repeat_labels

    fn = get_kernel(name)

    def run(batch: pa.Table) -> pa.Table:
        conv_ids: list[str] = []
        lens: list[int] = []
        idx_chunks: list[np.ndarray] = []
        out_chunks: dict[str, list[np.ndarray]] = {}
        for r in range(batch.num_rows):
            out = fn(list_cell(batch, r, signal), **params)
            if out_chunks and set(out) != set(out_chunks):
                raise ValueError(
                    f"kernel {name!r} returned keys {sorted(out)} for one "
                    f"conversation but {sorted(out_chunks)} for another")
            arrays = {k: np.asarray(v) for k, v in out.items()}
            n = len(next(iter(arrays.values())))
            bad = {k: len(v) for k, v in arrays.items() if len(v) != n}
            if bad:
                raise ValueError(
                    f"kernel {name!r} returned arrays of unequal lengths "
                    f"for one conversation: {bad} vs {n} — per-batch "
                    f"concatenation would silently misalign rows")
            conv_ids.append(batch["conv_id"][r].as_py())
            lens.append(n)
            idx_chunks.append(np.arange(n))
            for k, v in arrays.items():
                out_chunks.setdefault(k, []).append(v)
        if not conv_ids:
            # zero-row block: the kernel's output columns are unknowable
            # without running it, but a 0-row subset-schema block unions
            # harmlessly (null-fill over no rows) at concat/to_pandas time
            return pa.table({"conv_id": pa.array([], pa.string()),
                             "idx": pa.array([], pa.int64())})
        cols: dict[str, pa.Array] = {
            "conv_id": repeat_labels(conv_ids, lens),
            "idx": pa.array(np.concatenate(idx_chunks)),
        }
        for k, chunks in out_chunks.items():
            cols[k] = pa.array(np.concatenate(chunks))
        return pa.table(cols)

    return ds_packed.map_batches(run, batch_format="pyarrow", batch_size=8)


# ---- built-ins exposed through the registry


@register_kernel("matrix_profile")
def _mp_kernel(series: np.ndarray, w: int = 8, ez: float = 0.5):
    from ..kernels.mpx import mpx

    prof = mpx(series, w, ez=ez)
    return {"mp": prof.mp, "pi": prof.pi}


@register_kernel("cac")
def _cac_kernel(series: np.ndarray, w: int = 8):
    from ..kernels.mining import fluss_cac
    from ..kernels.stomp import stomp

    if len(series) < 2 * w:
        # stomp mirrors the reference's too-short guard; a short conv
        # contributes ZERO rows (every stage's `len < 2w → skip`
        # convention) instead of failing the whole kernel_stage pass
        return {"cac": np.empty(0, dtype=np.float64)}
    prof = stomp(series, w)
    return {"cac": fluss_cac(prof)}


@register_kernel("zscore")
def _zscore_kernel(series: np.ndarray):
    from ..kernels.movstats import znorm

    return {"z": znorm(series)}
