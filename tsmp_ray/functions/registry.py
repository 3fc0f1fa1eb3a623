"""User extension surface: a kernel registry.

The reference's extension model is R's S3 generic system — users add
``find_motif.<Class>`` / ``plot.<Class>`` methods and chain with magrittr
pipes (/root/reference/R/misc.R:1174-1251, utils-pipe.R:1-22). The engine's
equivalent is a plain registry: register a named per-conversation kernel
``fn(series: np.ndarray, **params) -> dict[str, np.ndarray]`` with its
output columns (name → Arrow type) and it becomes runnable over a
packed-series Dataset through the built-in mining ops' plan
(``kernel_stage`` → ``mining_stage.per_conv_stage``).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np
import pyarrow as pa

from ..stages.mining_stage import _keyed, emits, per_conv_stage
from ..stages.signals import list_cell

#: name → (kernel, its rows' schema: conv_id, idx, then the declared columns)
_REGISTRY: dict[str, tuple[Callable, pa.Schema]] = {}


def register_kernel(name: str, columns: dict[str, pa.DataType]):
    """Decorator registering a per-series kernel under ``name``; ``columns``
    declares, once, every array it returns and its Arrow type."""

    def _do(f: Callable):
        _REGISTRY[name] = (f, _keyed(("idx", pa.int64()), *columns.items()))
        return f

    return _do


def get_kernel(name: str) -> Callable:
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; registered: {sorted(_REGISTRY)}")


def list_kernels() -> list[str]:
    return sorted(_REGISTRY)


def _kernel_op(conv_id, batch, r, *, name: str, fn: Callable,
               names: list[str], signal: str, params: dict):
    """One conversation's kernel output as ``idx`` plus the declared
    columns (None for a zero-length output). Keys other than the declared
    ones, or arrays of unequal lengths, raise: a stage-wide concatenation
    would otherwise null-fill or misalign rows."""
    out = fn(list_cell(batch, r, signal), **params)
    if set(out) != set(names):
        raise ValueError(
            f"kernel {name!r} returned keys {sorted(out)} for conversation "
            f"{conv_id!r} but declared {sorted(names)}")
    arrays = {k: np.asarray(out[k]) for k in names}
    n = len(arrays[names[0]])
    bad = {k: len(v) for k, v in arrays.items() if len(v) != n}
    if bad:
        raise ValueError(
            f"kernel {name!r} returned arrays of unequal lengths for "
            f"conversation {conv_id!r}: {bad} vs {n}")
    return {"idx": np.arange(n), **arrays} if n else None


def kernel_stage(ds_packed, name: str, signal: str = "text_len", **params):
    """Run a registered kernel per conversation over a packed-series
    Dataset: long rows keyed by (conv_id, idx), one task per packed block
    (``per_conv_stage``), every block and an empty output typed by the
    kernel's declared columns."""
    fn = get_kernel(name)
    schema = _REGISTRY[name][1]
    op = emits(schema)(partial(_kernel_op, name=name, fn=fn,
                               names=schema.names[2:], signal=signal,
                               params=params))
    return per_conv_stage(ds_packed, op)


# ---- built-ins exposed through the registry


@register_kernel("matrix_profile", {"mp": pa.float64(), "pi": pa.int64()})
def _mp_kernel(series: np.ndarray, w: int = 8, ez: float = 0.5):
    from ..kernels.mpx import mpx

    prof = mpx(series, w, ez=ez)
    return {"mp": prof.mp, "pi": prof.pi}


@register_kernel("cac", {"cac": pa.float64()})
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


@register_kernel("zscore", {"z": pa.float64()})
def _zscore_kernel(series: np.ndarray):
    from ..kernels.movstats import znorm

    return {"z": znorm(series)}
