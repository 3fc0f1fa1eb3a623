import logging
import os

import pytest

os.environ.setdefault("RAY_DEDUP_LOGS", "0")
# sandbox page faults are ~100× slow; keep big numpy buffers on the reusable
# glibc heap (see bench.py). Too late for THIS process (glibc already up) but
# every Ray worker spawned later inherits it at exec time.
os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", "1073741824")
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", "1073741824")
# don't cull idle Ray workers mid-session — respawn repays the first-touch tax
os.environ.setdefault("RAY_idle_worker_killing_time_threshold_ms", "600000")
os.environ.setdefault("GLIBC_TUNABLES", "glibc.malloc.hugetlb=1")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


def _count_ray_data_records(needle: str):
    """Count the ``ray.data`` log records containing ``needle`` while the
    test runs."""

    class _Count(logging.Handler):
        def __init__(self):
            super().__init__(logging.DEBUG)
            self.n = 0

        def emit(self, record):
            if needle in record.getMessage():
                self.n += 1

    handler = _Count()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        yield handler
    finally:
        logger.removeHandler(handler)


@pytest.fixture
def schema_hash_failures():
    """Counts Ray's "Failed to hash the schemas" records: a shuffle input
    carrying pandas schema metadata."""
    yield from _count_ray_data_records("Failed to hash the schemas")


@pytest.fixture
def schema_divergences():
    """Counts Ray's "Operator produced a RefBundle with a different schema"
    records: an operator emitting blocks of unlike schemas, e.g. empty
    schema-less blocks beside typed ones."""
    yield from _count_ray_data_records("RefBundle with a different schema")
