"""The ordered thread map behind ``--threads``, the one place 0 becomes the CPU count."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import InvalidArgumentError

T = TypeVar("T")
R = TypeVar("R")

# The most workers ``threads`` may ask for, well above the core counts these
# passes gain from. A pass is cut into at least one chunk per worker, and each
# busy worker is an OS thread, so an unbounded count would start one thread
# per pair (8 128 on a 128-sample table) and list ``threads + 1`` chunk bounds.
MAX_THREADS = 256


def resolve_threads(threads: int) -> int:
    """The number of workers ``threads`` asks for: itself, or the CPU count for 0.

    ``threads`` outside ``[0, MAX_THREADS]`` is an ``InvalidArgumentError``.
    """
    if not 0 <= threads <= MAX_THREADS:
        raise InvalidArgumentError(f"threads: must be in [0, {MAX_THREADS}], got {threads}")
    return threads or os.cpu_count() or 1


def ordered_map(func: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """``[func(item) for item in items]`` on up to ``threads`` worker threads.

    ``threads = 0`` picks the CPU count. Results come back in input order.
    Each task builds its own working set when it starts, so at most
    ``threads`` of them are alive at once.
    """
    workers = min(resolve_threads(threads), len(items))
    if workers <= 1:
        return [func(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))
