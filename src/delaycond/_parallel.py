"""The ordered thread map behind ``--threads``, the one place 0 becomes the CPU count."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import InvalidArgumentError

T = TypeVar("T")
R = TypeVar("R")


def resolve_threads(threads: int) -> int:
    """The number of workers ``threads`` asks for: itself, or the CPU count for 0."""
    if threads < 0:
        raise InvalidArgumentError(f"threads must be >= 0, got {threads}")
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
