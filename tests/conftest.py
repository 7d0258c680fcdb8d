"""Hypothesis profiles. ``dev`` is loaded by default and keeps the tier-1 run
short; ``ci`` (``--hypothesis-profile=ci``) runs more examples. Only tests
that leave ``max_examples`` to the profile see the difference: the rest fix
their own count.

``traced_peak`` is the one tracemalloc harness of the memory-bound tests
(``from conftest import traced_peak``)."""

import tracemalloc

from hypothesis import settings

settings.register_profile("dev", max_examples=8)
settings.register_profile("ci", max_examples=40)
settings.load_profile("dev")


def traced_peak(fn):
    """(fn(), the peak in bytes that tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak
