"""The packed-word simulation kernel behind every compiled-graph consumer.

:class:`~repro.backend.kernel.SimBackend` owns the fused full pass, the
event-driven cone replay and the segmented bitset OR of the separation
BFS; :data:`~repro.backend.kernel.KERNEL` is the one shared instance
(see :mod:`repro.backend.kernel`).
"""

from repro.backend.kernel import KERNEL, SimBackend

__all__ = ["KERNEL", "SimBackend"]
