"""repro.validate — machine-checked invariants and differential tests.

Two halves (see docs/VALIDATION.md):

* :mod:`repro.validate.invariants` — predicates over *live* simulator
  state (coherence subset/ownership rules, LRU recency order, stats
  conservation laws, hardware-budget bounds).  They run periodically
  from the ``SingleCoreSystem``/``MultiCoreSystem`` run loops when
  enabled via ``REPRO_VALIDATE=1`` (or ``=N`` for a custom interval) or
  the CLI's ``--check`` flag, and raise :class:`InvariantViolation`
  with a diagnostic dump on the first breach.

* :mod:`repro.validate.differential` — drives the same access stream
  through intentionally-redundant implementations (inlined-LRU fast
  path vs. generic policy, ``access`` vs. ``access_fast``, shift/mask
  vs. div/mod indexing, 1-core multi-core vs. single-core, reference
  loop vs. batch kernel) and asserts bit-identical final stats.
"""

from __future__ import annotations

import os

from repro.validate.invariants import (DEFAULT_CHECK_INTERVAL,
                                       InvariantViolation,
                                       check_multicore_system,
                                       check_single_core_system)

__all__ = [
    "DEFAULT_CHECK_INTERVAL",
    "InvariantViolation",
    "check_interval",
    "check_multicore_system",
    "check_single_core_system",
]


def check_interval(explicit: int | None = None) -> int:
    """Resolve the invariant-check interval (0 = checking disabled).

    ``explicit`` (e.g. a constructor argument) wins; otherwise the
    ``REPRO_VALIDATE`` environment variable is consulted: unset/empty/
    ``0`` disables, ``1`` enables at :data:`DEFAULT_CHECK_INTERVAL`,
    any larger integer is used as the interval itself.
    """
    if explicit is not None:
        return max(0, explicit)
    raw = os.environ.get("REPRO_VALIDATE", "").strip()
    if not raw:
        return 0
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_CHECK_INTERVAL
    if value <= 0:
        return 0
    return DEFAULT_CHECK_INTERVAL if value == 1 else value
