"""Host speed reference: a fixed kernel timed around every timed interval.

On a shared host the processor's speed drifts by a factor of two over
seconds, as neighbours come and go, and wall time and CPU time drift alike.
A fixed kernel made of the work the package does (a deepcopy of a small
ledger-like state, chained SHA3-256 over pairs, a JSON parse and dict churn)
is timed just before and just after each timed interval. The interval's
time is scaled by `NOMINAL_S` over the mean of those two kernel times, which
gives the time the interval would take on a host where the kernel takes
exactly `NOMINAL_S`. A change to the package moves the interval and not the
kernel, so it shows in full; a change of host speed moves both and cancels.
"""

from __future__ import annotations

import copy
import hashlib
import json
import statistics
from time import perf_counter

# The kernel's time at the fast state of a 2-vCPU x86-64 cloud host.
NOMINAL_S = 1.0e-3

_STATE = {f"acct:{i}": {"balance": i, "nonce": i % 7, "code": [i, i + 1, "x" * 8]}
          for i in range(100)}
_DOC = json.dumps({"actions": [{"cmd": "init", "op_id": i, "otp": "ab" * 16}
                               for i in range(40)]})


def kernel_s() -> float:
    """Time of one run of the reference kernel, in seconds."""
    t0 = perf_counter()
    copy.deepcopy(_STATE)
    h = b"\0" * 32
    for _ in range(400):
        h = hashlib.sha3_256(h + h).digest()
    json.loads(_DOC)
    d: dict[int, int] = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 89, 0) + i
    return perf_counter() - t0


def reference_s(repeats: int = 3) -> float:
    """Median of a few kernel runs: the host's current speed."""
    return statistics.median(kernel_s() for _ in range(repeats))


class Scaler:
    """Scales intervals to the nominal speed, reusing the reference taken
    after one interval as the one before the next."""

    def __init__(self) -> None:
        self.last = reference_s()

    def scale(self, raw_s: float) -> float:
        """The interval just timed, at nominal speed; takes a new reference."""
        before, self.last = self.last, reference_s()
        return raw_s * NOMINAL_S / ((before + self.last) / 2)
