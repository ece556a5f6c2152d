"""Correctness of every cell the benchmark produces.

A cell is one (point, scheme) pair.  It fails when

- it is empty (the scheme raised), or its rate is not finite or is negative;
- it is a lower bound above ``ub`` (for ``mmse``, by more than its 95%
  half-width);
- its point has an entry in ``reference.json`` and it disagrees with it:
  ``ub`` and ``tci`` by more than 1e-9, ``qci_J*`` by falling more than 1e-9
  below it (an ascent that stops early), ``mmse`` by more than three
  reference half-widths.

The reference holds every point of both presets and the cold points of the
seeds listed in it, recorded by ``record_reference.py``.
"""

from __future__ import annotations

import json
import math
import os

TOL = 1e-9
MMSE_HALFWIDTHS = 3.0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def point_key(config) -> str:
    """Exact identity of an operating point as the program received it."""
    return f"{config.noise_power!r} {config.c1!r} {config.c2!r}"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _halfwidth(result) -> float:
    return result.diagnostics.get("mmse_halfwidth", 0.0)


def cell_failure(result, ub_rate: float | None, expected: dict | None) -> str | None:
    """Why one cell fails, or None when it passes."""
    rate = result.rate
    scheme = result.scheme
    if rate is None:
        return "empty cell"
    if not math.isfinite(rate) or rate < 0.0:
        return f"rate {rate!r} is not finite and nonnegative"
    if scheme != "ub" and ub_rate is not None:
        slack = _halfwidth(result) if scheme == "mmse" else 0.0
        if rate - slack > ub_rate + TOL:
            return f"rate {rate!r} exceeds ub {ub_rate!r}"
    if expected is None:
        return None
    if scheme not in expected:
        return "no reference value"
    want = expected[scheme]
    if scheme in ("ub", "tci") and abs(rate - want) > TOL:
        return f"rate {rate!r} differs from reference {want!r}"
    if scheme.startswith("qci_J") and rate < want - TOL:
        return f"rate {rate!r} is below reference {want!r}"
    if scheme == "mmse":
        limit = MMSE_HALFWIDTHS * expected["mmse_halfwidth"]
        if abs(rate - want) > limit:
            return f"rate {rate!r} is more than {limit!r} from reference {want!r}"
    return None


def check_point(results, expected: dict | None) -> list[str]:
    """One message per failed cell of a point; empty when all pass."""
    ub_rate = next((r.rate for r in results if r.scheme == "ub"), None)
    if ub_rate is not None and not math.isfinite(ub_rate):
        ub_rate = None
    messages = []
    for result in results:
        why = cell_failure(result, ub_rate, expected)
        if why is not None:
            messages.append(f"{result.scheme}: {why}")
    return messages


def reference_values(results) -> dict:
    """The reference entry of one point, in the form check_point reads."""
    entry = {r.scheme: r.rate for r in results}
    for result in results:
        if result.scheme == "mmse":
            entry["mmse_halfwidth"] = _halfwidth(result)
    return entry
