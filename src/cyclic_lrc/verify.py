"""Singleton-type bound and end-to-end optimality certification.

A locally repairable code with locality r obeys
``d <= n - k - ceil(k/r) + 2`` (Gopalan et al.).  So once the locality
claim carries a verified witness and the claimed distance is that bound, a
proven lower bound that reaches the claim fixes d exactly: a code is
certified optimal here when the exact scan or, over the scan budget, the
BCH bound reaches the claimed distance.  Verdicts are four-valued, so a
claim that no proven bound reaches stays distinguishable from a certified
one.  :func:`render_verdict` reads only that evidence, for both
``sweep --verify`` and ``verify``; the dual distance and BCH bound that
:func:`verify_optimal` adds are report-only (with locality r verified, the
dual distance is at most r + 1, so it cannot contradict the claims).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .cyclic import DEFAULT_BUDGET, DistanceScan, min_distance_exhaustive
from .repair import LocalityCheck, verify_locality

if TYPE_CHECKING:  # pragma: no cover
    from .constructions import LrcCode

OPTIMAL_CERTIFIED = "optimal-certified"
OPTIMAL_CONSISTENT = "optimal-consistent"
REFUTED = "refuted"
INDETERMINATE = "indeterminate"

#: Exit codes used by the CLI ``verify`` command.
VERDICT_EXIT_CODES = {
    OPTIMAL_CERTIFIED: 0,
    OPTIMAL_CONSISTENT: 2,
    REFUTED: 3,
    INDETERMINATE: 4,
}


def singleton_bound(n: int, k: int, r: int) -> int:
    """n - k - ceil(k/r) + 2.  Equality with the minimum distance is what
    "optimal" means throughout this package."""
    if r < 1:
        raise ValueError(f"locality must be >= 1, got {r}")
    if not 1 <= k <= n:
        raise ValueError(f"dimension k = {k} out of range for n = {n}")
    return n - k - math.ceil(k / r) + 2


class VerificationReport(NamedTuple):
    scheme: str
    q: int
    n: int
    k: int
    r: int
    d_claimed: int
    distance: DistanceScan
    dual_distance: DistanceScan
    bch_lower_bound: int | None
    locality: LocalityCheck
    singleton_rhs: int
    degenerate: bool
    verdict: str

    def to_dict(self) -> dict:
        return {
            "params": {
                "scheme": self.scheme,
                "q": self.q,
                "n": self.n,
                "k": self.k,
                "r": self.r,
                "d_claimed": self.d_claimed,
            },
            "distance": self.distance.to_dict(),
            "dual_distance": self.dual_distance.to_dict(),
            "bch_lower_bound": self.bch_lower_bound,
            "locality": self.locality.to_dict(),
            "singleton_bound": self.singleton_rhs,
            "degenerate": self.degenerate,
            "verdict": self.verdict,
        }


def render_verdict(code: LrcCode, budget: int = DEFAULT_BUDGET) -> tuple[str, DistanceScan, LocalityCheck]:
    """The verdict on a code's claims, with the distance scan and locality
    check it reads.

    optimal-certified   the locality claim has its grid witness, and the
                        proven lower bound (the exact scan, or BCH over the
                        budget) reaches the claim;
    optimal-consistent  nothing contradicts the claims but no proven lower
                        bound reaches the claim;
    refuted             the claim is outside the distance bracket;
    indeterminate       g has no grid factor x^s - c for the claimed r, so
                        locality is uncertified (never refuted).

    The claim is the Singleton-type bound, which LrcCode has checked.
    """
    base, d = code.base, code.d_claimed
    distance = min_distance_exhaustive(base, budget)
    locality = verify_locality(code)
    if not distance.lower <= d <= distance.upper:
        verdict = REFUTED
    elif not locality.ok:
        verdict = INDETERMINATE
    else:
        verdict = OPTIMAL_CERTIFIED if distance.lower == d else OPTIMAL_CONSISTENT
    return verdict, distance, locality


def verify_optimal(code: LrcCode, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """The verdict of :func:`render_verdict` in a full report, which adds
    the dual distance and the BCH lower bound (None for a code without
    stated zeros); neither decides the verdict (over the budget, the distance
    bracket already starts at that bound)."""
    verdict, distance, locality = render_verdict(code, budget)
    base = code.base
    return VerificationReport(
        scheme=code.scheme,
        q=base.field.q,
        n=base.n,
        k=base.k,
        r=code.r,
        d_claimed=code.d_claimed,
        distance=distance,
        dual_distance=min_distance_exhaustive(base.dual(), budget),
        bch_lower_bound=base.bch_lower_bound(),
        locality=locality,
        singleton_rhs=singleton_bound(base.n, base.k, code.r),
        degenerate=base.k == base.n,
        verdict=verdict,
    )
