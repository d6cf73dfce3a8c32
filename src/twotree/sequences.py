"""Fibonacci and Lucas numbers over all signed integer indices.

Both sequences are computed independently of each other: fib by its own
recurrence/doubling formulas, lucas by its own.  This keeps the classical
cross-identities (L_m = F_{m+1} + F_{m-1} and friends) meaningful as checks
rather than restatements of the implementation.

Indices up to `_FILL_CUTOFF` come from tuples built at import (~160 KB);
larger ones are recomputed by doubling on every call and never stored.

`fib` and `lucas` check |index| against TWO_TREE_CACHE_LIMIT on every call,
and that check reads the environment.  A closed form reads up to a dozen
indices whose largest it knows in advance, so it calls `check_index` once on
that largest and then reads through `_fib` and `_lucas`, which check nothing.
`fib` and `lucas` are those readers behind the check.
"""

from __future__ import annotations

import os
from itertools import accumulate

ENV_CACHE_LIMIT = "TWO_TREE_CACHE_LIMIT"
DEFAULT_INDEX_LIMIT = 2_000_000

# The identity catalogue reads |index| <= 1002 on every profile (F(2m+2) at
# m = 500 on `deep`), so `verify` never leaves the tables.
_FILL_CUTOFF = 1024


def _recurrence_table(x0: int, x1: int) -> tuple[int, ...]:
    """(X_0, ..., X_cutoff) of X_{r+2} = X_{r+1} + X_r."""
    steps = accumulate(range(_FILL_CUTOFF), lambda ab, _: (ab[1], ab[0] + ab[1]), initial=(x0, x1))
    return tuple(a for a, _ in steps)


_fib_table = _recurrence_table(0, 1)
_lucas_table = _recurrence_table(2, 1)


def index_limit() -> int:
    """Largest |index| `fib` and `lucas` serve: TWO_TREE_CACHE_LIMIT, else DEFAULT_INDEX_LIMIT."""
    raw = os.environ.get(ENV_CACHE_LIMIT)
    if raw is None:
        return DEFAULT_INDEX_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_CACHE_LIMIT} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{ENV_CACHE_LIMIT} must be positive, got {value}")
    return value


def check_index(n: int) -> None:
    """Refuse |n| past `index_limit()`, naming n."""
    limit = index_limit()
    if abs(n) > limit:
        raise ValueError(f"sequence index {n} is past {ENV_CACHE_LIMIT} = {limit}")


def _fib_pair(r: int) -> tuple[int, int]:
    """(F_r, F_{r+1}): from the table below the cutoff, by fast doubling past it."""
    if r < _FILL_CUTOFF:
        return _fib_table[r], _fib_table[r + 1]
    fh, fh1 = _fib_pair(r >> 1)
    f_even = fh * (2 * fh1 - fh)      # F_{2h}
    f_odd = fh * fh + fh1 * fh1       # F_{2h+1}
    return (f_even, f_odd) if r % 2 == 0 else (f_odd, f_even + f_odd)


def _lucas_pair(r: int) -> tuple[int, int]:
    """(L_r, L_{r+1}): from the table below the cutoff, by Lucas doubling past it."""
    if r < _FILL_CUTOFF:
        return _lucas_table[r], _lucas_table[r + 1]
    h = r >> 1
    lh, lh1 = _lucas_pair(h)
    sign = -1 if h % 2 else 1
    l_even = lh * lh - 2 * sign       # L_{2h}
    l_odd = lh * lh1 - sign           # L_{2h+1}
    return (l_even, l_odd) if r % 2 == 0 else (l_odd, l_even + l_odd)


def fib(n: int) -> int:
    """Fibonacci number F_n for any signed integer index.

    F_0 = 0, F_1 = 1, and F_{-r} = (-1)^{r+1} F_r for the negative side.
    """
    check_index(n)
    return _fib(n)


def lucas(n: int) -> int:
    """Lucas number L_n for any signed integer index.

    L_0 = 2, L_1 = 1, and L_{-r} = (-1)^r L_r for the negative side.
    """
    check_index(n)
    return _lucas(n)


def _fib(n: int) -> int:
    """`fib` without the index check, for callers that checked their largest index."""
    r = abs(n)
    value = _fib_table[r] if r <= _FILL_CUTOFF else _fib_pair(r)[0]
    return value if n >= 0 or r % 2 == 1 else -value


def _lucas(n: int) -> int:
    """`lucas` without the index check, for callers that checked their largest index."""
    r = abs(n)
    value = _lucas_table[r] if r <= _FILL_CUTOFF else _lucas_pair(r)[0]
    return value if n >= 0 or r % 2 == 0 else -value
