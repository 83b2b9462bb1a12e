"""Parameter sets and the bit-shift rounding constants."""

import functools
from dataclasses import dataclass


def _log2_exact(x: int) -> int:
    b = x.bit_length() - 1
    if x <= 0 or (1 << b) != x:
        raise ValueError(f"{x} is not a positive power of two")
    return b


@dataclass(frozen=True)
class RingParams:
    """Module-LWR ring parameters.

    Defaults match the SABER PKE parameter set: n=256, l=3,
    q=2^13, p=2^10, T=2^4, mu=8. `h1` and `h2` are the coefficients of the
    constant polynomials h1, h (l copies of h1) and h2 that turn rounding
    into shifts.
    """

    n: int = 256
    q: int = 1 << 13
    p: int = 1 << 10
    T: int = 1 << 4
    l: int = 3
    mu: int = 8

    def __post_init__(self):
        _log2_exact(self.n)
        if not (self.T < self.p < self.q):
            raise ValueError("moduli must satisfy T < p < q")
        for m in (self.q, self.p, self.T):
            _log2_exact(m)
        if self.mu % 2 != 0:
            raise ValueError("mu must be even")
        if self.l < 1:
            raise ValueError("module rank must be >= 1")

    @functools.cached_property
    def eps_q(self) -> int:
        return _log2_exact(self.q)

    @functools.cached_property
    def eps_p(self) -> int:
        return _log2_exact(self.p)

    @functools.cached_property
    def eps_T(self) -> int:
        return _log2_exact(self.T)

    @functools.cached_property
    def h1(self) -> int:
        return 1 << (self.eps_q - self.eps_p - 1)

    @functools.cached_property
    def h2(self) -> int:
        return (1 << (self.eps_p - 2)) - (1 << (self.eps_p - self.eps_T - 1)) + self.h1


DEFAULT_PARAMS = RingParams()

