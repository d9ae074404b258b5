"""Formal integer combinations of {log p}.

Log-weighted sums are carried exactly as maps prime -> integer coefficient,
so identities like the sieve decomposition can be checked with zero
tolerance; floats appear only when rendering reports.
"""

from math import log


class LogCombination:
    """An element of the free abelian group on symbols log p."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.coeffs = {p: c for p, c in (coeffs or {}).items() if c}

    def __add__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return LogCombination(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) - c
        return LogCombination(out)

    def __neg__(self):
        return LogCombination({p: -c for p, c in self.coeffs.items()})

    def __rmul__(self, scalar: int):
        return LogCombination({p: scalar * c for p, c in self.coeffs.items()})

    __mul__ = __rmul__

    def __eq__(self, other):
        if isinstance(other, LogCombination):
            return self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def value(self) -> float:
        return sum(c * log(p) for p, c in self.coeffs.items())

    def __abs__(self) -> float:
        return abs(self.value())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*log({p})" for p, c in sorted(self.coeffs.items()))
