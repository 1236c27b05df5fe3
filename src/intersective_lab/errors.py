"""Exception types used across the library."""


class ZeroPolynomialError(ValueError):
    """Operation requires a nonzero (or nonconstant) polynomial."""


class NonIntegralQuotient(ValueError):
    """A shift-scale expansion produced a coefficient not divisible by the divisor."""

    def __init__(self, index: int, numerator: int, divisor: int):
        self.index = index
        self.numerator = numerator
        self.divisor = divisor
        super().__init__(
            f"coefficient of x^{index} is {numerator}, not divisible by {divisor}"
        )


class PrimeOutOfRange(ValueError):
    """d has a prime factor beyond the family's precomputed bound.

    p is that prime, or the part of d left after dividing out the primes up
    to the bound, which may be composite.
    """

    def __init__(self, p: int, bound: int):
        self.p = p
        self.bound = bound
        super().__init__(f"every prime factor of {p} exceeds the family bound {bound}")


class LiftAmbiguous(ValueError):
    """p-adic lifting could not be resolved at the requested precision.

    Unreachable with the resultant-bounded resolution used here; kept as a
    defensive guard.
    """


class NotIntersectiveError(ValueError):
    """Polynomial has no p-adic root for some prime within the working bound."""


class NestingViolation(RuntimeError):
    """lambda(q) h_{dq}(n) != h_d(s + qn); fatal invariant violation."""

    def __init__(self, d: int, q: int, n: int):
        self.d, self.q, self.n = d, q, n
        super().__init__(f"nesting identity failed at d={d}, q={q}, n={n}")


class ZeroDerivative(ValueError):
    """The polynomial's derivative is identically zero."""


class NotCoprime(ValueError):
    """gcd(a, q) != 1 where a primitive residue class is required."""


class SetOutOfRange(ValueError):
    """Set element outside the ambient interval [1, N]."""


class TooLarge(ValueError):
    """Input exceeds a configured exact-computation guard."""


class PreconditionViolated(ValueError):
    """A stated precondition failed; the message names the failing condition."""


class InvariantViolation(RuntimeError):
    """A consequence guaranteed by the theory failed; indicates a bug."""


class PolyParseError(ValueError):
    """Polynomial expression rejected; carries position and expectation."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"parse error at position {position}: expected {expected}")
