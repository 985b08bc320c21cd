"""Exception hierarchy.

Three branches, matching the CLI exit-code contract:

* :class:`ConfigError` -- malformed configuration or syntax (exit 2),
* :class:`ValidationError` -- schema-valid but mathematically invalid input
  (exit 3),
* :class:`ConsistencyError` -- an internal cross-check failed, which means a
  bug, not bad input (exit 4).
"""


class QcffError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(QcffError):
    """Malformed configuration, schema violation, or unparsable polynomial text."""


class ValidationError(QcffError):
    """Input is well-formed but mathematically inadmissible."""


class ConsistencyError(QcffError):
    """An internal invariant failed; indicates a defect in this package."""


# --- field construction ---------------------------------------------------

class NonPrimeP(ValidationError):
    """The characteristic p is not a prime number."""


class EvenCharacteristic(ValidationError):
    """p = 2 is rejected; only odd characteristic is supported."""


class ReducibleModulus(ValidationError):
    """The supplied extension modulus is not irreducible over F_p."""


class MissingModulus(ValidationError):
    """An extension degree e > 1 requires an explicit modulus."""


# --- element / polynomial arithmetic --------------------------------------

class DivisionByZero(ValidationError):
    """Polynomial division or reduction by the zero polynomial."""


class GcdOfZeros(ValidationError):
    """gcd(0, 0) is undefined."""


class ConstantInput(ValidationError):
    """A nonconstant polynomial was required."""


class NonpositiveBound(ValidationError):
    """Enumeration bound must be >= 1."""


# --- residue symbols -------------------------------------------------------

class NotCoprime(ValidationError):
    """Symbol entries must be coprime."""


class NotPrimeModulus(ValidationError):
    """The lower entry of a residue symbol must be monic irreducible."""


class EqualPrimes(ValidationError):
    """The reciprocity check needs two distinct primes."""


# --- conductors ------------------------------------------------------------

class NotMonic(ValidationError):
    """Conductors, claimed prime factors and Jacobi-symbol lower entries must be monic."""


class ConstantConductor(ValidationError):
    """The conductor must be nonconstant."""


class ReducibleClaimedPrime(ValidationError):
    """A claimed prime factor failed the irreducibility test."""


class DuplicatePrime(ValidationError):
    """A claimed factorization lists the same prime twice."""


# --- pair sets -------------------------------------------------------------

class PrimeNotInConductor(ValidationError):
    """A pair member is not a prime factor of the conductor."""


class PairMembersEqual(ValidationError):
    """Pair members must be distinct primes."""


class DuplicatePair(ValidationError):
    """The same ordered pair was listed twice."""


class WrongOrientation(ValidationError):
    """Pairs must be oriented with the smaller prime first; input is rejected,
    never silently flipped, because the attached data is orientation-sensitive."""


class BadPair(ValidationError):
    """Formal-sum construction received an inadmissible prime pair."""


class OnlySinglePairSupported(ValidationError):
    """The parity diagnostic is defined for single-pair inputs only."""


# --- internal consistency ---------------------------------------------------

class NonIntegerGenus(ConsistencyError):
    """A genus formula evaluated to a non-integer; signals an arithmetic bug."""
