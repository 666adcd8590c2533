"""Multivariate right quaternion matrix polynomials in noncommuting letters.

Terms are (word, coefficient) pairs where a word is an ordered tuple of
variable indices; substituting quaternions multiplies the letters left to
right, so word order matters.  Stability over a finite probe set is decided
exactly through realification, over tuples of its rows, by the realified
sweep in ``matpoly`` that the univariate oracle shares as its one-letter case.
The quadratic and cubic derivation rules turn multivariate stability into
hyperstability of the matching univariate polynomial.  The rules are
one-directional: when multivariate stability fails, the univariate verdict
stays UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InputFormatError, ZeroInOmegaError
from .linalg import QuaternionMatrix
from .matpoly import MatrixPolynomial, realified_sweep
from .quaternion import Quaternion, moduli
from .stability import HyperStatus, HyperVerdict, Region, RegionKind, StabilityStatus, check_stability
from .tolerances import OMEGA_ZERO_ABS

Word = tuple[int, ...]

# check_stability_multi refuses probe sets whose tuples times letters exceed this.
MAX_TUPLES = 10 ** 6
# The CLI refuses a --samples whose probe actions, 4n (m + 1) doubles a sample, exceed this.
MAX_SAMPLE_DOUBLES = 10 ** 7


def _normalize_word(word: Sequence[int], k: int) -> Word:
    letters = tuple(int(v) for v in word)
    if any(v < 1 or v > k for v in letters):
        raise ValueError(f"word {letters} uses letters outside 1..{k}")
    return letters


@dataclass(frozen=True)
class MultiPolynomial:
    """sum over words w of A_w * w(t_1, ..., t_k)."""

    k: int
    terms: tuple[tuple[Word, QuaternionMatrix], ...]

    @classmethod
    def build(cls, k: int, terms) -> "MultiPolynomial":
        if k < 1:
            raise ValueError("need at least one variable")
        merged: dict[Word, QuaternionMatrix] = {}
        size = None
        for word, coeff in terms:
            word = _normalize_word(word, k)
            if coeff.n_rows != coeff.n_cols:
                raise ValueError("coefficients must be square")
            if not coeff.is_finite():
                raise ValueError("coefficients must be finite")
            if size is None:
                size = coeff.n_rows
            elif coeff.n_rows != size:
                raise ValueError("coefficients must share one dimension")
            merged[word] = merged[word] + coeff if word in merged else coeff.copy()
        kept = tuple(sorted(((w, c) for w, c in merged.items() if not c.is_zero()),
                            key=lambda item: (len(item[0]), item[0])))
        if not kept:
            raise ValueError("polynomial needs at least one nonzero coefficient")
        return cls(k, kept)

    @property
    def size(self) -> int:
        return self.terms[0][1].n_rows


@dataclass
class MultiStabilityVerdict:
    status: StabilityStatus
    certificate: str
    witness_tuple: Optional[tuple[Quaternion, ...]] = None
    witness_vector: Optional[QuaternionMatrix] = None


def check_stability_multi(p: MultiPolynomial, omega: Region) -> MultiStabilityVerdict:
    """Exact stability over omega^k for a finite probe set omega.

    Every tuple is realified and rank-tested; the verdict reports the first
    singular tuple (in lexicographic tuple order) with a kernel vector, so
    the result is independent of how the sweep is chunked.  More than
    MAX_TUPLES tuples times letters raise InputFormatError before any is built.
    """
    if omega.kind is not RegionKind.FINITE_SET:
        raise InputFormatError("multivariate stability is decided over finite sets only")
    # Two or more points pass the cap well before k = 64 letters.
    if p.k * len(omega.points) ** min(p.k, 64) > MAX_TUPLES:
        raise InputFormatError(f"{len(omega.points)}^{p.k} probe tuples of {p.k} letters "
                               f"exceed the limit of {MAX_TUPLES}")
    status, tup, vec = realified_sweep(p.terms, omega.points, p.k)
    if status == "singular":
        return MultiStabilityVerdict(StabilityStatus.NOT_STABLE, "realified-tuple-test",
                                     tuple(Quaternion(*q) for q in tup), vec)
    if status == "unknown":
        return MultiStabilityVerdict(StabilityStatus.UNKNOWN,
                                     "realified-tuple-test-deadband")
    return MultiStabilityVerdict(StabilityStatus.STABLE, "realified-tuple-test")


def _derive(terms, omega: Region, certificate: str, *, zero_free: bool,
            guard: Optional[Sequence[QuaternionMatrix]] = None) -> HyperVerdict:
    """Hyperstability from stability over omega^2 of the two-letter polynomial of these terms;
    ``zero_free`` rules need 0 outside omega.  ``guard``, the coefficients of P where the
    operator at u = v is not P, keeps a HYPERSTABLE only where P is stable over omega."""
    if omega.kind is not RegionKind.FINITE_SET:
        raise InputFormatError("derivation rules run over finite probe sets only")
    multi = MultiPolynomial.build(2, terms)
    if zero_free and (moduli(omega.points) <= OMEGA_ZERO_ABS).any():
        raise ZeroInOmegaError("the probe set must not contain 0")
    verdict = check_stability_multi(multi, omega)
    if verdict.status is not StabilityStatus.STABLE:
        return HyperVerdict(HyperStatus.UNKNOWN, certificate + " (multivariate stability not established)",
                            details={"multivariate_status": verdict.status.value})
    if guard is not None:
        stab = check_stability(MatrixPolynomial(guard, trim=True), omega)
        if stab.status is not StabilityStatus.STABLE:
            has = "has" if stab.status is StabilityStatus.NOT_STABLE else "may have"
            return HyperVerdict(HyperStatus.UNKNOWN, f"{certificate} (P {has} an eigenvalue in omega)")
    return HyperVerdict(HyperStatus.HYPERSTABLE, certificate)


def derive_hyperstability_quadratic(a2: QuaternionMatrix, a1: QuaternionMatrix,
                                    a0: QuaternionMatrix, omega: Region,
                                    form: str) -> HyperVerdict:
    """Hyperstability of A_2 t^2 + A_1 t + A_0 from two-variable stability.

    Form "i" checks A_2 u^2 + A_1 v + A_0 over omega^2; form "ii" checks
    A_2 u v + A_1 v + A_0 and additionally requires 0 outside omega.  Only
    the positive direction transfers: anything short of STABLE returns
    UNKNOWN.
    """
    if form not in ("i", "ii"):
        raise ValueError("form must be 'i' or 'ii'")
    lead: Word = (1, 1) if form == "i" else (1, 2)
    return _derive([(lead, a2), ((2,), a1), ((), a0)], omega,
                   f"multivariate-quadratic-{form}", zero_free=form == "ii")


def derive_hyperstability_cubic(c3: QuaternionMatrix, c2: QuaternionMatrix,
                                c1: QuaternionMatrix, c0: QuaternionMatrix,
                                omega: Region, *,
                                leading: str = "literal") -> HyperVerdict:
    """Hyperstability of a cubic from stability of C_a v^3 + C_2 u v + C_1 u + C_0.

    The published form of the rule repeats the constant coefficient in the
    leading position; ``leading`` selects between that literal reading
    ("literal", C_a = C_0) and the plausible-typo reading ("a3", C_a = C_3).
    At u = v the literal operator is C_0 v^3 + C_2 v^2 + C_1 v + C_0, not P,
    so its HYPERSTABLE stands only where P itself is stable over omega; else
    it is UNKNOWN.  Requires 0 outside omega; one-directional like the
    quadratic rule.
    """
    if leading not in ("literal", "a3"):
        raise ValueError("leading must be 'literal' or 'a3'")
    literal = leading == "literal"
    return _derive([((2, 2, 2), c0 if literal else c3), ((1, 2), c2), ((1,), c1), ((), c0)],
                   omega, f"multivariate-cubic-{leading}", zero_free=True,
                   guard=[c0, c1, c2, c3] if literal else None)
