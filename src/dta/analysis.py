"""Closed-form failure-probability models for the probabilistic stores.

The key-value and postcard stores trade memory for a quantified chance of
(a) answering nothing and (b) answering wrongly, as later writes overwrite
slots.  This module evaluates those probabilities for a parameter bundle
(redundancy N, checksum width b, load factor alpha, and for postcard chunks
the hops-per-chunk B and value-universe width).  The Monte-Carlo suites in
``experiments`` treat these evaluators as their oracle: empirical rates must
fall inside the (lower, upper) brackets.

The per-slot overwrite probability uses the Poisson approximation
1 - e^(-alpha*N); an exact finite-M binomial variant is available for small
stores where the approximation visibly diverges.  Terms far below double
precision (deep wrong-output products) are assembled from exact binomial
tail sums rather than differences of near-1 quantities, so they stay
positive and accurate instead of cancelling to noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, expm1, log, log1p
from typing import Optional


@dataclass(frozen=True)
class KwModel:
    """Key-value store operating point.

    alpha is the number of distinct-key writes since the queried key was
    written, as a fraction of the slot count.
    """

    redundancy: int
    checksum_bits: int
    alpha: float

    def __post_init__(self):
        if self.redundancy < 1:
            raise ValueError(f"redundancy must be >= 1, got {self.redundancy}")
        if not 1 <= self.checksum_bits <= 64:
            raise ValueError(f"checksum_bits must be in [1, 64], got {self.checksum_bits}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


@dataclass(frozen=True)
class PcModel:
    """Postcard chunk store operating point: KwModel plus chunk geometry."""

    redundancy: int
    checksum_bits: int
    alpha: float
    hops: int
    value_bits: float

    def __post_init__(self):
        KwModel(self.redundancy, self.checksum_bits, self.alpha)
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops}")
        if self.value_bits < 0:
            raise ValueError(f"value_bits must be >= 0, got {self.value_bits}")


def overwrite_prob(alpha: float, redundancy: int, exact_m: Optional[int] = None) -> float:
    """Probability that one particular slot of the queried key was overwritten.

    With exact_m given, evaluates the finite-M expression
    1 - (1 - 1/M)^(K*N), K = round(alpha*M), instead of the Poisson form.
    """
    if exact_m is not None:
        if exact_m < 1:
            raise ValueError(f"exact_m must be >= 1, got {exact_m}")
        writes = round(alpha * exact_m) * redundancy
        return -expm1(writes * log1p(-1.0 / exact_m))
    return -expm1(-alpha * redundancy)


def _binom_tail_ge2(n: int, p: float) -> float:
    """P[Binomial(n, p) >= 2], computed as the exact term sum."""
    return sum(comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(2, n + 1))


def _at_least_one(j: int, p: float) -> float:
    """1 - (1-p)^j without cancellation for tiny p."""
    return -expm1(j * log1p(-p))


@dataclass(frozen=True)
class NoOutputBound:
    """Empty-return probability split into its three constituent events.

    term_all_lost:      every copy overwritten, none matches the checksum.
    term_matched_clash: every copy overwritten, two or more matches (upper-
                        bound contribution; the bracket's optional term).
    term_partial:       some copy survives but an overwriting key matches.
    ``total`` is the headline bound (sum of all three); (lower, upper) is the
    bracket once the optional matched-clash term is excluded / included.
    """

    term_all_lost: float
    term_matched_clash: float
    term_partial: float

    @property
    def total(self) -> float:
        return min(1.0, self.term_all_lost + self.term_matched_clash + self.term_partial)

    @property
    def lower(self) -> float:
        return min(1.0, self.term_all_lost + self.term_partial)

    @property
    def upper(self) -> float:
        return self.total


@dataclass(frozen=True)
class WrongOutputBound:
    """Wrong-value probability: headline bound plus its (lower, upper) bracket."""

    bound: float
    lower: float
    upper: float


def _no_output_terms(n: int, alpha: float, match_prob: float,
                     exact_m: Optional[int]) -> NoOutputBound:
    p = overwrite_prob(alpha, n, exact_m)
    all_lost = p**n * (1 - match_prob) ** n
    matched_clash = p**n * _binom_tail_ge2(n, match_prob)
    partial = sum(
        comb(n, j) * p**j * exp(-alpha * n * (n - j)) * _at_least_one(j, match_prob)
        for j in range(1, n)
    )
    return NoOutputBound(all_lost, matched_clash, partial)


def _wrong_output_terms(n: int, alpha: float, match_prob: float,
                        exact_m: Optional[int]) -> WrongOutputBound:
    p = overwrite_prob(alpha, n, exact_m)
    headline = p**n * n * match_prob
    lower = p**n * n * match_prob * (1 - match_prob) ** (n - 1)
    upper = p**n * _at_least_one(n, match_prob)
    return WrongOutputBound(min(1.0, headline), min(1.0, lower), min(1.0, upper))


def kw_no_output_bound(m: KwModel, exact_m: Optional[int] = None) -> NoOutputBound:
    """Empty-return probability of a key-value query under load alpha."""
    return _no_output_terms(m.redundancy, m.alpha, 2.0 ** -m.checksum_bits, exact_m)


def kw_wrong_output_bound(m: KwModel, exact_m: Optional[int] = None) -> WrongOutputBound:
    """Wrong-value probability of a key-value query under load alpha."""
    return _wrong_output_terms(m.redundancy, m.alpha, 2.0 ** -m.checksum_bits, exact_m)


def kw_multi_entry_wrong_bound(m: KwModel, entries: int,
                               exact_m: Optional[int] = None) -> float:
    """Chance at least one of ``entries`` independent key-value lookups is wrong.

    Used to compare a chunked postcard store against storing each hop as its
    own key-value entry.
    """
    per_entry = kw_wrong_output_bound(m, exact_m).bound
    return _at_least_one(entries, per_entry)


def pc_valid_decode_prob(m: PcModel) -> float:
    """Chance an unrelated chunk decodes as valid for the queried flow.

    Each of the B cells must independently land in the decode table of size
    |V|+1; evaluated in log space because the product underflows quickly.
    """
    per_cell = (2.0 ** m.value_bits + 1.0) * 2.0 ** -m.checksum_bits
    if per_cell >= 1.0:
        return 1.0
    log_q = m.hops * log(per_cell)
    return exp(log_q) if log_q > -745.0 else 0.0


def pc_fail_bound(m: PcModel) -> NoOutputBound:
    """Failure-to-report probability of a postcard chunk query."""
    return _no_output_terms(m.redundancy, m.alpha, pc_valid_decode_prob(m), None)


def pc_wrong_bound(m: PcModel) -> float:
    """Wrong-path probability of a postcard chunk query."""
    p = overwrite_prob(m.alpha, m.redundancy)
    return min(1.0, p**m.redundancy * m.redundancy * pc_valid_decode_prob(m))


def bounds(model, exact_m: Optional[int] = None) -> dict:
    """No-output and wrong-output probabilities with brackets; ``exact_m`` is for a KwModel."""
    if isinstance(model, PcModel):
        if exact_m is not None:
            raise ValueError("exact_m: the Postcarding model has no finite-M variant")
        fail = pc_fail_bound(model)
        return {"no_output": fail.total, "no_output_lo": fail.lower,
                "no_output_hi": fail.upper, "wrong_output": pc_wrong_bound(model)}
    no_out = kw_no_output_bound(model, exact_m)
    wrong = kw_wrong_output_bound(model, exact_m)
    return {"no_output": no_out.total, "no_output_lo": no_out.lower,
            "no_output_hi": no_out.upper, "wrong_output": wrong.bound,
            "wrong_output_lo": wrong.lower, "wrong_output_hi": wrong.upper}
