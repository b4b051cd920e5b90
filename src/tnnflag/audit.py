"""Decomposition-level verification and machine-readable reports.

Two audits: one over the cell decomposition (census, totally nonnegative
sampling through subwords of w_0, chart round trips) and one over the
semigroup of lower unitriangular matrices with nonnegative minors, which
serves as a classical cross-oracle for the chart-based classifier.  Both
are deterministic under a fixed seed; every sampling task derives its own
RNG stream from (seed, task label), so results are independent of the
order in which tasks run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field

from . import flag, linalg, richardson, weyl
from .errors import NotTNN, RankTooLarge
from .flag import borel_from
from .linalg import Mat, Rat, bruhat_cell, mat_mul, y_product
from .weyl import Perm


@dataclass
class AuditReport:
    n: int
    seed: int
    cell_census: list = field(default_factory=list)   # [(w_str, wp_str, dim)]
    samples_total: int = 0
    samples_passed: int = 0
    failures: list = field(default_factory=list)

    def record(self, ok: bool, failure: dict | None = None) -> None:
        self.samples_total += 1
        if ok:
            self.samples_passed += 1
        else:
            self.failures.append(failure)

    def to_json(self) -> dict:
        return asdict(self)


def _stream(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _rand_pos_rat(rng: random.Random) -> "Rat":
    """Positive rational with numerator and denominator in 1..10."""
    return Rat(rng.randint(1, 10), rng.randint(1, 10))


def sample_tnn_flag(n: int, rng: random.Random, subset_mask: int) -> flag.BorelPt:
    """A flag u * B^+ with u a positive y-product along a subword of w_0.

    ``subset_mask`` selects letters of the fixed canonical reduced word of
    w_0; the full mask samples the open positive part, proper subwords the
    boundary strata R_{w, w_0}.
    """
    letters = mask_letters(n, subset_mask)
    params = [_rand_pos_rat(rng) for _ in letters]
    return borel_from(y_product(n, letters, params))


def mask_letters(n: int, subset_mask: int) -> list[int]:
    word = weyl.reduced_word(weyl.longest_element(n))
    return [i for k, i in enumerate(word) if subset_mask >> k & 1]


def is_tnn_lower(u: Mat) -> bool:
    """All square minors nonnegative: the signs of the one integer table of
    u (``linalg.integer_minors``), read level by level up to a negative;
    RankTooLarge above the rank bound, before any level is built."""
    _, levels = linalg.integer_minors(u)
    return all(min(level.values()) >= 0 for level in levels)


def semigroup_cell_of(u: Mat) -> Perm:
    """The w indexing the cell of the TNN semigroup that u belongs to."""
    n = len(u)
    if not linalg.is_lower_triangular(u) or any(u[i][i] != 1 for i in range(n)):
        raise NotTNN("matrix is not lower unitriangular")
    if not is_tnn_lower(u):
        raise NotTNN("negative minor found")
    return bruhat_cell(u)


def _in_semigroup_cell(u: Mat, w: Perm) -> bool:
    """Whether u has nonnegative minors and lies in the semigroup cell of w."""
    try:
        return semigroup_cell_of(u) == w
    except NotTNN:
        return False


# 0.065-0.1 s a sample at n = 4, so the bound is over ten minutes of sampling
MAX_SAMPLES = 10_000


def _check_arguments(n: int, samples: int) -> None:
    """The checks both audits make first, before their own rank bounds."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")


def audit_decomposition(n: int, samples: int, seed: int) -> AuditReport:
    """Census plus sampling audit of the cell decomposition."""
    _check_arguments(n, samples)
    if n > 4:
        raise RankTooLarge(f"n={n} exceeds the audit rank bound")
    report = AuditReport(n=n, seed=seed)
    w0 = weyl.longest_element(n)

    for w, wp in weyl.bruhat_pairs(n):
        chart = richardson.build_chart(w, wp)
        expected = weyl.length(wp) - weyl.length(w)
        report.cell_census.append(
            [weyl.perm_to_str(w), weyl.perm_to_str(wp), chart.dim]
        )
        report.record(chart.dim == expected, {
            "kind": "census_dim", **chart.index.to_json(), "dim": chart.dim,
            "expected": expected,
        } if chart.dim != expected else None)

    word_len = weyl.length(w0)
    for mask in range(1 << word_len):
        rng = _stream(seed, f"mask:{mask}")
        v = weyl.demazure_product(n, mask_letters(n, mask))
        expected_idx = flag.CellIndex(weyl.multiply(w0, v), w0)
        for _ in range(samples):
            b = sample_tnn_flag(n, rng, mask)
            result = richardson.classify(b)
            ok = (
                result.nonneg
                and result.index == expected_idx
                and all(c > 0 for c in result.coords)
            )
            report.record(ok, None if ok else {
                "kind": "tnn_sample", "mask": mask,
                "borel_rep": linalg.mat_to_json(b.rep),
                "got": result.to_json(),
                "expected_w": weyl.perm_to_str(expected_idx.w),
                "expected_wp": weyl.perm_to_str(expected_idx.wp),
            })

    for w, wp in weyl.bruhat_pairs(n):
        rng = _stream(seed, f"roundtrip:{weyl.perm_to_str(w)}:{weyl.perm_to_str(wp)}")
        chart = richardson.build_chart(w, wp)
        params = tuple(_rand_pos_rat(rng) for _ in range(chart.dim))
        b = richardson.eval_chart(chart, params)
        ok = richardson.invert_chart(chart, b) == params
        report.record(ok, None if ok else {
            "kind": "roundtrip", **chart.index.to_json(),
            "params": [str(p) for p in params],
        })
    return report


def audit_semigroup(n: int, samples: int, seed: int) -> AuditReport:
    """Minor-nonnegativity and cell-recovery audit of the TNN semigroup."""
    _check_arguments(n, samples)
    if n > 5:
        raise RankTooLarge(f"semigroup audit supports n <= 5, got n={n}")
    report = AuditReport(n=n, seed=seed)
    w0 = weyl.longest_element(n)

    for w in weyl.all_perms(n):
        words = list(itertools.islice(weyl.all_reduced_words(w), 2))
        for widx, word in enumerate(words):
            rng = _stream(seed, f"cell:{weyl.perm_to_str(w)}:{widx}")
            for _ in range(samples):
                u = y_product(n, word, [_rand_pos_rat(rng) for _ in word])
                ok = _in_semigroup_cell(u, w)
                report.record(ok, None if ok else {
                    "kind": "semigroup_cell", "w": weyl.perm_to_str(w),
                    "word": list(word), "matrix": linalg.mat_to_json(u),
                })

    word0 = weyl.reduced_word(w0)
    rng = _stream(seed, "closure")
    for _ in range(samples):
        u1 = y_product(n, word0, [_rand_pos_rat(rng) for _ in word0])
        u2 = y_product(n, word0, [_rand_pos_rat(rng) for _ in word0])
        prod = mat_mul(u1, u2)
        ok = _in_semigroup_cell(prod, w0)
        report.record(ok, None if ok else {
            "kind": "closure", "matrix": linalg.mat_to_json(prod),
        })
    return report
