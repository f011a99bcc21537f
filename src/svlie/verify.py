"""The full verification suite behind ``svlie verify-paper``.

Each criterion is an independent job returning a result with one
pass/fail line; the driver runs them in order and aggregates the exit
status.  Window sizes are pinned where the acceptance contract pins
them; the free ones take the requested base window.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .algebra import (
    AlgebraParams,
    BasisIndex,
    Element,
    Window,
    bracket,
    check_jacobi,
    L,
    M,
    Y,
    C,
)
from .cohomology import (
    CASE_ROWS,
    paper_table_regression,
    solve_h1,
    verify_center_tensor_identity,
    verify_invariants_are_central,
    verify_skew_image_lemma,
)
from .derivations import catalog, catalog_basis, is_derivation
from .literals import parse_element, parse_tensor2
from .tensors import Tensor2, check_cojacobi_identity, check_cybe, ybe_c

HALF = Fraction(1, 2)

JACOBI_CASES = CASE_ROWS + ((Fraction(0), Fraction(-5, 3)),)

H1_ALGEBRA_TABLE = (
    (HALF, Fraction(0), 3),
    (HALF, Fraction(-1), 2),
    (HALF, Fraction(-2), 2),
    (HALF, Fraction(3), 1),
    (Fraction(0), Fraction(0), 3),
    # The published table lists 3.  At lambda = -1, [L[n], Y[0]] = 0 and
    # [Y[0], Y[q]] = q*M[q], so y_to_m_n is ad(Y[0]) up to sign, hence inner,
    # and the exact, certified value is 2 (ideal_scale, l_to_m_n2).
    (Fraction(0), Fraction(-1), 2),
    (Fraction(0), Fraction(-2), 2),
    (Fraction(0), Fraction(1), 2),
    (Fraction(0), Fraction(5), 1),
)


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    details: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] criterion {self.number}: {self.name} ({self.elapsed:.1f}s)"


def _result(
    number: int,
    name: str,
    checks: list[tuple[bool, str]],
    t0: float,
    notes: Sequence[str] = (),
) -> CriterionResult:
    """Failed checks become details, followed by any informational notes."""
    ok = all(c for c, _ in checks)
    details = [msg for good, msg in checks if not good] + list(notes)
    return CriterionResult(number, name, ok, details, time.time() - t0)


def criterion_bracket_table() -> CriterionResult:
    t0 = time.time()
    checks = []
    p = AlgebraParams(HALF, Fraction(-1), True)

    def br(a, b, q=p):
        return bracket(Element.basis(a), Element.basis(b), q)

    cases = [
        (br(L(1), L(-1)), parse_element("-2*L[0]"), "[L1,L-1]"),
        (br(L(2), L(-2)), parse_element("-4*L[0] - 1/2*c"), "[L2,L-2]"),
        (br(Y(HALF), Y(-HALF)), parse_element("-M[0]"), "[Y1/2,Y-1/2]"),
        (br(L(1), M(2)), parse_element("3*M[3]"), "[L1,M2] at lambda=-1"),
    ]
    for got, want, label in cases:
        checks.append((got == want, f"{label}: expected {want}, got {got}"))
    return _result(1, "bracket table hand cases", checks, t0)


def criterion_jacobi(bound: int = 12) -> CriterionResult:
    t0 = time.time()
    checks = []
    w = Window.symmetric(bound)
    for s, lam in JACOBI_CASES:
        for central in (True, False):
            p = AlgebraParams(s, lam, central)
            rep = check_jacobi(p, w)
            checks.append(
                (
                    rep.ok and rep.checked > 0,
                    f"jacobi {p.describe()}: {len(rep.failures)} violations "
                    f"out of {rep.checked} triples",
                )
            )
    return _result(2, "Jacobi identity suite", checks, t0)


def criterion_cybe_cojacobi(bound: int = 8) -> CriterionResult:
    t0 = time.time()
    checks = []
    r = parse_tensor2("1 * L[0] (x) L[1] - 1 * L[1] (x) L[0]")
    r_neg = parse_tensor2("1 * L[-1] (x) L[2] - 1 * L[2] (x) L[-1]")
    for p in (AlgebraParams(HALF, Fraction(-1), True), AlgebraParams(Fraction(0), Fraction(5), True)):
        checks.append((check_cybe(r, p), f"rank-one r fails CYBE under {p.describe()}"))
        checks.append(
            (bool(ybe_c(r_neg, p)), f"negative-control r' has zero obstruction under {p.describe()}")
        )
        w = Window.symmetric(bound)
        for rr, tag in ((r, "r"), (r_neg, "r'")):
            for g in w.basis_indices(p):
                checks.append(
                    (
                        check_cojacobi_identity(rr, Element.basis(g), p),
                        f"co-Jacobi balance broken for {tag} at {g.label()} under {p.describe()}",
                    )
                )
    return _result(3, "CYBE and co-Jacobi balance", checks, t0)


def criterion_derivation_catalog(bound: int = 16) -> CriterionResult:
    t0 = time.time()
    checks = []
    w = Window.symmetric(bound)
    for s, lam in ((HALF, Fraction(0)), (Fraction(0), Fraction(-3))) + CASE_ROWS:
        for central in (True, False):
            p = AlgebraParams(s, lam, central)
            for target in ("algebra", "tensor-square"):
                for table in catalog_basis(p, target, w):
                    rep = is_derivation(table, p)
                    checks.append(
                        (
                            rep.ok and rep.checked > 0,
                            f"catalog {table.name} under {p.describe()} ({target}): "
                            f"{len(rep.violations)} violations",
                        )
                    )
    # mismatched-case controls: a constructor moved off its case row must fail
    controls = [
        (AlgebraParams(Fraction(0), Fraction(-2), True), {"l_to_m_n3": 1}, AlgebraParams(Fraction(0), Fraction(-1), True)),
        (AlgebraParams(HALF, Fraction(-1), True), {"l_to_m_n2_minus_n": 1}, AlgebraParams(HALF, Fraction(3), True)),
        (AlgebraParams(Fraction(0), Fraction(1), True), {"y_to_m_1": 1}, AlgebraParams(Fraction(0), Fraction(5), True)),
    ]
    for own, params, wrong in controls:
        table = catalog(own, "algebra", w, params=params)[0]
        rep = is_derivation(table, wrong)
        checks.append(
            (
                not rep.ok and rep.witness() is not None,
                f"control {sorted(params)} unexpectedly passes under {wrong.describe()}",
            )
        )
    return _result(4, "derivation catalog on its case rows", checks, t0)


def criterion_h1_algebra(windows: Sequence[int] = (12, 16, 20)) -> CriterionResult:
    t0 = time.time()
    checks = []
    for s, lam, expected in H1_ALGEBRA_TABLE:
        p = AlgebraParams(s, lam, True)
        dims = []
        for n in windows:
            rep = solve_h1(p, "algebra", 0, Window.symmetric(n))
            dims.append(rep.dim_h1)
        checks.append(
            (
                set(dims) == {expected},
                f"H1(L,L)_0 {p.describe()}: expected {expected}, got "
                f"{dims} across windows {tuple(windows)}",
            )
        )
    return _result(5, "degree-0 algebra cohomology table", checks, t0)


def criterion_nonzero_degrees(bound: int = 12) -> CriterionResult:
    t0 = time.time()
    checks = []
    w = Window.symmetric(bound)
    for s, lam in CASE_ROWS:
        p = AlgebraParams(s, lam, True)
        for twoalpha in (-4, -3, -2, -1, 1, 2, 3, 4):
            alpha = Fraction(twoalpha, 2)
            for target in ("algebra", "tensor-square"):
                rep = solve_h1(p, target, alpha, w)
                checks.append(
                    (
                        rep.dim_h1 == 0,
                        f"H1 {p.describe()} {target} degree {alpha}: "
                        f"dim {rep.dim_h1} != 0",
                    )
                )
    return _result(6, "nonzero degrees are inner", checks, t0)


def criterion_proposition_table(windows: Sequence[int] = (12, 16, 20)) -> CriterionResult:
    t0 = time.time()
    checks = []
    notes = []
    report = paper_table_regression(windows=windows)
    for row in report.rows:
        p = row.params
        checks.append(
            (
                row.certified and set(row.dims.values()) == {row.independent},
                f"tensor H1 {p.describe()}: {row.independent} independent "
                f"constructors (certified: {row.certified}), solved {row.dims}",
            )
        )
        if row.dependent:
            notes.append(
                f"{p.describe()}: {row.independent} of {row.expected} constructors "
                f"independent modulo inner derivations; dependent: "
                f"{', '.join(row.dependent)}"
            )
        expected_verdict = (
            "triangular coboundary"
            if (not p.central and (p.s, p.lam) != (Fraction(0), Fraction(0)))
            else "not triangular coboundary"
        )
        checks.append(
            (
                row.verdict == expected_verdict,
                f"verdict {p.describe()}: {row.verdict!r} (expected {expected_verdict!r})",
            )
        )
    named = {
        (HALF, Fraction(-1), True): 4,
        (Fraction(0), Fraction(-1), True): 4,
        (Fraction(0), Fraction(0), True): 12,
        (Fraction(0), Fraction(0), False): 6,
    }
    by_key = {(r.params.s, r.params.lam, r.params.central): r for r in report.rows}
    for key, dim in named.items():
        row = by_key[key]
        got = set(row.dims.values())
        checks.append(
            (
                got == {dim},
                f"named case {row.params.describe()}: expected {dim}, got {sorted(got)}",
            )
        )
    for s, lam in CASE_ROWS:
        if (s, lam) == (Fraction(0), Fraction(0)):
            continue
        row = by_key[(s, lam, False)]
        checks.append(
            (
                set(row.dims.values()) == {0},
                f"centerless {row.params.describe()}: expected 0, got {row.dims}",
            )
        )
    return _result(7, "case table and coboundary verdicts", checks, t0, notes)


def criterion_invariants_and_skew(bound: int = 12) -> CriterionResult:
    t0 = time.time()
    checks = []
    rows = (
        AlgebraParams(Fraction(0), Fraction(0), True),
        AlgebraParams(HALF, Fraction(-2), True),
        AlgebraParams(Fraction(0), Fraction(5), False),
    )
    w = Window.symmetric(bound)
    for p in rows:
        for n in (1, 2):
            rep = verify_invariants_are_central(p, n, w)
            checks.append(
                (
                    rep.ok,
                    f"invariants n={n} {p.describe()}: kernel "
                    f"{rep.details['kernel_dim']} vs center products "
                    f"{rep.details['center_product_dim']}",
                )
            )
        rep = verify_skew_image_lemma(p, w)
        checks.append((rep.ok, f"skew-image {p.describe()}: {rep.details['failures']}"))
    return _result(8, "invariant tensors and skew-image decomposition", checks, t0)


def criterion_center_tensor(bound: int = 12) -> CriterionResult:
    t0 = time.time()
    checks = []
    for p in (AlgebraParams(Fraction(0), Fraction(-2), True), AlgebraParams(HALF, Fraction(3), True)):
        rep = verify_center_tensor_identity(p, Window.symmetric(bound))
        checks.append(
            (
                rep.ok,
                f"center-tensor identity {p.describe()}: left "
                f"{rep.details['left_dim']} vs right {rep.details['right_dim']}",
            )
        )
    return _result(9, "center-tensor cohomology identity", checks, t0)


# ---------------------------------------------------------------------------
# Randomized literal round-trip
# ---------------------------------------------------------------------------

def _random_coeff(rng: random.Random) -> Fraction:
    num = rng.randint(-40, 40) or 1
    den = rng.randint(1, 12)
    return Fraction(num, den)


def random_element(rng: random.Random, s2: int = 0, max_terms: int = 5) -> Element:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        kind = rng.choice(("L", "M", "Y", "c"))
        if kind == "c":
            idx = C
        elif kind == "Y":
            idx = BasisIndex("Y", 2 * rng.randint(-9, 9) + (s2 % 2))
        else:
            idx = BasisIndex(kind, 2 * rng.randint(-9, 9))
        terms[idx] = _random_coeff(rng)
    return Element(terms)


def random_tensor(rng: random.Random, s2: int = 0, max_terms: int = 4) -> Tensor2:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        a = random_element(rng, s2, 1).support()[0]
        b = random_element(rng, s2, 1).support()[0]
        terms[(a, b)] = _random_coeff(rng)
    return Tensor2(terms)


def criterion_round_trip(count: int = 1000, seed: int = 20240211) -> CriterionResult:
    t0 = time.time()
    rng = random.Random(seed)
    checks = []
    bad = 0
    for k in range(count):
        s2 = k % 2
        el = random_element(rng, s2)
        if parse_element(str(el)) != el:
            bad += 1
        tn = random_tensor(rng, s2)
        if parse_tensor2(str(tn)) != tn or parse_tensor2(tn.file_lines()) != tn:
            bad += 1
    checks.append((bad == 0, f"{bad} round-trip mismatches out of {count}"))
    return _result(10, f"literal round-trip on {count} random values", checks, t0)


def run_verification(window: int = 16, log: Optional[Callable[[str], None]] = print) -> list[CriterionResult]:
    """Run every criterion; free windows take the requested base window."""
    jobs: list[Callable[[], CriterionResult]] = [
        criterion_bracket_table,
        criterion_jacobi,
        criterion_cybe_cojacobi,
        lambda: criterion_derivation_catalog(16),
        criterion_h1_algebra,
        lambda: criterion_nonzero_degrees(window),
        criterion_proposition_table,
        criterion_invariants_and_skew,
        lambda: criterion_center_tensor(window),
        criterion_round_trip,
    ]
    results = []
    for job in jobs:
        res = job()
        results.append(res)
        if log:
            log(res.line())
            for detail in res.details:
                log(f"    - {detail}")
    return results
