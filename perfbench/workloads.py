"""The benchmark's four workloads, as fixed lists of exact operations.

Every op calls svlie's public functions and returns a JSON-comparable
value that is checked against the pin in ``refs.json``.  The parameter
grids are pinned here, not read from the program, because the references
are pinned per grid point.  The seed only shuffles the order of the blocks
(see ``build``) and draws the random literals of the ``identities``
workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import svlie

HALF = Fraction(1, 2)

# The nine (s, lambda) rows of the degree-zero algebra table (criterion 5).
CASE_ROWS9 = (
    (HALF, Fraction(0)),
    (HALF, Fraction(-1)),
    (HALF, Fraction(-2)),
    (HALF, Fraction(3)),
    (Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(-1)),
    (Fraction(0), Fraction(-2)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(5)),
)
# The eight case-table rows (criteria 6 and 7): the nine minus (1/2, 0).
CASE_ROWS8 = CASE_ROWS9[1:]
JACOBI_ROWS = CASE_ROWS8 + ((Fraction(0), Fraction(-5, 3)),)
COJACOBI_ROWS = ((HALF, Fraction(-1)), (Fraction(0), Fraction(5)))
SWEEP_LAMBDAS = tuple(Fraction(k, 4) for k in range(-16, 17))

TARGETS = ("algebra", "tensor-square")
WITT_R = "1 * L[0] (x) L[1] - 1 * L[1] (x) L[0]"
NEG_R = "1 * L[-1] (x) L[2] - 1 * L[2] (x) L[-1]"

H1_WINDOWS = (8, 12)
H1_NONZERO_WINDOW = 8
H1_NONZERO_DEGREES = (Fraction(-1, 2), HALF, Fraction(-2), Fraction(2))
SWEEP_WINDOW = 8
KERNEL_WINDOW = 6
# Four center windows put the median op inside the window-12 cluster
# rather than on the gap after it.
CENTER_WINDOWS = (6, 8, 12, 16)
JACOBI_WINDOW = 12
COJACOBI_WINDOW = 16
MYBE_WINDOW = 10
DERIVATION_WINDOW = 12
ROUND_TRIP_BATCHES = 40
ROUND_TRIP_BATCH = 100

REFS_PATH = Path(__file__).with_name("refs.json")


@dataclass(frozen=True)
class Op:
    """One closed-loop call; ``run`` returns the value compared to the pin."""

    id: str
    run: Callable[[], object]


def _params(s: Fraction, lam: Fraction, central: bool):
    return svlie.AlgebraParams(s, lam, central)


def _tag(s: Fraction, lam: Fraction, central: bool) -> str:
    return f"s={s} lam={lam} {'central' if central else 'centerless'}"


def _h1_op(s, lam, central, target, degree, window) -> Op:
    def run():
        rep = svlie.solve_h1(
            _params(s, lam, central), target, degree, svlie.Window.symmetric(window)
        )
        return rep.dim_h1

    return Op(f"h1 {_tag(s, lam, central)} {target} deg={degree} w={window}", run)


def h1_cases(rng: random.Random) -> list[list[Op]]:
    blocks = []
    for s, lam in CASE_ROWS9:
        for central in (True, False):
            block = [
                _h1_op(s, lam, central, target, Fraction(0), window)
                for target in TARGETS
                for window in H1_WINDOWS
            ]
            if central and (s, lam) in CASE_ROWS8:
                block += [
                    _h1_op(s, lam, True, target, degree, H1_NONZERO_WINDOW)
                    for degree in H1_NONZERO_DEGREES
                    for target in TARGETS
                ]
            blocks.append(block)
    return blocks


def lambda_sweep(rng: random.Random) -> list[list[Op]]:
    # Tensor solves only on the half-integer lambdas: 66 algebra and 34
    # tensor solves put the median op inside the algebra cluster.  With
    # equal counts it would sit on the gap between the two clusters and
    # jump between runs.
    return [
        [
            _h1_op(s, lam, True, target, Fraction(0), SWEEP_WINDOW)
            for target in TARGETS
            if target == "algebra" or (2 * lam).denominator == 1
        ]
        for s in (Fraction(0), HALF)
        for lam in SWEEP_LAMBDAS
    ]


def _invariants_op(s, lam, central, n) -> Op:
    def run():
        w = svlie.Window.symmetric(KERNEL_WINDOW)
        rep = svlie.verify_invariants_are_central(_params(s, lam, central), n, w)
        d = rep.details
        return [rep.ok, d["kernel_dim"], d["center_product_dim"]]

    return Op(f"invariants n={n} {_tag(s, lam, central)} w={KERNEL_WINDOW}", run)


def _skew_op(s, lam, central) -> Op:
    def run():
        w = svlie.Window.symmetric(KERNEL_WINDOW)
        rep = svlie.verify_skew_image_lemma(_params(s, lam, central), w)
        # space_dim is the raw window kernel, which grows with the window,
        # so only the verdict is pinned
        return rep.ok

    return Op(f"skew-lemma {_tag(s, lam, central)} w={KERNEL_WINDOW}", run)


def _center_op(s, lam, central, window) -> Op:
    def run():
        basis = svlie.center_in_window(_params(s, lam, central), svlie.Window.symmetric(window))
        # the supports, not the vectors: a basis may be rescaled
        return sorted(i.label() for z in basis for i in z.support())

    return Op(f"center {_tag(s, lam, central)} w={window}", run)


def kernels(rng: random.Random) -> list[list[Op]]:
    return [
        [
            _invariants_op(s, lam, central, 1),
            _invariants_op(s, lam, central, 2),
            _skew_op(s, lam, central),
        ]
        + [_center_op(s, lam, central, window) for window in CENTER_WINDOWS]
        for s, lam in CASE_ROWS9
        for central in (True, False)
    ]


def _random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 12))


def _random_index(rng: random.Random, s2: int):
    kind = rng.choice(("L", "M", "Y", "c"))
    if kind == "c":
        return svlie.C
    parity = s2 if kind == "Y" else 0
    return svlie.BasisIndex(kind, 2 * rng.randint(-9, 9) + parity)


def _random_element(rng: random.Random, s2: int):
    return svlie.Element(
        {_random_index(rng, s2): _random_coeff(rng) for _ in range(rng.randint(1, 5))}
    )


def _random_tensor(rng: random.Random, s2: int):
    return svlie.Tensor2(
        {
            (_random_index(rng, s2), _random_index(rng, s2)): _random_coeff(rng)
            for _ in range(rng.randint(1, 4))
        }
    )


def _jacobi_op(s, lam, central) -> Op:
    def run():
        rep = svlie.check_jacobi(_params(s, lam, central), svlie.Window.symmetric(JACOBI_WINDOW))
        return [rep.ok, rep.checked]

    return Op(f"jacobi {_tag(s, lam, central)} w={JACOBI_WINDOW}", run)


def _cojacobi_op(s, lam, r_name, r_text, kind) -> Op:
    def run():
        p = _params(s, lam, True)
        r = svlie.parse_tensor2(r_text)
        gens = svlie.Window.symmetric(COJACOBI_WINDOW).basis_indices(p)
        return [
            svlie.check_cojacobi_identity(r, svlie.Element.basis(g), p)
            for g in gens
            if g.kind == kind
        ]

    tag = _tag(s, lam, True)
    return Op(f"cojacobi {r_name} {kind}-generators {tag} w={COJACOBI_WINDOW}", run)


def _mybe_op(s, lam, r_name, r_text) -> Op:
    def run():
        p = _params(s, lam, True)
        r = svlie.parse_tensor2(r_text)
        return svlie.check_mybe(r, p, svlie.Window.symmetric(MYBE_WINDOW))

    return Op(f"mybe {r_name} {_tag(s, lam, True)} w={MYBE_WINDOW}", run)


def _derivation_op(s, lam, central, target) -> Op:
    def run():
        p = _params(s, lam, central)
        w = svlie.Window.symmetric(DERIVATION_WINDOW)
        out = []
        for table in svlie.catalog_basis(p, target, w):
            rep = svlie.is_derivation(table, p)
            out.append([rep.ok, rep.checked])
        return out

    tag = _tag(s, lam, central)
    return Op(f"is_derivation catalog {tag} {target} w={DERIVATION_WINDOW}", run)


def _round_trip_op(batch: int, values: list) -> Op:
    def run():
        bad = 0
        for el, tn in values:
            if svlie.parse_element(str(el)) != el:
                bad += 1
            if svlie.parse_tensor2(str(tn)) != tn or svlie.parse_tensor2(tn.file_lines()) != tn:
                bad += 1
        return bad

    return Op(f"round-trip batch {batch}", run)


def identities(rng: random.Random) -> list[list[Op]]:
    blocks = []
    for s, lam in CASE_ROWS9 + JACOBI_ROWS[len(CASE_ROWS8) :]:
        for central in (True, False):
            block = []
            if (s, lam) in JACOBI_ROWS:
                block.append(_jacobi_op(s, lam, central))
            if central and (s, lam) in COJACOBI_ROWS:
                for r_name, r_text in (("r", WITT_R), ("r'", NEG_R)):
                    block += [_cojacobi_op(s, lam, r_name, r_text, kind) for kind in "LMY"]
                    block.append(_mybe_op(s, lam, r_name, r_text))
            if (s, lam) in CASE_ROWS9:
                block.append(_derivation_op(s, lam, central, "algebra"))
                if (s, lam) != (HALF, Fraction(0)):  # no tensor catalog for this row yet
                    block.append(_derivation_op(s, lam, central, "tensor-square"))
            blocks.append(block)
    for batch in range(ROUND_TRIP_BATCHES):
        values = [
            (_random_element(rng, k % 2), _random_tensor(rng, k % 2))
            for k in range(ROUND_TRIP_BATCH)
        ]
        blocks.append([_round_trip_op(batch, values)])
    return blocks


WORKLOADS = {
    "h1-cases": h1_cases,
    "lambda-sweep": lambda_sweep,
    "kernels": kernels,
    "identities": identities,
}


def build(name: str, seed: int) -> list[Op]:
    """The workload's ops in the seed's order.

    Ops that share algebra parameters form a block in a fixed order, and
    the seed shuffles the blocks.  Which op pays the cold bracket-cache
    lookups for a parameter set is then the same for every seed, so the
    seed moves the op order without moving the latency distribution.
    """
    rng = random.Random(seed)
    blocks = WORKLOADS[name](rng)
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


def load_refs() -> dict[str, object]:
    with open(REFS_PATH) as fh:
        return json.load(fh)
