"""2-Selmer dimension predictions for quadratic twists from prime spins.

The predictor applies the dimension formula: for a qualifying prime p
(splits completely in the 2-torsion field, some prime above it has a
totally positive generator = 1 mod 8) the twisted curve's 2-Selmer rank is
base+2 exactly when the spin is +1.  No 2-descent is performed; the export
format is designed so predictions can be diffed against an external descent
computation.
"""

from dataclasses import dataclass
from math import isqrt

from .arith import factorint, sieve_primes
from .errors import GeneratorNotFound, HypothesisViolated
from .fields import FieldContext, FieldElement, construct_field, find_root_in_field, poly_discriminant
from .ideals import prime_ideals_in_norm_range
from .spin import spin_record
from .units import FundamentalDomain, square_multiplier


@dataclass(frozen=True)
class CurveConfig:
    cubic: tuple[int, int, int, int]   # monic, y^2 = f(x), low-first coeffs
    conductor: int
    base_selmer_dim: int
    ctx: FieldContext                  # asserted splitting field of the cubic
    sigma_primes: tuple[int, ...]      # bad-and-unramified primes plus 2
    two_torsion_root: FieldElement     # certified root of the cubic in ctx
    conditional: bool                  # True when the Q(E[4]) hypothesis is
                                       # user-asserted rather than discharged


@dataclass(frozen=True)
class TwistCandidate:
    p: int
    splits_completely_in_K: bool
    tp_generator_1_mod_8: bool
    spin: int | None
    predicted_dim: int | None
    failure_reason: str | None = None

    @property
    def qualified(self) -> bool:
        return self.splits_completely_in_K and self.tp_generator_1_mod_8


def _verify_field_link(ctx, cubic) -> FieldElement:
    for r in {1, -1, cubic[0], -cubic[0]}:
        if sum(c * r**i for i, c in enumerate(cubic)) == 0:
            raise ValueError("two-division cubic is reducible")
    disc = poly_discriminant(cubic)
    if disc < 1 or isqrt(disc) ** 2 != disc:
        raise ValueError("two-division cubic discriminant is not a square")
    root = find_root_in_field(ctx, cubic)
    if root is None:
        raise ValueError("two-division cubic has no root in the configured field")
    return root


def curve_784() -> CurveConfig:
    """The conductor-784 example: y^2 = x^3 + x^2 - 16x - 29, 2-torsion
    field the degree-3 field of the m=1 simplest cubic, base dim 1.

    Bad primes are 2 and 7; only 2 is unramified in the field, so the local
    square condition set is {2}, and the mod-8 generator condition
    discharges the remaining hypothesis unconditionally."""
    ctx = construct_field("shanks_cubic", 1)
    cubic = (-29, -16, 1, 1)
    root = _verify_field_link(ctx, cubic)
    return CurveConfig(
        cubic=cubic,
        conductor=784,
        base_selmer_dim=1,
        ctx=ctx,
        sigma_primes=(2,),
        two_torsion_root=root,
        conditional=False,
    )


def custom_curve(cubic, conductor, base_selmer_dim, ctx,
                 ray_class_hypothesis_verified: bool = False) -> CurveConfig:
    """Arbitrary curve with square-discriminant 2-division cubic; the
    Q(E[4]) splitting hypothesis must be supplied by the caller, otherwise
    predictions are marked conditional."""
    root = _verify_field_link(ctx, tuple(cubic))
    bad = tuple(sorted(set(factorint(conductor)) | {2}))
    unram = tuple(p for p in bad if ctx.disc_field % p != 0 or p == 2)
    return CurveConfig(tuple(cubic), conductor, base_selmer_dim, ctx, unram,
                       root, conditional=not ray_class_hypothesis_verified)


def predict_selmer_dim(cfg: CurveConfig, candidate: TwistCandidate) -> int:
    """base + 2 when the spin is +1, base when it is -1; hypotheses must
    all hold."""
    if not candidate.qualified:
        raise HypothesisViolated("candidate does not satisfy the spin criterion")
    if candidate.spin not in (-1, 1):
        raise HypothesisViolated("spin must be +-1 (ramified primes excluded)")
    return cfg.base_selmer_dim + (2 if candidate.spin == 1 else 0)


def scan_twist_candidates(cfg: CurveConfig, dom: FundamentalDomain, X: int,
                          include_disqualified: bool = False, lo: int = 1):
    """TwistCandidates for rational primes lo <= p <= X of good reduction.

    The spin is computed for every prime above p and checked to be
    independent of the choice; GeneratorNotFound is surfaced per prime."""
    ctx = cfg.ctx
    one_mod_8 = ((8, ctx.coords_mod(ctx.one, 8)),)
    above: dict[int, list] = {}
    for pr in prime_ideals_in_norm_range(ctx, lo, X, degree_one_only=True):
        above.setdefault(pr.p, []).append(pr)
    for p in sieve_primes(X, lo=lo):
        if cfg.conductor % p == 0:
            continue
        primes = above.get(p, [])
        if len(primes) != ctx.degree:
            if include_disqualified:
                yield TwistCandidate(p, False, False, None, None,
                                     "does_not_split_completely")
            continue
        try:
            recs = [spin_record(ctx, dom, pr) for pr in primes]
        except GeneratorNotFound:
            yield TwistCandidate(p, True, False, None, None, "generator_not_found")
            continue
        spins = {r.spins[0] for r in recs}
        if len(spins) != 1:
            raise ArithmeticError(
                f"spin depends on the prime above {p}"
            )  # pragma: no cover - would falsify Galois invariance
        if square_multiplier(ctx, one_mod_8, recs[0].generator) is None:
            if include_disqualified:
                yield TwistCandidate(p, True, False, None, None,
                                     "no_generator_1_mod_8")
            continue
        spin = spins.pop()
        cand = TwistCandidate(p, True, True, spin, None)
        dim = predict_selmer_dim(cfg, cand)
        yield TwistCandidate(p, True, True, spin, dim)
