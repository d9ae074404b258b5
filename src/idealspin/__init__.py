"""Exact-arithmetic spins of prime ideals in explicit totally real cyclic
fields, with the supporting symbol, unit-domain, sieve-decomposition,
character-scan, and Selmer-prediction machinery."""

from .fields import (
    FieldContext,
    FieldElement,
    apply_automorphism,
    construct_field,
    find_root_in_field,
)
from .ideals import (
    IdealFactorization,
    PrimeIdealData,
    enumerate_ideals,
    enumerate_prime_ideals,
    find_generator,
    factor_element,
    mangoldt,
    moebius,
    residue_of,
    split_prime,
    tau,
)
from .logcomb import LogCombination
from .spin import SpinRecord, collect_spin_records, spin, spin_prime_stream, spin_record
from .symbols import (
    bracket_symbol,
    completed_symbol,
    complete_sum_check,
    dirichlet_char,
    mu_and_mu2,
    mu_infty,
    residue_symbol,
)
from .units import (
    FundamentalDomain,
    build_domain,
    count_in_domain,
    domain_contains,
    find_contracting_unit,
    make_totally_positive,
    reduce_to_domain,
    verify_unit_plus_square,
)

__version__ = "0.1.0"
