import pytest

from idealspin.errors import HypothesisViolated
from idealspin.fields import construct_field
from idealspin.selmer import (
    TwistCandidate,
    curve_784,
    custom_curve,
    predict_selmer_dim,
    scan_twist_candidates,
)
from idealspin.units import build_domain


@pytest.fixture(scope="module")
def cfg():
    return curve_784()


@pytest.fixture(scope="module")
def dom(cfg):
    return build_domain(cfg.ctx)


def test_field_link(cfg):
    r = cfg.two_torsion_root
    assert (r**3 + r**2 - 16 * r - 29).is_zero()
    assert cfg.conductor == 784
    assert cfg.base_selmer_dim == 1
    assert cfg.sigma_primes == (2,)
    assert not cfg.conditional


def test_field_link_rejects_wrong_field():
    quad = construct_field("real_quadratic", 5)
    with pytest.raises(ValueError):
        custom_curve((-29, -16, 1, 1), 784, 1, quad)


def test_field_link_large_discriminant_fails_fast(cfg):
    # disc ~ 1e24 is a square; the field has no root of this cubic
    with pytest.raises(ValueError, match="no root in the configured field"):
        custom_curve((-1, 10**6 - 3, 10**6, 1), 784, 1, cfg.ctx)


def test_splitting_criterion(cfg, dom):
    cands = {c.p: c for c in scan_twist_candidates(cfg, dom, 60,
                                                   include_disqualified=True)}
    # p = +-1 mod 7 splits completely
    for p, c in cands.items():
        assert c.splits_completely_in_K == (p % 7 in (1, 6))
    assert not cands[3].splits_completely_in_K
    assert cands[13].splits_completely_in_K


def test_predictions(cfg, dom):
    qual = [c for c in scan_twist_candidates(cfg, dom, 5000) if c.qualified]
    assert qual
    for c in qual:
        assert c.spin in (-1, 1)
        assert (c.predicted_dim == 3) == (c.spin == 1)
        assert (c.predicted_dim == 1) == (c.spin == -1)


def test_predict_dim_directly(cfg):
    c = TwistCandidate(113, True, True, 1, None)
    assert predict_selmer_dim(cfg, c) == 3
    c = TwistCandidate(113, True, True, -1, None)
    assert predict_selmer_dim(cfg, c) == 1
    with pytest.raises(HypothesisViolated):
        predict_selmer_dim(cfg, TwistCandidate(113, True, True, 0, None))
    with pytest.raises(HypothesisViolated):
        predict_selmer_dim(cfg, TwistCandidate(3, False, False, 1, None))


def test_custom_curve_conditional(cfg):
    ctx = cfg.ctx
    c2 = custom_curve((-29, -16, 1, 1), 784, 1, ctx)
    assert c2.conditional
    c3 = custom_curve((-29, -16, 1, 1), 784, 1, ctx,
                      ray_class_hypothesis_verified=True)
    assert not c3.conditional
