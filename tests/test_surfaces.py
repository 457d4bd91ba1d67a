import math

import pytest
from hypothesis import given, settings, strategies as st

from hypcollar import surfaces as sf


def test_log_affine_terms():
    spec = sf.log_affine(a=2.0, b=0.5, c=1.0, n0=1.0, n1=2.0)
    want = 2.0 * math.log(8.0) + 0.5 * math.log(math.log(9.0)) + 1.0
    assert spec.term(7) == pytest.approx(want, rel=1e-15)
    assert not spec.is_bounded
    assert sf.log_affine(c=3.0).is_bounded


def test_log_affine_multiple_log_terms():
    spec = sf.LogAffine(log_terms=((1.0, 1.0), (2.0, 0.0)))
    assert spec.term(5) == pytest.approx(math.log(6.0) + 2.0 * math.log(5.0))
    assert spec.log_coef_sum == 3.0


def test_alternating_and_prefix():
    alt = sf.AlternatingLogAffine(
        even=sf.LogAffine(log_terms=((1.0, 1.0), (2.0, 0.0))),
        odd=sf.LogAffine(log_terms=((3.0, 1.0),)),
    )
    seq = sf.ExplicitPrefixThenTail(values=(0.7,), tail=alt)
    assert seq.term(1) == 0.7
    assert seq.term(4) == pytest.approx(math.log(3.0) + 2.0 * math.log(2.0))
    assert seq.term(5) == pytest.approx(3.0 * math.log(3.0))
    with pytest.raises(sf.SpecError):
        alt.term(1)


def test_scaled_power_decay():
    spec = sf.ScaledPowerDecay(coef=1.0, base=2.0)
    assert spec.term(3) == pytest.approx(3.0 / 8.0)
    assert spec.is_bounded
    with pytest.raises(sf.SpecError):
        sf.ScaledPowerDecay(coef=1.0, base=0.5)


def test_validate_lengths_rejects_nonpositive():
    with pytest.raises(sf.SpecError):
        sf.validate_lengths(sf.Linear(slope=-1.0, intercept=5.0))
    with pytest.raises(sf.SpecError):
        sf.validate_lengths(sf.Constant(0.0))
    assert sf.validate_lengths(sf.Constant(2.0))


@pytest.mark.parametrize("spec", [
    # positive on the first 64 terms, negative far out
    sf.log_affine(a=-1.0, c=10.0),
    sf.Linear(slope=-1.0, intercept=100.0),
    sf.LogAffine(log_terms=((1.0, 1.0), (-1.0, 0.0)), loglog_coef=-0.1, const=5.0),
    sf.ExplicitPrefixThenTail(values=(1.0,), tail=sf.Linear(slope=-0.5, intercept=80.0)),
    sf.ExplicitPrefixThenTail(values=(1.0,), tail=sf.AlternatingLogAffine(
        even=sf.log_affine(a=1.0, n0=1.0), odd=sf.log_affine(a=-1.0, c=20.0))),
])
def test_validate_lengths_reads_the_shape(spec):
    with pytest.raises(sf.SpecError):
        sf.validate_lengths(spec)
    with pytest.raises(sf.SpecError):
        sf.FluteSpec(lengths=spec)


def test_validate_lengths_accepts_nonnegative_leading_coefficients():
    for spec in (
        sf.Linear(slope=0.0, intercept=1.0),
        sf.log_affine(a=1.0, b=-1.0, c=1.0, n1=2.0),
        sf.log_affine(b=1.0, c=-0.5, n1=20.0),
    ):
        assert sf.validate_lengths(spec)


def test_sigma_identity_exact():
    lengths = sf.log_affine(a=3.0, c=0.5, n0=1.0)
    sigma = sf.sigma_sequence(lengths, 1000)
    terms = sf.sequence_terms(lengths, 1000)
    assert sigma[0] == terms[0]
    for n in range(1, 1000):
        assert abs(sigma[n] + sigma[n - 1] - terms[n]) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=10.0),
    c=st.floats(min_value=0.1, max_value=5.0),
)
def test_sigma_identity_property(a, c):
    lengths = sf.log_affine(a=a, c=c, n0=1.0)
    sigma = sf.sigma_sequence(lengths, 300)
    terms = sf.sequence_terms(lengths, 300)
    assert all(
        abs(sigma[n] + sigma[n - 1] - terms[n]) < 1e-12 for n in range(1, 300)
    )


def test_is_concave_verdicts():
    assert sf.is_concave(sf.Constant(2.0)).proven
    assert sf.is_concave(sf.log_affine(a=4.0, b=1.0, c=0.1, n0=1.0)).proven
    # interleaved two-branch sequences are not concave in general
    alt = sf.ExplicitPrefixThenTail(
        values=(1.0,),
        tail=sf.AlternatingLogAffine(
            even=sf.LogAffine(log_terms=((3.0, 1.0), (1.0, 0.0))),
            odd=sf.LogAffine(log_terms=((4.0, 1.0),)),
        ),
    )
    v = sf.is_concave(alt)
    assert v.kind == "no" and v.witness is not None
    # window-only verdicts are not proofs
    tail_ok = sf.ExplicitPrefixThenTail(values=(1.0, 2.0), tail=sf.log_affine(a=1.0, c=1.0))
    assert sf.is_concave(tail_ok).kind in ("yes-on-window", "no")


def test_flute_spec_validates_twists():
    sf.FluteSpec(lengths=sf.Constant(1.0), twists=sf.Constant(0.5))
    with pytest.raises(ValueError):
        sf.FluteSpec(lengths=sf.Constant(1.0), twists=sf.Constant(0.7))


def test_cover_validation():
    with pytest.raises(sf.SpecError):
        sf.AbelianCover(rank=0, L=sf.Constant(1.0))
    with pytest.raises(sf.SpecError):
        sf.AbelianCover(rank=2, config="nonsense", L=sf.Constant(1.0))
    with pytest.raises(sf.SpecError):
        sf.AbelianCover(rank=2, config="intersecting-pair")
    with pytest.raises(sf.SpecError):
        sf.AbelianCover(rank=1)
