"""Core dataclasses and the closed-form variance/phase relations."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaseqrng.model import (
    BitStream,
    EntropyReport,
    LaserNoiseModel,
    SampleBlock,
    SignalChainConfig,
    VarianceFit,
    attenuated_model,
    phase_difference_variance,
    predicted_variance,
    variance_coefficients,
)

from conftest import (
    AC_REF, AQ_REF, CONV_GAIN, DELAY_TD, F_REF, make_ref_model, pack_bits,
)

finite_pos = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False)


# ---------------------------------------------------------------------------
# phase_difference_variance / predicted_variance
# ---------------------------------------------------------------------------


def test_phase_variance_zero_noise_is_zero():
    m = LaserNoiseModel(quantum_diffusion_q=0.0, classical_diffusion_c=0.0, power_p=1e-3)
    assert phase_difference_variance(m, 540e-12) == 0.0


def test_phase_variance_simple_value():
    # (q/P + c) * td = (1/1 + 1) * 0.25 = 0.5
    m = LaserNoiseModel(quantum_diffusion_q=1.0, classical_diffusion_c=1.0, power_p=1.0)
    assert phase_difference_variance(m, 0.25) == pytest.approx(0.5, rel=1e-15)


def test_phase_variance_rejects_zero_power_with_quantum_noise():
    m = LaserNoiseModel(quantum_diffusion_q=1.0, classical_diffusion_c=0.0, power_p=0.0)
    with pytest.raises(ValueError, match="quantum term undefined at P=0"):
        phase_difference_variance(m, 540e-12)


def test_phase_variance_rejects_negative_delay():
    m = LaserNoiseModel(quantum_diffusion_q=1.0, classical_diffusion_c=0.0, power_p=1.0)
    with pytest.raises(ValueError):
        phase_difference_variance(m, -1e-12)


@given(td=finite_pos, scale=st.floats(min_value=1.5, max_value=1e3))
def test_phase_variance_linear_in_delay(td, scale):
    m = LaserNoiseModel(quantum_diffusion_q=2.0, classical_diffusion_c=3.0, power_p=0.5)
    v1 = phase_difference_variance(m, td)
    v2 = phase_difference_variance(m, td * scale)
    assert v2 == pytest.approx(v1 * scale, rel=1e-9)


@given(p=st.floats(min_value=1e-6, max_value=1e3), scale=st.floats(min_value=1.5, max_value=1e3))
def test_phase_variance_quantum_term_scales_inversely_with_power(p, scale):
    m1 = LaserNoiseModel(quantum_diffusion_q=1.0, classical_diffusion_c=0.0, power_p=p)
    m2 = LaserNoiseModel(quantum_diffusion_q=1.0, classical_diffusion_c=0.0, power_p=p * scale)
    v1 = phase_difference_variance(m1, 1e-10)
    v2 = phase_difference_variance(m2, 1e-10)
    assert v1 == pytest.approx(v2 * scale, rel=1e-9)


def test_predicted_variance_reference_point():
    fit = VarianceFit(ac=AC_REF, aq=AQ_REF, f=F_REF, r_squared=1.0)
    assert predicted_variance(fit, 2.47e-4) == pytest.approx(1.2093541671e-05, rel=1e-12)


def test_predicted_variance_at_zero_power_is_floor():
    fit = VarianceFit(ac=AC_REF, aq=AQ_REF, f=F_REF, r_squared=1.0)
    assert predicted_variance(fit, 0.0) == F_REF


def test_predicted_variance_unit_coefficients():
    fit = VarianceFit(ac=1.0, aq=1.0, f=1.0, r_squared=1.0)
    assert predicted_variance(fit, 1.0) == pytest.approx(3.0, rel=1e-15)


@given(p=st.floats(min_value=0.0, max_value=1.0))
def test_predicted_variance_never_below_floor(p):
    fit = VarianceFit(ac=AC_REF, aq=AQ_REF, f=F_REF, r_squared=1.0)
    assert predicted_variance(fit, p) >= fit.f


# ---------------------------------------------------------------------------
# coefficient mapping between the laser model and the fitted quadratic
# ---------------------------------------------------------------------------


def test_variance_coefficients_roundtrip_reference():
    m = make_ref_model(2.47e-4)
    chain = SignalChainConfig(
        delay_td=DELAY_TD, conversion_gain_a=CONV_GAIN, electronic_noise_f=F_REF
    )
    ac, aq, f = variance_coefficients(m, chain)
    assert ac == pytest.approx(AC_REF, rel=1e-12)
    assert aq == pytest.approx(AQ_REF, rel=1e-12)
    assert f == F_REF


def test_chain_variance_identity_at_reference_point():
    # sensitivity-weighted phase variance times A*P^2 must equal the
    # quadratic-in-power form evaluated at the same power
    p = 2.47e-4
    m = make_ref_model(p)
    var_phase = phase_difference_variance(m, DELAY_TD)
    lhs = CONV_GAIN * p**2 * var_phase + F_REF
    fit = VarianceFit(ac=AC_REF, aq=AQ_REF, f=F_REF, r_squared=1.0)
    assert lhs == pytest.approx(predicted_variance(fit, p), rel=1e-12)


def test_attenuated_model_scales_quantum_term_only():
    m = make_ref_model(2.47e-4)
    att = attenuated_model(m, 2.47e-5)
    assert att.power_p == 2.47e-5
    assert att.quantum_diffusion_q == pytest.approx(0.1 * m.quantum_diffusion_q, rel=1e-12)
    assert att.classical_diffusion_c == m.classical_diffusion_c


def test_attenuated_model_rejects_gain():
    m = make_ref_model(2.47e-4)
    with pytest.raises(ValueError):
        attenuated_model(m, 1.0)  # more power than the source emits


# ---------------------------------------------------------------------------
# dataclass validation
# ---------------------------------------------------------------------------


def test_laser_model_rejects_negative_diffusion():
    with pytest.raises(ValueError):
        LaserNoiseModel(quantum_diffusion_q=-1.0, classical_diffusion_c=0.0, power_p=1e-3)
    with pytest.raises(ValueError):
        LaserNoiseModel(quantum_diffusion_q=0.0, classical_diffusion_c=-1.0, power_p=1e-3)
    with pytest.raises(ValueError):
        LaserNoiseModel(quantum_diffusion_q=0.0, classical_diffusion_c=0.0, power_p=-1e-3)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        SignalChainConfig(delay_td=0.0)
    with pytest.raises(ValueError):
        SignalChainConfig(adc_bits=0)
    with pytest.raises(ValueError):
        SignalChainConfig(adc_bits=17)
    with pytest.raises(ValueError):
        SignalChainConfig(adc_range_sigmas=0.0)
    with pytest.raises(ValueError):
        SignalChainConfig(sample_rate_hz=-1.0)


def test_variance_fit_rejects_r_squared_above_one():
    with pytest.raises(ValueError):
        VarianceFit(ac=1.0, aq=1.0, f=1.0, r_squared=1.5)


def test_entropy_report_budget_invariants():
    rep = EntropyReport(
        qcnr=3.38,
        sigma_sq_total=1.0,
        sigma_sq_quantum=0.77,
        min_entropy_bits=5.8,
        samples_bits=8,
        extraction_ratio=0.70,
    )
    assert rep.extraction_ratio <= rep.min_entropy_bits / rep.samples_bits
    with pytest.raises(ValueError):
        EntropyReport(
            qcnr=3.38,
            sigma_sq_total=1.0,
            sigma_sq_quantum=1.5,  # quantum share cannot exceed the total
            min_entropy_bits=5.8,
            samples_bits=8,
            extraction_ratio=0.70,
        )
    with pytest.raises(ValueError):
        EntropyReport(
            qcnr=3.38,
            sigma_sq_total=1.0,
            sigma_sq_quantum=0.77,
            min_entropy_bits=5.8,
            samples_bits=8,
            extraction_ratio=0.73,  # above H/bits: pays out more than earned
        )
    with pytest.raises(ValueError):
        EntropyReport(
            qcnr=3.38,
            sigma_sq_total=1.0,
            sigma_sq_quantum=0.77,
            min_entropy_bits=9.0,  # more than 8 bits from an 8-bit ADC
            samples_bits=8,
            extraction_ratio=0.70,
        )


# ---------------------------------------------------------------------------
# SampleBlock
# ---------------------------------------------------------------------------


def _block(samples, bits=8, **kw):
    defaults = dict(
        samples=np.asarray(samples, dtype=np.int16),
        adc_bits=bits,
        sample_rate_hz=500e6,
        adc_scale=1e-4,
        origin="simulated",
        rng_seed=1,
    )
    defaults.update(kw)
    return SampleBlock(**defaults)


def test_sample_block_basics():
    b = _block([-128, 0, 127])
    assert len(b) == 3
    assert b.code_range() == (-128, 127)
    assert b.samples.flags.writeable is False
    np.testing.assert_allclose(b.volts(), np.array([-128, 0, 127]) * 1e-4)


def test_sample_block_rejects_out_of_range_codes():
    with pytest.raises(ValueError):
        _block([128])
    with pytest.raises(ValueError):
        _block([-129])


@pytest.mark.parametrize("samples", [[70000, 1], [1.7, -0.2], [np.nan, 0.0], [-np.inf, 0.0]])
def test_sample_block_rejects_values_the_int16_cast_would_change(samples):
    # unchecked, [70000, 1] wrapped to [4464, 1] and [1.7, -0.2] truncated to [1, 0]
    with pytest.raises(ValueError, match="int16"):
        SampleBlock(samples=np.array(samples), adc_bits=16, sample_rate_hz=1.0,
                    adc_scale=1.0)


def test_sample_block_keeps_an_int16_array_and_casts_exact_values():
    given = np.array([-3, 5], dtype=np.int16)
    assert _block(given).samples is given
    assert given.flags.writeable is False
    exact = SampleBlock(samples=[-3.0, 5.0], adc_bits=8, sample_rate_hz=1.0, adc_scale=1.0)
    assert exact.samples.dtype == np.int16
    assert exact.samples.tolist() == [-3, 5]


def test_sample_block_rejects_bad_scale_and_origin():
    with pytest.raises(ValueError):
        _block([0], adc_scale=0.0)
    with pytest.raises(ValueError):
        _block([0], origin="guessed")


def test_sample_block_variance_and_saturation():
    b = _block([-128, -128, 127, 5, 6])
    assert b.saturation_fraction() == pytest.approx(3 / 5)
    v = _block([1, -1, 1, -1])
    assert v.variance_volts() == pytest.approx(np.var([1, -1, 1, -1], ddof=1) * 1e-8)


def test_sample_block_twelve_bit_range():
    b = _block([-2048, 2047], bits=12)
    assert b.code_range() == (-2048, 2047)
    with pytest.raises(ValueError):
        _block([2048], bits=12)


# ---------------------------------------------------------------------------
# BitStream
# ---------------------------------------------------------------------------


def test_bitstream_pad_bits_must_be_zero():
    # 3 valid bits, but a set bit in the padding region of the last byte;
    # the same as bytes and as a read-only array view, as extract_stream gives
    for wrap in (bytes, lambda b: memoryview(np.frombuffer(b, np.uint8))):
        with pytest.raises(ValueError, match="pad"):
            BitStream(bits=wrap(bytes([0b0000_1101])), count=3, provenance={})
        s = BitStream(bits=wrap(bytes([0b0000_0101])), count=3, provenance={})  # ok
        assert s == BitStream(bits=bytes([0b0000_0101]), count=3, provenance={})
        np.testing.assert_array_equal(s.as_bit_array(), [1, 0, 1])


def test_bitstream_count_bounds():
    with pytest.raises(ValueError):
        BitStream(bits=b"\x00", count=9, provenance={})
    # slack bytes are fine as long as every pad bit is zero
    s = BitStream(bits=b"\x00\x00", count=8, provenance={})
    assert len(s) == 8


def test_bitstream_roundtrip_explicit():
    s = BitStream(bits=bytes([0b101]), count=3)  # LSB-first packing
    np.testing.assert_array_equal(s.as_bit_array(), [1, 0, 1])


@given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=60),
       start=st.integers(min_value=0, max_value=70),
       stop=st.one_of(st.none(), st.integers(min_value=0, max_value=70)))
def test_bitstream_bit_range_is_a_slice_of_the_whole(bits, start, stop):
    # starts and stops off byte boundaries, and stops past count
    s = pack_bits(bits)
    np.testing.assert_array_equal(s.as_bit_array(start, stop), s.as_bit_array()[start:stop])


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=200))
def test_bitstream_roundtrip_property(bits):
    arr = np.array(bits, dtype=np.uint8)
    s = pack_bits(arr)
    assert s.count == len(bits)
    np.testing.assert_array_equal(s.as_bit_array(), arr)
