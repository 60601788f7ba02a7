"""Shared fixtures: the reference calibration point used across the suite,
plus the Toeplitz oracle and bit helpers of the extractor tests.

The reference coefficients (ac, aq, f) describe a realistic operating point
of the simulated chain; most integration tests configure the simulator so
that these exact values should be recovered.
"""

import hashlib
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from phaseqrng.extract import extract_stream
from phaseqrng.model import (
    BitStream, EntropyReport, LaserNoiseModel, SampleBlock, SignalChainConfig,
    VarianceFit,
)

# reference variance-fit coefficients used as the standard test operating point
AC_REF = 22.519        # V^2 / W^2
AQ_REF = 0.03784       # V^2 / W
F_REF = 1.3732e-6      # V^2

# conversion gain chosen so phase excursions stay deep in the linear regime
# of the interferometer response (sin(x) ~ x to < 0.1% at every sweep power)
CONV_GAIN = 9.5e6      # V^2 / (W rad)^2
DELAY_TD = 540e-12     # s

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# ``--hypothesis-profile=ci`` runs test_exact_kernels_match_reference_pvalues,
# on which the bit-identity of every SP 800-22 p-value rests, at ten times its
# default 60 examples
settings.register_profile("ci", max_examples=600)


def artifact_digests(out) -> dict[str, str]:
    """sha256 of ``out`` and of every ``out.*`` artifact, keyed by suffix.

    The golden digests asserted with this were recorded with NumPy 2.4 on
    x86-64 Linux; a different build may round ``sin``, the FIR matvec, the
    FFTs or ``math.erfc`` in the last place and legitimately change them.
    """
    out = Path(out)
    return {
        p.name[len(out.name):]: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.parent.glob(out.name + "*"))
    }


@pytest.fixture
def ref_fit() -> VarianceFit:
    return VarianceFit(ac=AC_REF, aq=AQ_REF, f=F_REF, r_squared=0.998)


@pytest.fixture
def ref_chain() -> SignalChainConfig:
    return SignalChainConfig(
        delay_td=DELAY_TD,
        conversion_gain_a=CONV_GAIN,
        electronic_noise_f=F_REF,
    )


def make_ref_model(power: float):
    """Laser model whose chain coefficients equal the reference fit values."""
    return LaserNoiseModel(
        quantum_diffusion_q=AQ_REF / (CONV_GAIN * DELAY_TD),
        classical_diffusion_c=AC_REF / (CONV_GAIN * DELAY_TD),
        power_p=power,
    )


@pytest.fixture
def ref_model():
    return make_ref_model(2.47e-4)


def toeplitz_matrix(seed) -> np.ndarray:
    """The explicit matrix T[i, j] = seed[n_out-1-i+j] (the hash's oracle)."""
    i = np.arange(seed.n_out)[:, None]
    j = np.arange(seed.n_in)[None, :]
    return seed.bits[seed.n_out - 1 - i + j]


def toeplitz_product(seed, blocks) -> np.ndarray:
    """T @ x for each row x of the 0/1 ``blocks``, as exact integers.

    The counts the hash reduces mod 2, summed in int64 a few rows of ``T``
    at a time, so a large matrix is never held whole.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    i = np.arange(seed.n_out)
    counts = np.empty((blocks.shape[0], seed.n_out), np.int64)
    for a in range(0, seed.n_out, 256):
        rows = seed.bits[seed.n_out - 1 - i[a : a + 256, None] + np.arange(seed.n_in)]
        counts[:, a : a + 256] = blocks @ rows.T.astype(np.int64)
    return counts


def hash_bits(seed, bits) -> np.ndarray:
    """Hash 0/1 ``bits`` through ``extract_stream``; n_out bits per n_in.

    Each bit is a 1-bit two's-complement code (1 is -1), so the serialised
    extractor input is ``bits`` itself.
    """
    block = SampleBlock(samples=-np.asarray(bits, dtype=np.int16), adc_bits=1,
                        sample_rate_hz=1.0, adc_scale=1.0)
    report = EntropyReport(qcnr=1.0, sigma_sq_total=1.0, sigma_sq_quantum=1.0,
                           min_entropy_bits=1.0, samples_bits=1,
                           extraction_ratio=1.0)
    return extract_stream(block, report, seed).as_bit_array()


def on_threads(call, workers, timeout=30.0) -> list:
    """Run ``call()`` on ``workers`` threads at once; what each returned or raised.

    The threads start together behind a barrier, so their calls overlap, and
    none may still be running after ``timeout`` seconds.
    """
    start, results = threading.Barrier(workers), [None] * workers

    def run(i):
        start.wait()
        try:
            results[i] = call()
        except Exception as exc:  # handed back to the test to check
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "a call hung on a worker thread"
    return results


def pack_bits(bits) -> BitStream:
    """A ``BitStream`` of the 0/1 array ``bits``."""
    bits = np.asarray(bits, dtype=np.uint8)
    return BitStream(np.packbits(bits, bitorder="little").tobytes(), bits.size)
