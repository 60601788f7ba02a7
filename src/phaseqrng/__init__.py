"""Phase-noise QRNG simulation and post-processing pipeline.

Modules
-------
model    physical domain types and closed-form relations
sim      seeded time-domain simulator of the full signal chain
calib    variance-vs-power fitting, QCNR estimators, quadrature search
entropy  min-entropy of the quantised signal and extraction budget
extract  Toeplitz-hashing randomness extractor
stats    autocorrelation, NIST SP800-22 subset
io       bit-exact file formats for samples, bits and reports
runs     config parsing and the calibrate/pipeline/stability runs
cli      command line: argument parsing, rendering, exit codes
"""

__version__ = "0.1.0"
