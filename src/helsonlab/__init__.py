"""helsonlab: spectra of multiplicative Hankel matrices and their integral kin."""

from helsonlab.symbols import (  # noqa: F401
    DomainError, SymbolSpec, a0_quadrature, b0_quadrature,
    chi_cutoff, eval_symbol, kernel_fn, sequence_values, smoothstep, zeta1,
)

__version__ = "0.1.0"
