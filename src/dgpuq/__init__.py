"""Deep Gaussian process surrogates with uncertainty propagation for Darcy flow."""

__version__ = "0.1.0"
