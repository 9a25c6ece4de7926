"""Numerical laboratory for spectra of random matrices arising from the
Ihara zeta determinant formula on long-range percolation graphs.  Import
each name from its own module; the package itself loads none of them."""

__version__ = "0.1.0"
