"""Monte Carlo toolkit for nearest-neighbour functionals of Poisson point processes."""

__version__ = "0.1.0"
