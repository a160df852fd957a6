"""grushinlab: numerical laboratory for quantum confinement on warped
half-plane (Grushin-type) geometries.

Three complementary experiments are provided:

* Weyl endpoint classification of the Fourier fibre operators, deciding
  essential self-adjointness of the Laplace-Beltrami operator (module
  :mod:`grushinlab.weyl`);
* geodesic integration exhibiting incompleteness, with closed-form hit
  time quadratures as oracles (:mod:`grushinlab.geodesics`);
* unitary fibre-wise Schroedinger evolution probing how sensitive the
  dynamics is to boundary conditions at an inner cutoff
  (:mod:`grushinlab.evolution`).

Import from those modules; each declares its public names in ``__all__``.
See the ``grushinlab`` command line tool for reproducible experiment
runs with machine-readable outputs.
"""

__version__ = "0.1.0"
