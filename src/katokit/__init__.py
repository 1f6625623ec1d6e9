"""Sampled multi-order Sobolev and amalgam norms on the torus, with a
verified holomorphic calculus and symbol quantization on top.

The package is organized bottom-up:

- :mod:`katokit.grid`:     sample grids, fields, windows, mollifiers, FLD1 io
- :mod:`katokit.weights`:  split-order weights and their sharp constants
- :mod:`katokit.sobolev`:  weighted spectral norms, partitions of unity
- :mod:`katokit.kato`:     windowed (amalgam) norms and structure checks
- :mod:`katokit.calculus`: contour-based holomorphic functional calculus
- :mod:`katokit.psido`:    quantized symbols, Schatten and modulation norms
- :mod:`katokit.cli`:      `katokit` command line front end
"""

from .errors import (
    ContourConfigError,
    FieldFormatError,
    GridError,
    HypothesisError,
    KatokitError,
    MarginError,
    NonFiniteError,
    OutOfDomainError,
    PartitionError,
    QuadratureError,
    ResolutionError,
    ShapeError,
)
from .grid import (
    Field,
    GridSpec,
    Mollifier,
    Window,
    constant_field,
    field_from_values,
    l2_norm,
    load_field,
    make_bump,
    make_grid,
    make_mollifier,
    mollify,
    plane_wave,
    save_field,
    sup_norm,
)
from .weights import MultiOrder, multi_order, peetre_check, sigma_params, weight_l1_norm
from .sobolev import (
    bessel_apply,
    build_partition,
    h_norm,
    product_bound_check,
    spectral_derivative,
    twisted_periodization,
)
from .kato import (
    AmalgamNormSpec,
    ContinuousScheme,
    LatticeScheme,
    amalgam_spec,
    kato_norm,
    mollifier_rate_check,
    retraction_roundtrip,
)
from .calculus import (
    ContourSpec,
    HoloFn,
    calderon_apply,
    chain_rule_check,
    divide,
    invert,
    joint_spectrum_witness,
)
from .psido import (
    OperatorMatrix,
    Symbol,
    quantize,
    schatten_norm,
    self_dual_period,
    sw_norm,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "KatokitError",
    "GridError",
    "ShapeError",
    "FieldFormatError",
    "NonFiniteError",
    "ResolutionError",
    "HypothesisError",
    "PartitionError",
    "OutOfDomainError",
    "MarginError",
    "ContourConfigError",
    "QuadratureError",
    "GridSpec",
    "Field",
    "Window",
    "Mollifier",
    "make_grid",
    "constant_field",
    "field_from_values",
    "plane_wave",
    "make_bump",
    "make_mollifier",
    "mollify",
    "l2_norm",
    "sup_norm",
    "save_field",
    "load_field",
    "MultiOrder",
    "multi_order",
    "peetre_check",
    "sigma_params",
    "weight_l1_norm",
    "h_norm",
    "bessel_apply",
    "spectral_derivative",
    "build_partition",
    "product_bound_check",
    "twisted_periodization",
    "AmalgamNormSpec",
    "ContinuousScheme",
    "LatticeScheme",
    "amalgam_spec",
    "kato_norm",
    "retraction_roundtrip",
    "mollifier_rate_check",
    "ContourSpec",
    "HoloFn",
    "calderon_apply",
    "invert",
    "divide",
    "chain_rule_check",
    "joint_spectrum_witness",
    "Symbol",
    "OperatorMatrix",
    "quantize",
    "schatten_norm",
    "self_dual_period",
    "sw_norm",
]
