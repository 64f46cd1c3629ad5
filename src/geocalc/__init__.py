"""Scaled-decimal calculator built on right-triangle constructions.

Every operation reduces to choosing the cosine of an apex angle and
reading a length off a cascade of perpendicular feet.  Magnitudes are
kept as a mantissa in [0.1, 1) with an integer power-of-ten exponent,
so the geometry only ever handles lengths in unit range.
"""

from .cascade import (Cascade, Construction, VIRTUAL_DEPTH, build_cascade,
                      divide, geometric_mean, multiply, power, reciprocal)
from .diagram import render_svg, write_svg
from .errors import (ArmOutOfRange, DegenerateAngle, DomainError,
                     EvenRootOfNegative, ExponentOverflow, GeocalcError,
                     InconsistentTrace, NoConvergence, NoIntegerExponent,
                     ParseError, SignMismatch, ZeroNotRepresentable)
from .euler import (EulerApprox, INTERNAL_E_STEPS, antilog, approximate_e,
                    internal_e, natural_log)
from .exponents import (ContinuedFraction, evaluate_cf,
                        recover_exponent_via_logs,
                        recover_rational_exponent, solve_integer_exponent)
from .mechsim import (DEFAULT_RESOLUTION, MeasuredResult, MeasurementModel,
                      RESOLUTION_LADDER, assemble, run_op, run_script)
from .numcore import (DEFAULT_POLICY, PrecisionPolicy, SignedScaled,
                      normalize, oracle_eval, parse_decimal,
                      renormalized, shift10, to_text)
from .roots import RootQuery, nth_root, rational_power, solve_cos_power
from .trace import (STEP_KINDS, TraceRecorder, TraceStep, foot_label,
                    parse_trace)

__version__ = "0.1.0"

__all__ = [
    "ArmOutOfRange", "Cascade", "Construction", "ContinuedFraction",
    "DEFAULT_POLICY", "DEFAULT_RESOLUTION", "DegenerateAngle",
    "DomainError", "EulerApprox",
    "EvenRootOfNegative", "ExponentOverflow", "GeocalcError",
    "INTERNAL_E_STEPS", "InconsistentTrace", "MeasuredResult",
    "MeasurementModel", "NoConvergence", "NoIntegerExponent",
    "ParseError", "PrecisionPolicy", "RESOLUTION_LADDER",
    "RootQuery", "STEP_KINDS", "SignMismatch", "SignedScaled",
    "TraceRecorder", "TraceStep", "VIRTUAL_DEPTH", "ZeroNotRepresentable",
    "antilog", "approximate_e", "assemble", "build_cascade", "divide",
    "evaluate_cf", "foot_label", "geometric_mean", "internal_e",
    "multiply", "natural_log", "normalize", "nth_root", "oracle_eval",
    "parse_decimal", "parse_trace", "power", "rational_power",
    "recover_exponent_via_logs", "recover_rational_exponent",
    "render_svg", "renormalized", "run_op", "run_script", "shift10",
    "solve_cos_power", "solve_integer_exponent", "to_text", "write_svg",
    "reciprocal",
]
