"""Desk-scale simulation of Markovian open quantum systems via a completely
positive series approximant with nested Gaussian quadrature, plus matrix-level
realizations of the quantum primitives the construction rests on."""

from .errors import (ArgumentError, ContractError, InfeasiblePrecisionError,
                     LindbladSimError, ModelError, PauliParseError,
                     ResourceLimitError)
from .linalg import batched_kraus_sum, dag, kraus_superop, spectral_norm, unvec, vec
from .metrics import choi, choi_to_superop, cptp_report, diamond_sandwich, trace_norm
from .modelio import ParsedModel, load_density, load_model, parse_model, save_model, serialize_model
from .models import (Lindbladian, amplitude_damping, be_norm, drift_generator_matrix,
                     drift_semigroup, effective_generator, exact_channel,
                     jump_superoperator, liouvillian_matrix, random_lindbladian)
from .pauli import PauliSumExpr, materialize, parse_pauli_sum, serialize_pauli_sum
from .primitives import (BlockEncoding, ChannelApplication, MuState, channel_projectors,
                         dilate, dilute, extend_with_ancilla, lcu_channel, lcu_sum,
                         mu_coefficients, oaa_step, verification_matrix)
from .quadrature import (NestedGrid, QuadratureRule, canonical_rule, legendre_rule,
                         nested_grid, nested_weight_sum, quadrature_error_bound)
from .series import (CPMapApprox, KrausTerm, SimulationReport, TruncationConfig,
                     bound_composite, bound_duhamel, bound_quadrature, bound_taylor,
                     choose_orders, f_k, g_K_quadrature, segment_time,
                     simulate, taylor_drift, taylor_total_bound)
from .timedep import (DysonConfig, TimeDependentLindbladian, dyson_contract,
                      from_static, ordered_propagator, rk4_reference, td_simulate)

__version__ = "0.1.0"
