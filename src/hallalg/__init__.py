"""Exact computational engine for Ringel-Hall algebras of cyclic and
Kronecker quivers over finite fields."""

from .coeffring import (
    CycloSqrt,
    QPolynomial,
    SqrtExt,
    interpolate_q,
    quantum_factorial,
    v_power,
)
from .gf import FieldSpec, trace_to_prime
from .hallcore import (
    HallElement,
    TensorElement,
    comultiply,
    green_form,
    is_primitive,
    multiply,
    one_d,
    one_reg,
    primitive_subspace,
)
from .partitions import Partition, a_lambda, partitions_of, phi_irreducible_count
from .repengine import (
    BruteForceEngine,
    IsoClass,
    NilpotentCyclicEngine,
    Quiver,
    a2_quiver,
    cyclic_quiver,
    euler_form,
    get_brute_engine,
    get_nilpotent_engine,
    hall_polynomial,
    jordan_quiver,
    kronecker_quiver,
)
from .report import VerificationReport

__version__ = "0.1.0"
