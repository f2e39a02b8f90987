"""fermigraph: compile fermionic Hamiltonians into qubit Pauli operators
over a user-chosen system graph, with quasi-local routed couplings,
cycle stabilizers, and resource analytics.

Importing the package loads every module a compile runs, but not numpy:
numpy loads on the first call that needs it, ``dense_oracle_check``, the
SYK couplings (``syk2_couplings``, ``syk2_monomials``, ``build_syk2``) or
``loglog_slope``, and the dense spectral oracle ``fermigraph.dense`` on
the first ``dense_oracle_check``.
"""

from .pauli import PauliString, PauliSum, PauliSumBuilder
from .graph import (
    SystemGraph,
    Vertex,
    cycle_basis,
    qubit_count,
)
from .geometries import (
    gen_blocked_square,
    gen_heavy_hex,
    gen_lattice,
    gen_square_with_diagonals,
    gen_syk_geometry,
    heavy_hex_device,
)
from .localbasis import (
    MajoranaBasis,
    basis_fenwick,
    basis_jw,
    basis_jw_yx,
    basis_ternary_tree,
    basis_verify,
    get_basis,
)
from .encoding import Encoding, Router, build_encoding, verify_encoding_algebra
from .fermion import (
    EVTerm,
    FermionOperator,
    MajoranaMonomial,
    build_lattice_model,
    build_syk2,
    interaction_graph_from_hamiltonian,
    monomial_to_ev,
    syk2_couplings,
    syk2_monomials,
    to_majorana_normal_form,
)
from .transform import transform_hamiltonian, transform_monomials
from .analytics import (
    BenchRecord,
    WeightStats,
    loglog_slope,
    records_to_csv,
    sweep_syk_geometries,
    weight_stats,
)

__version__ = "0.1.0"

__all__ = [
    "PauliString", "PauliSum", "PauliSumBuilder",
    "SystemGraph", "Vertex",
    "cycle_basis", "qubit_count",
    "gen_lattice", "gen_square_with_diagonals", "gen_syk_geometry",
    "gen_blocked_square", "gen_heavy_hex", "heavy_hex_device",
    "MajoranaBasis", "basis_jw", "basis_jw_yx", "basis_fenwick",
    "basis_ternary_tree", "basis_verify", "get_basis",
    "Encoding", "Router", "build_encoding", "verify_encoding_algebra",
    "FermionOperator", "MajoranaMonomial", "EVTerm",
    "to_majorana_normal_form", "monomial_to_ev",
    "interaction_graph_from_hamiltonian", "build_syk2", "syk2_couplings",
    "syk2_monomials", "build_lattice_model",
    "transform_hamiltonian", "transform_monomials",
    "WeightStats", "BenchRecord", "weight_stats", "sweep_syk_geometries",
    "loglog_slope", "records_to_csv", "dense_oracle_check",
]


def __getattr__(name):
    # the dense oracle, and numpy with it, load on first use (PEP 562)
    if name == "dense_oracle_check":
        from .dense import dense_oracle_check

        return dense_oracle_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
