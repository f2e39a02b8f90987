"""Resource metrics, geometry sweeps, and scaling fits.

The headline numbers for a compiled Hamiltonian are its per-term Pauli
weights.  Worst-case locality statements use the max; scaling statements
(cubic for the chain geometry, quadratic-log for the others) are only
consistent with the summed metric, so both are recorded along with the
mean and term count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .encoding import build_encoding
from .errors import ParseError
from .fermion import check_seed, syk2_couplings, syk2_monomials
from .geometries import SYK_GEOMETRIES, gen_syk_geometry
from .graph import _integer
from .pauli import PauliSum
from .transform import transform_monomials

CSV_HEADER = "geometry,n_modes,qubits,max_weight,total_weight,mean_weight,terms,seconds"

SWEEP_GEOMETRIES = tuple(SYK_GEOMETRIES)

#: Local basis used for sweeps.  Tree-structured strings keep the weight
#: of high-degree vertices logarithmic; at degree <= 2 they reduce to the
#: plain chain pattern, so one choice serves every geometry.
SWEEP_BASIS = "fenwick"


@dataclass(frozen=True)
class WeightStats:
    max_term_weight: int
    total_weight: int
    mean_weight: float
    term_count: int
    qubit_total: int


@dataclass(frozen=True)
class BenchRecord:
    geometry: str
    n_modes: int
    qubits: int
    stats: WeightStats
    seconds: float

    def csv_row(self) -> str:
        s = self.stats
        return (
            f"{self.geometry},{self.n_modes},{self.qubits},{s.max_term_weight},"
            f"{s.total_weight},{s.mean_weight!r},{s.term_count},{self.seconds:.6f}"
        )


def weight_stats(h: PauliSum) -> WeightStats:
    """Exact weight statistics over the non-identity terms of a sum."""
    weights = [w for w in h.weights() if w]
    if not weights:
        return WeightStats(0, 0, 0.0, 0, h.n)
    total = sum(weights)
    return WeightStats(max(weights), total, total / len(weights), len(weights), h.n)


def sweep_syk_geometries(
    geometries: Sequence[str],
    n_list: Sequence[int],
    seed: int = 1,
) -> List[BenchRecord]:
    """Encode each geometry at each mode count, compile the quadratic
    all-to-all Hamiltonian with seeded couplings, and record the stats.

    The couplings at a given (seed, N) are shared across geometries so
    columns are directly comparable; records are deterministic for a fixed
    seed apart from the wall-time column.  A point whose encoding exceeds
    ``encoding.TABLE_BUDGET`` raises ``ResourceError``.
    """
    seed = check_seed(seed)
    n_list = [_integer(n, "mode counts must be integers") for n in n_list]
    records = []
    for kind in geometries:
        if kind not in SWEEP_GEOMETRIES:
            raise ParseError(f"unknown sweep geometry {kind!r}")
    couplings = {n: syk2_couplings(n, seed + n) for n in n_list}
    for kind in geometries:
        for n in n_list:
            t0 = time.perf_counter()
            g = gen_syk_geometry(kind, n)
            enc = build_encoding(g, SWEEP_BASIS)
            compiled = transform_monomials(syk2_monomials(n, couplings[n]), enc)
            stats = weight_stats(compiled)
            records.append(
                BenchRecord(kind, n, enc.total_qubits, stats, time.perf_counter() - t0)
            )
    return records


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


def loglog_slope(
    records: Sequence[BenchRecord], field: str = "total_weight"
) -> Tuple[float, float]:
    """Least-squares slope of log(field) against log(N), with its
    standard error; needs at least 4 points.

    ``field`` is one of qubits, max_weight, total_weight, mean_weight,
    terms.
    """
    import numpy as np

    if len(records) < 4:
        raise ParseError(f"need at least 4 points to fit, got {len(records)}")
    xs = np.log([r.n_modes for r in records])
    ys = []
    for r in records:
        v = {
            "qubits": r.qubits,
            "max_weight": r.stats.max_term_weight,
            "total_weight": r.stats.total_weight,
            "mean_weight": r.stats.mean_weight,
            "terms": r.stats.term_count,
        }[field]
        if v <= 0:
            raise ParseError(f"non-positive {field} value in records")
        ys.append(np.log(v))
    ys = np.array(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    dof = len(xs) - 2
    sxx = float(np.sum((xs - xs.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx)) if dof > 0 else 0.0
    return float(slope), stderr
