"""Grid model and DC power-flow sensitivities.

The grid is a lossless DC model: line flows respond linearly to net bus
injections through the PTDF matrix.  Rows of the PTDF are split into
the dynamically rated (DLR) lines, whose limits move with the weather,
and the rest (NLR), whose limits are the static ratings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError, read_json
from .thermal import LineRatingSpec, rating_spec_from_mapping


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: int
    to_bus: int
    reactance_pu: float
    limit_mw: float
    is_dlr: bool = False
    rating_spec: LineRatingSpec | None = None


@dataclass(frozen=True)
class Generator:
    name: str
    bus: int
    p_min_mw: float
    p_max_mw: float
    cost_quad: float        # $/MW^2 h
    cost_linear: float      # $/MWh
    reserve_up_max_mw: float
    reserve_down_max_mw: float
    price_reserve_up: float     # $/MW procured
    price_reserve_down: float
    price_activation_up: float  # $/MWh activated
    price_activation_down: float


@dataclass(frozen=True)
class GridModel:
    """Validated snapshot of buses, lines, generators and loads."""

    name: str
    buses: tuple[int, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    loads: tuple[tuple[int, float], ...]   # (bus, MW)
    slack_bus: int

    def __post_init__(self):
        bus_set = set(self.buses)
        if len(bus_set) != len(self.buses):
            raise InputError("duplicate bus ids")
        if self.slack_bus not in bus_set:
            raise InputError(f"slack bus {self.slack_bus} not in bus list")
        seen = set()
        for ln in self.lines:
            if ln.id in seen:
                raise InputError(f"duplicate line id {ln.id}")
            seen.add(ln.id)
            if ln.from_bus not in bus_set or ln.to_bus not in bus_set:
                raise InputError(f"line {ln.id} references unknown bus")
            if not (ln.reactance_pu > 0):
                raise InputError(f"line {ln.id} must have reactance > 0")
            if not (ln.limit_mw > 0):
                raise InputError(f"line {ln.id} must have a positive limit")
        gen_names = set()
        for g in self.generators:
            if g.name in gen_names:
                raise InputError(f"duplicate generator name {g.name}")
            gen_names.add(g.name)
            if g.bus not in bus_set:
                raise InputError(f"generator {g.name} at unknown bus {g.bus}")
            if g.p_min_mw > g.p_max_mw:
                raise InputError(f"generator {g.name}: p_min > p_max")
            prices = (g.price_reserve_up, g.price_reserve_down,
                      g.price_activation_up, g.price_activation_down)
            if any(p < 0 for p in prices):
                raise InputError(f"generator {g.name}: prices must be >= 0")
            if g.reserve_up_max_mw < 0 or g.reserve_down_max_mw < 0:
                raise InputError(f"generator {g.name}: reserve caps must be >= 0")
        for bus, mw in self.loads:
            if bus not in bus_set:
                raise InputError(f"load at unknown bus {bus}")
            if mw < 0:
                raise InputError(f"negative load at bus {bus}")
        if sum(g.p_max_mw for g in self.generators) < self.total_load:
            raise InputError("total generation capacity below total load")
        if not self._connected():
            raise InputError("grid graph is not connected")

    def _connected(self) -> bool:
        if not self.buses:
            return False
        adj: dict[int, list[int]] = {b: [] for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].append(ln.to_bus)
            adj[ln.to_bus].append(ln.from_bus)
        seen = {self.buses[0]}
        stack = [self.buses[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.buses)

    @property
    def total_load(self) -> float:
        return sum(mw for _, mw in self.loads)

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    def bus_index(self) -> dict[int, int]:
        return {b: i for i, b in enumerate(self.buses)}

    def load_vector(self) -> np.ndarray:
        """MW of load per bus, in bus order."""
        idx = self.bus_index()
        vec = np.zeros(self.n_buses)
        for bus, mw in self.loads:
            vec[idx[bus]] += mw
        return vec

    def gen_incidence(self) -> np.ndarray:
        """Buses x generators 0/1 matrix mapping generator output to buses."""
        idx = self.bus_index()
        m = np.zeros((self.n_buses, self.n_gens))
        for j, g in enumerate(self.generators):
            m[idx[g.bus], j] = 1.0
        return m

    def dlr_lines(self) -> list[Line]:
        return [ln for ln in self.lines if ln.is_dlr]

    @cached_property
    def gen_arrays(self) -> GenArrays:
        """Generator attributes as aligned vectors, built on first use."""
        pull = lambda attr: np.array([getattr(g, attr) for g in self.generators])
        return GenArrays(
            p_min=pull("p_min_mw"), p_max=pull("p_max_mw"),
            cost_quad=pull("cost_quad"), cost_linear=pull("cost_linear"),
            res_up_max=pull("reserve_up_max_mw"), res_dn_max=pull("reserve_down_max_mw"),
            price_up=pull("price_reserve_up"), price_dn=pull("price_reserve_down"),
            act_up=pull("price_activation_up"), act_dn=pull("price_activation_down"),
        )


@dataclass(frozen=True)
class GenArrays:
    """Generator attributes as aligned numpy vectors (assembly convenience)."""

    p_min: np.ndarray
    p_max: np.ndarray
    cost_quad: np.ndarray
    cost_linear: np.ndarray
    res_up_max: np.ndarray
    res_dn_max: np.ndarray
    price_up: np.ndarray
    price_dn: np.ndarray
    act_up: np.ndarray
    act_dn: np.ndarray

    def __post_init__(self):
        _freeze(self)


@dataclass(frozen=True)
class PtdfMatrices:
    """Flow sensitivities to net bus injections (slack column is zero),
    compiled with the flows and limits that programs read.

    It belongs to the grid it was computed from: the flows of a dispatch
    p are ``gen_dlr @ p - load_dlr`` on the DLR lines and
    ``gen_nlr @ p - load_nlr`` on the rest.
    """

    h_full: np.ndarray       # lines x buses
    h_dlr: np.ndarray        # DLR-line rows
    h_nlr: np.ndarray        # remaining rows
    dlr_line_index: tuple[str, ...]
    nlr_line_index: tuple[str, ...]
    gen_dlr: np.ndarray      # DLR flow per MW of each generator
    gen_nlr: np.ndarray
    load_dlr: np.ndarray     # DLR flows drawn by the loads
    load_nlr: np.ndarray
    dlr_base_mw: np.ndarray  # nominal MW base of per-unit DLR ratings
    nlr_limit_mw: np.ndarray  # static limits of the NLR rows

    def __post_init__(self):
        _freeze(self)

    @property
    def n_lines(self) -> int:
        return self.h_full.shape[0]


def _freeze(record):
    """Make the arrays of a record that every caller shares read-only."""
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


def compute_ptdf(grid: GridModel) -> PtdfMatrices:
    """DC power transfer distribution factors with the grid's slack bus.

    For any balanced injection vector p (summing to zero),
    ``h_full @ p`` solves the DC power flow.
    """
    idx = grid.bus_index()
    n_bus = grid.n_buses
    n_line = len(grid.lines)
    inc = np.zeros((n_line, n_bus))
    sus = np.zeros(n_line)
    for k, ln in enumerate(grid.lines):
        inc[k, idx[ln.from_bus]] = 1.0
        inc[k, idx[ln.to_bus]] = -1.0
        sus[k] = 1.0 / ln.reactance_pu
    b_branch = inc * sus[:, None]
    b_bus = inc.T @ b_branch

    slack = idx[grid.slack_bus]
    keep = [i for i in range(n_bus) if i != slack]
    b_red = b_bus[np.ix_(keep, keep)]
    try:
        theta_sens = np.linalg.solve(b_red, np.eye(n_bus - 1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("reduced susceptance matrix is singular") from exc
    cond = np.linalg.cond(b_red)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError("reduced susceptance matrix is numerically degenerate")

    h_full = np.zeros((n_line, n_bus))
    h_full[:, keep] = b_branch[:, keep] @ theta_sens

    dlr_rows = [k for k, ln in enumerate(grid.lines) if ln.is_dlr]
    nlr_rows = [k for k, ln in enumerate(grid.lines) if not ln.is_dlr]
    h_dlr, h_nlr = h_full[dlr_rows], h_full[nlr_rows]
    m = grid.gen_incidence()
    load = grid.load_vector()
    return PtdfMatrices(
        h_full=h_full,
        h_dlr=h_dlr,
        h_nlr=h_nlr,
        dlr_line_index=tuple(grid.lines[k].id for k in dlr_rows),
        nlr_line_index=tuple(grid.lines[k].id for k in nlr_rows),
        gen_dlr=h_dlr @ m,
        gen_nlr=h_nlr @ m,
        load_dlr=h_dlr @ load,
        load_nlr=h_nlr @ load,
        dlr_base_mw=np.array([grid.lines[k].limit_mw for k in dlr_rows]),
        nlr_limit_mw=np.array([grid.lines[k].limit_mw for k in nlr_rows]),
    )


def flows(grid: GridModel, ptdf: PtdfMatrices, injections: np.ndarray) -> np.ndarray:
    """Line flows (MW, positive from_bus -> to_bus) for balanced injections."""
    inj = np.asarray(injections, dtype=float).ravel()
    if inj.size != grid.n_buses:
        raise InputError(f"injections must have length {grid.n_buses}")
    tol = 1e-6 * max(grid.total_load, 1.0)
    if abs(inj.sum()) > tol:
        raise InputError(f"injections sum to {inj.sum():.3e}, beyond tolerance {tol:.3e}")
    return ptdf.h_full @ inj


def dlr_base_mw(grid: GridModel, ptdf: PtdfMatrices) -> np.ndarray:
    """Nominal MW base converting per-unit DLR ratings, aligned with h_dlr."""
    return ptdf.dlr_base_mw


# ---------------------------------------------------------------------------
# Grid document schema: one JSON object with sections "buses", "lines",
# "generators", "loads" and a "slack_bus".  Field names match the
# dataclasses above.  (A converter from MATPOWER-style case tables is a
# documentation item; see README.)

_GEN_FIELDS = (
    "bus", "p_min_mw", "p_max_mw", "cost_quad", "cost_linear",
    "reserve_up_max_mw", "reserve_down_max_mw", "price_reserve_up",
    "price_reserve_down", "price_activation_up", "price_activation_down",
)


def load_grid(source: str | Path | dict) -> GridModel:
    """Read and validate a grid document (path or already-parsed mapping)."""
    if isinstance(source, (str, Path)):
        doc = read_json(source)
        where = str(source)
    else:
        doc = source
        where = "<grid document>"
    if not isinstance(doc, dict):
        raise InputError(f"{where}: expected a JSON object")
    for section in ("buses", "lines", "generators", "loads", "slack_bus"):
        if section not in doc:
            raise InputError(f"{where}: missing section {section!r}")

    try:
        buses = tuple(int(b) for b in doc["buses"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: bad bus id ({exc})") from exc

    lines = []
    for i, ln in enumerate(doc["lines"]):
        try:
            spec = None
            if ln.get("rating") is not None:
                spec = rating_spec_from_mapping(ln["rating"], f"{where}: line {i}")
            lines.append(Line(
                id=str(ln.get("id", f"{ln['from_bus']}-{ln['to_bus']}")),
                from_bus=int(ln["from_bus"]),
                to_bus=int(ln["to_bus"]),
                reactance_pu=float(ln["reactance_pu"]),
                limit_mw=float(ln["limit_mw"]),
                is_dlr=bool(ln.get("is_dlr", False)),
                rating_spec=spec,
            ))
        except KeyError as exc:
            raise InputError(f"{where}: line {i} missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: line {i}: {exc}") from exc

    gens = []
    for i, g in enumerate(doc["generators"]):
        try:
            gens.append(Generator(
                name=str(g.get("name", f"gen{i}")),
                **{k: (int(g[k]) if k == "bus" else float(g[k])) for k in _GEN_FIELDS},
            ))
        except KeyError as exc:
            raise InputError(f"{where}: generator {i} missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"{where}: generator {i}: {exc}") from exc

    loads = []
    for i, ld in enumerate(doc["loads"]):
        try:
            loads.append((int(ld["bus"]), float(ld["mw"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{where}: load {i}: {exc}") from exc

    return GridModel(
        name=str(doc.get("name", "grid")),
        buses=buses,
        lines=tuple(lines),
        generators=tuple(gens),
        loads=tuple(loads),
        slack_bus=int(doc["slack_bus"]),
    )
