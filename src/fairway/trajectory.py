"""Microscopic and macroscopic quantities from evenly spaced GNSS fleet recordings.

A track is columnar: read-only numpy arrays t (whole seconds), x and y (m),
validated once.  Speeds come from consecutive-fix displacements, gaps from
leader/follower positions on shared timestamps, corrected for locator offsets
and leader length, and flow samples from one batch per run.  Each value takes
the float operations of a per-fix loop in the same order, so the bits match.
Internally all arithmetic is SI (m, s); km/h and vessels/km appear only at the
boundary (exact factors 3.6 and 1000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from operator import add
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .document import FiniteFields, brief
from .errors import DomainError, MalformedTrackError

MS_TO_KMH = 3.6
M_PER_KM = 1000.0

LOAD_STATES = ("loaded", "empty")


@dataclass(frozen=True)
class VesselMeta:
    fleet_position: int  # 1 = leading vessel
    length: float  # m
    locator_offset: float  # m, locator to bow
    load_state: str  # "loaded" | "empty"

    def __post_init__(self):
        if self.fleet_position < 1:
            raise DomainError(f"fleet_position must be >= 1, got {self.fleet_position}")
        if not 0 < self.length < math.inf:
            raise DomainError(f"vessel length must be finite and positive, got {self.length}")
        if not 0 <= self.locator_offset < math.inf:
            raise DomainError(f"locator_offset must be finite and >= 0, got {self.locator_offset}")
        if self.load_state not in LOAD_STATES:
            raise DomainError(f"load_state must be one of {LOAD_STATES}, got {brief(repr(self.load_state))}")


@dataclass(frozen=True, eq=False)
class VesselTrack:
    meta: VesselMeta
    t: np.ndarray  # s, int64
    x: np.ndarray  # m
    y: np.ndarray  # m

    def __post_init__(self):
        t = np.array(self.t, dtype=np.int64)
        x, y = np.array(self.x, dtype=float), np.array(self.y, dtype=float)
        if not t.ndim == 1 or not t.shape == x.shape == y.shape:
            raise MalformedTrackError("t, x and y must be 1-D columns of one length")
        if len(t) < 2:
            raise MalformedTrackError("a track needs at least 2 fixes")
        if np.any(t[1:] <= t[:-1]):
            raise MalformedTrackError("fix timestamps must be strictly increasing")
        _require_finite("non-finite coordinates", t, x, y)
        for name, column in zip("txy", (t, x, y)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other):
        if not isinstance(other, VesselTrack):
            return NotImplemented
        return self.meta == other.meta and all(
            np.array_equal(getattr(self, n), getattr(other, n)) for n in "txy")


@dataclass(frozen=True)
class FleetRun:
    run_id: str
    tracks: tuple[VesselTrack, ...]

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(self.tracks))
        positions = [tr.meta.fleet_position for tr in self.tracks]
        if positions != list(range(1, len(positions) + 1)):
            raise MalformedTrackError(
                f"fleet positions must be consecutive 1..n, got {positions}"
            )


@np.errstate(all="ignore")
def _check_flow(density, mean_speed, flow) -> None:
    """Finite density > 0, mean_speed >= 0, flow = density * mean_speed; scalars or a batch."""
    k, v, q = (np.asarray(a, dtype=float) for a in (density, mean_speed, flow))
    for rule, ok, got in (("density must be finite and positive", (k > 0) & (k < math.inf), k),
                          ("mean_speed must be finite and >= 0", (v >= 0) & (v < math.inf), v),
                          ("flow must equal density*speed",
                           np.abs(q - k * v) <= 1e-9 * np.maximum(1.0, np.abs(k * v)), q)):
        if not np.all(ok):
            raise DomainError(f"{rule}, got {got[~ok].flat[0]}")


@dataclass(frozen=True)
class FlowSample:
    """One macroscopic observation; flow must equal density * mean_speed."""

    density: float  # vessels/km
    mean_speed: float  # km/h
    flow: float  # vessels/h
    t: Optional[int] = None  # absent for surveillance intervals

    def __post_init__(self):
        _check_flow(self.density, self.mean_speed, self.flow)

    @classmethod
    def from_density_speed(cls, density, mean_speed, t=None):
        return cls(density=density, mean_speed=mean_speed, flow=density * mean_speed, t=t)


@dataclass(frozen=True, eq=False)
class FlowSamples:
    """Flow samples as columns, such as one run's, checked as one batch.

    ``stationary`` counts the timestamps left out because a vessel stood still.
    """

    density: np.ndarray  # vessels/km
    mean_speed: np.ndarray  # km/h
    flow: np.ndarray  # vessels/h
    t: Optional[np.ndarray] = None  # s; None for samples without timestamps, as in fit fd
    stationary: int = 0

    def __post_init__(self):
        _check_flow(self.density, self.mean_speed, self.flow)

    def __len__(self) -> int:
        return len(self.density)


class GapSample(NamedTuple):
    t: int
    gap_m: float
    overlap_flagged: bool  # gap <= 0: GNSS error, kept but flagged


@dataclass(frozen=True, eq=False)
class GapSamples:
    """One follower's gaps as columns; iterating yields one GapSample per timestamp."""

    t: np.ndarray
    gap_m: np.ndarray
    overlap_flagged: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self):
        return map(GapSample._make, zip(*(c.tolist() for c in (self.t, self.gap_m,
                                                              self.overlap_flagged))))


@dataclass(frozen=True)
class SummaryStats(FiniteFields):
    p15: float
    median: float
    p85: float
    mean: float


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # math.hypot, not np.hypot: the two differ in the last ulp on some inputs.
    return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float)


def _require_finite(problem: str, t: np.ndarray, *columns: np.ndarray) -> np.ndarray:
    bad = ~np.logical_and.reduce([np.isfinite(c) for c in columns])
    if bad.any():
        raise DomainError(f"{problem} at t={t[bad.argmax()]}")
    return columns[0]


@np.errstate(all="ignore")
def speed_series(track: VesselTrack) -> tuple[np.ndarray, np.ndarray]:
    """(t, v) in km/h, keyed by each pair's earlier fix; every fix interval must equal the least."""
    t, dt = track.t, np.diff(track.t).view(np.uint64)  # t increases: a wrapped interval is exact
    step = int(dt.min())
    bad = np.flatnonzero(dt != step)
    if len(bad):
        raise MalformedTrackError(
            f"non-uniform time spacing (expected {step}s) at {len(bad)} fix pair(s), "
            f"first at ({t[bad[0]]}, {t[bad[0] + 1]})")
    dist = _hypot(np.diff(track.x), np.diff(track.y))
    return t[:-1], _require_finite("speed overflows", t, dist / step * MS_TO_KMH)


@np.errstate(all="ignore")
def derive_gap(leader: VesselTrack, follower: VesselTrack) -> GapSamples:
    """Bow-to-stern gaps (m) on the timestamp intersection of the two tracks.

    gap(t) = distance(leader, follower) + d_leader - d_follower - L_leader.
    Missing timestamps on either side are skipped; non-positive gaps are
    retained but flagged.
    """
    if leader.meta.fleet_position != follower.meta.fleet_position - 1:
        raise DomainError(
            "leader must be the vessel immediately ahead of the follower "
            f"(positions {leader.meta.fleet_position} vs {follower.meta.fleet_position})"
        )
    t, i, j = np.intersect1d(leader.t, follower.t, assume_unique=True, return_indices=True)
    if not len(t):
        raise DomainError("tracks share no common timestamp")
    offset = leader.meta.locator_offset - follower.meta.locator_offset - leader.meta.length
    gap = _hypot(leader.x[i] - follower.x[j], leader.y[i] - follower.y[j]) + offset
    return GapSamples(t=t, gap_m=_require_finite("gap overflows", t, gap), overlap_flagged=gap <= 0)


@np.errstate(divide="ignore", over="ignore")
def harmonic_mean_speed(speeds):
    """Space-mean speed n / sum(1/v_i) over axis 0 (per column of vessels x times)."""
    v = np.asarray(speeds, dtype=float)
    if not len(v):
        raise DomainError("harmonic mean of an empty list is undefined")
    if np.any(v <= 0):
        raise DomainError("harmonic mean undefined for non-positive speeds")
    return len(v) / reduce(add, 1.0 / v)  # row by row, left to right, as sum() adds


@np.errstate(divide="ignore", over="ignore")
def fleet_density(gaps, follower_lengths):
    """Vessels per km occupied by m followers: m / (sum of gap+length, in km), over axis 0."""
    g, lengths = np.asarray(gaps, dtype=float), np.asarray(follower_lengths, dtype=float)
    if len(g) == 0 or len(g) != len(lengths):
        raise DomainError("gaps and follower_lengths must be equal-length and non-empty")
    if np.any(lengths <= 0):
        raise DomainError("vessel lengths must be positive")
    return len(g) / (reduce(add, g + lengths.reshape((-1,) + (1,) * (g.ndim - 1))) / M_PER_KM)


def fleet_flow_samples(run: FleetRun, speeds=None, gaps=None) -> FlowSamples:
    """Per-timestamp (density, space-mean speed, flow) for a fleet run.

    Timestamps where any member speed or gap is unavailable are skipped, and
    so are those where a vessel stood still.  ``speeds`` and ``gaps`` (the
    run's speed_series per track, derive_gap per pair) are derived unless given.
    """
    speeds = speeds or [speed_series(tr) for tr in run.tracks]
    gaps = gaps or [derive_gap(a, b) for a, b in zip(run.tracks, run.tracks[1:])]
    series = list(speeds) + [(g.t, g.gap_m) for g in gaps]
    common = reduce(partial(np.intersect1d, assume_unique=True), [t for t, _ in series])
    at_common = [values[np.searchsorted(t, common)] for t, values in series]
    v, g = (np.array(part).reshape(len(part), len(common))
            for part in (at_common[:len(speeds)], at_common[len(speeds):]))
    moving = np.all(v > 0, axis=0)
    v_bar = harmonic_mean_speed(v[:, moving])
    k = fleet_density(g[:, moving], [tr.meta.length for tr in run.tracks[1:]])
    return FlowSamples(t=common[moving], density=k, mean_speed=v_bar, flow=k * v_bar,
                       stationary=int(np.count_nonzero(~moving)))


def density_from_flow_speed(flow: float, speed: float) -> float:
    """k = q / v (vessels/km); undefined for non-positive speed."""
    if speed <= 0:
        raise DomainError(f"density undefined for speed {speed} <= 0")
    return flow / speed


@np.errstate(all="ignore")  # SummaryStats rejects a result that overflows
def summary_stats(values: Sequence[float]) -> SummaryStats:
    """15th/50th/85th percentiles (linear interpolation) plus arithmetic mean."""
    if not len(values):
        raise DomainError("summary_stats of an empty list")
    arr = np.asarray(values, dtype=float)
    p15, p50, p85 = np.percentile(arr, [15, 50, 85])
    return SummaryStats(p15=float(p15), median=float(p50), p85=float(p85), mean=float(arr.mean()))
