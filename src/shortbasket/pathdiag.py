"""Demonstrations of where volatility fails as a risk measure.

Volatility is blind to direction: a steadily rising series and one that
whipsaws to the same endpoint can carry the same number. This module
measures paths (total return, annualized volatility of simple per-period
returns, count of direction changes) and generates verified pairs of
paths exhibiting three canonical failure modes:

* kind 1 - two strictly rising paths, equal total return; the bumpier
  one scores a worse return-to-volatility ratio despite never falling.
* kind 2 - a smooth path with interim losses beats a monotone riser on
  volatility, so the dip-free path looks riskier.
* kind 3 - of two equally negative paths, the one falling relentlessly
  shows more volatility than the one that keeps bouncing, making the
  steady faller look better on a return-to-risk basis.

Each generated pair ends at exactly the same value (the final point is
pinned, not approximated), and a clause-by-clause report records that
every stated property actually holds for the produced instance.

Statistics are accumulated with exact summation (``math.fsum``), so
they are invariant under reordering of the return sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GenerationFailure, PathTooShort
from .rng import NoiseStream

DEFAULT_PERIODS_PER_YEAR = 252.0
_MAX_ATTEMPTS = 100
_START_VALUE = 100.0


@dataclass(frozen=True)
class PathStats:
    """Summary of one positive-valued path."""

    total_return: float
    volatility: float
    direction_changes: int
    return_to_vol: float


def per_period_returns(path: Sequence[float]) -> list[float]:
    """Simple returns between consecutive points."""
    if len(path) < 2:
        raise PathTooShort(f"need >= 2 points, got {len(path)}")
    return [path[i + 1] / path[i] - 1.0 for i in range(len(path) - 1)]


def annualized_volatility(
    returns: Sequence[float], periods_per_year: float = DEFAULT_PERIODS_PER_YEAR
) -> float:
    """Sample (n-1) standard deviation of returns, scaled to a year.

    Exact-summation based, hence identical for any ordering of the same
    returns. Zero when fewer than two returns exist.
    """
    if len(returns) < 2:
        return 0.0
    mean = math.fsum(returns) / len(returns)
    var = math.fsum((r - mean) ** 2 for r in returns) / (len(returns) - 1)
    return math.sqrt(var) * math.sqrt(periods_per_year)


def direction_changes(returns: Sequence[float]) -> int:
    """Strict sign changes between consecutive nonzero returns."""
    signs = [1 if r > 0 else -1 for r in returns if r != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ratio_sentinel(numerator: float, denominator: float) -> float:
    if denominator == 0:
        if numerator > 0:
            return math.inf
        if numerator < 0:
            return -math.inf
        return 0.0
    return numerator / denominator


def path_stats(
    path: Sequence[float], periods_per_year: float = DEFAULT_PERIODS_PER_YEAR
) -> PathStats:
    """Return, volatility, and direction-change count of one path."""
    if len(path) < 2:
        raise PathTooShort(f"need >= 2 points, got {len(path)}")
    if periods_per_year <= 0:
        raise ValueError(f"periods_per_year must be positive, got {periods_per_year}")
    returns = per_period_returns(path)
    total = path[-1] / path[0] - 1.0
    vol = annualized_volatility(returns, periods_per_year)
    return PathStats(
        total_return=total,
        volatility=vol,
        direction_changes=direction_changes(returns),
        return_to_vol=_ratio_sentinel(total, vol),
    )


@dataclass(frozen=True)
class ScenarioClause:
    """One checked property of a generated pair."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ScenarioResult:
    """A generated path pair plus its verification report."""

    kind: int
    target_return: float
    seed: int
    path_a: tuple[float, ...]
    path_b: tuple[float, ...]
    stats_a: PathStats
    stats_b: PathStats
    clauses: tuple[ScenarioClause, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.clauses)

    def report_text(self) -> str:
        lines = [
            f"scenario kind {self.kind}, target return {self.target_return:+.4%}, seed {self.seed}",
            f"path a: return {self.stats_a.total_return:+.6%}, volatility {self.stats_a.volatility:.6%}, "
            f"direction changes {self.stats_a.direction_changes}, "
            f"return/vol {self.stats_a.return_to_vol:.4f}",
            f"path b: return {self.stats_b.total_return:+.6%}, volatility {self.stats_b.volatility:.6%}, "
            f"direction changes {self.stats_b.direction_changes}, "
            f"return/vol {self.stats_b.return_to_vol:.4f}",
        ]
        for clause in self.clauses:
            status = "PASS" if clause.passed else "FAIL"
            lines.append(f"  [{status}] {clause.name}: {clause.detail}")
        lines.append("verified" if self.ok else "NOT VERIFIED")
        return "\n".join(lines) + "\n"


def _path_from_log_steps(steps: np.ndarray, end_value: float) -> tuple[float, ...]:
    # Cumulative product from the start, then pin the final point so both
    # paths of a pair share the exact same endpoint.
    path = _START_VALUE * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    path[-1] = end_value
    return tuple(float(v) for v in path)


def _strictly_monotone(path: Sequence[float], sign: int) -> bool:
    return all((b - a) * sign > 0 for a, b in zip(path, path[1:]))


def _build_paths(
    kind: int, target_return: float, length: int, gen: np.random.Generator
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    n_steps = length - 1
    log_total = math.log1p(target_return)
    m = log_total / n_steps
    end_value = _START_VALUE * (1.0 + target_return)

    def ramp(amplitude: float) -> np.ndarray:
        noise = gen.uniform(-1.0, 1.0, n_steps)
        steps = m * (1.0 + amplitude * (noise - noise.mean()))
        return steps

    if kind == 1:
        path_a = _path_from_log_steps(ramp(0.3), end_value)
        path_b = _path_from_log_steps(ramp(0.85), end_value)
        return path_a, path_b

    if kind == 2:
        # a: still monotone, but with its rise concentrated in a few big
        # jumps, so its dispersion dwarfs b's single small dip.
        small = float(gen.uniform(0.05, 0.15)) * m
        n_big = min(3, max(1, n_steps // 6))
        steps_a = np.full(n_steps, small)
        big_positions = gen.choice(n_steps, size=n_big, replace=False)
        steps_a[big_positions] = (log_total - small * (n_steps - n_big)) / n_big
        path_a = _path_from_log_steps(steps_a, end_value)

        # b: one small dip, all other steps equal: low dispersion overall.
        dip_size = float(gen.uniform(0.1, 0.3)) * m
        dip_at = int(gen.integers(1, n_steps - 1))
        steps_b = np.full(n_steps, (log_total + dip_size) / (n_steps - 1))
        steps_b[dip_at] = -dip_size
        path_b = _path_from_log_steps(steps_b, end_value)
        return path_a, path_b

    # kind 3: target_return < 0, log steps negative on average.
    small = float(gen.uniform(0.05, 0.15)) * abs(m)
    n_big = min(3, max(1, n_steps // 6))
    steps_a = np.full(n_steps, -small)
    big_positions = gen.choice(n_steps, size=n_big, replace=False)
    steps_a[big_positions] = (log_total + small * (n_steps - n_big)) / n_big
    path_a = _path_from_log_steps(steps_a, end_value)

    # b: a minority of small up-steps breaks the decline repeatedly while
    # keeping every individual step modest, hence the lower volatility.
    up = float(gen.uniform(0.05, 0.2)) * abs(m)
    steps_b = np.empty(n_steps)
    n_up = sum(1 for t in range(n_steps) if t % 3 == 0)
    down = (n_up * up - log_total) / (n_steps - n_up)
    for t in range(n_steps):
        steps_b[t] = up if t % 3 == 0 else -down
    path_b = _path_from_log_steps(steps_b, end_value)
    return path_a, path_b


def _clauses(
    kind: int, stats_a: PathStats, stats_b: PathStats, path_a: Sequence[float], path_b: Sequence[float]
) -> tuple[ScenarioClause, ...]:
    equal_return = ScenarioClause(
        "equal_total_return",
        abs(stats_a.total_return - stats_b.total_return) <= 1e-9,
        f"{stats_a.total_return:.12f} vs {stats_b.total_return:.12f}",
    )
    if kind == 1:
        return (
            equal_return,
            ScenarioClause("a_strictly_increasing", _strictly_monotone(path_a, +1), "no down move in a"),
            ScenarioClause("b_strictly_increasing", _strictly_monotone(path_b, +1), "no down move in b"),
            ScenarioClause(
                "b_higher_volatility",
                stats_b.volatility > stats_a.volatility,
                f"{stats_b.volatility:.6f} > {stats_a.volatility:.6f}",
            ),
            ScenarioClause(
                "no_direction_changes",
                stats_a.direction_changes == 0 and stats_b.direction_changes == 0,
                f"{stats_a.direction_changes}, {stats_b.direction_changes}",
            ),
            ScenarioClause(
                "a_better_return_to_vol",
                stats_a.return_to_vol > stats_b.return_to_vol,
                f"{stats_a.return_to_vol:.6f} > {stats_b.return_to_vol:.6f}",
            ),
        )
    if kind == 2:
        has_down = any(r < 0 for r in per_period_returns(path_b))
        return (
            equal_return,
            ScenarioClause("a_strictly_increasing", _strictly_monotone(path_a, +1), "no down move in a"),
            ScenarioClause("b_has_falling_interval", has_down, "b contains >= 1 negative return"),
            ScenarioClause(
                "b_lower_volatility",
                stats_b.volatility < stats_a.volatility,
                f"{stats_b.volatility:.6f} < {stats_a.volatility:.6f}",
            ),
        )
    return (
        equal_return,
        ScenarioClause(
            "both_decline_overall",
            stats_a.total_return < 0 and stats_b.total_return < 0,
            f"{stats_a.total_return:.6f}, {stats_b.total_return:.6f}",
        ),
        ScenarioClause(
            "a_falls_more_steadily",
            stats_a.direction_changes < stats_b.direction_changes,
            f"{stats_a.direction_changes} < {stats_b.direction_changes} direction changes",
        ),
        ScenarioClause(
            "a_higher_volatility",
            stats_a.volatility > stats_b.volatility,
            f"{stats_a.volatility:.6f} > {stats_b.volatility:.6f}",
        ),
    )


def make_scenario(
    kind: int,
    target_return: float,
    length: int = 30,
    seed: int = 0,
    periods_per_year: float = DEFAULT_PERIODS_PER_YEAR,
) -> ScenarioResult:
    """Generate one verified path pair for a volatility-limitation demo."""
    if kind not in (1, 2, 3):
        raise ValueError(f"kind must be 1, 2, or 3, got {kind}")
    if length < 4:
        raise ValueError(f"length must be >= 4, got {length}")
    if kind in (1, 2) and not (math.isfinite(target_return) and target_return > 0):
        raise ValueError(f"kind {kind} needs a positive finite target return, got {target_return}")
    if kind == 3 and not -1 < target_return < 0:
        raise ValueError(f"kind 3 needs a target return in (-1, 0), got {target_return}")

    last: ScenarioResult | None = None
    for attempt in range(_MAX_ATTEMPTS):
        gen = NoiseStream(seed, (kind, attempt)).generator()
        path_a, path_b = _build_paths(kind, target_return, length, gen)
        stats_a = path_stats(path_a, periods_per_year)
        stats_b = path_stats(path_b, periods_per_year)
        result = ScenarioResult(
            kind=kind,
            target_return=target_return,
            seed=seed,
            path_a=path_a,
            path_b=path_b,
            stats_a=stats_a,
            stats_b=stats_b,
            clauses=_clauses(kind, stats_a, stats_b, path_a, path_b),
        )
        if result.ok:
            return result
        last = result
    assert last is not None
    failed = [c.name for c in last.clauses if not c.passed]
    raise GenerationFailure(
        f"kind {kind} scenario failed after {_MAX_ATTEMPTS} attempts; unmet clauses: {failed}"
    )
