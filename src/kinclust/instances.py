"""Instance files, text forms of exact values, and a seeded generator.

An instance is a small JSON document::

    {"name": "optional", "trajectories": [{"x0": "0", "x1": "2"}, ...]}

Coordinates are strings (exact decimals like "-0.9" or ratios like "1/3"),
never floats, so a file round-trips through the exact kernel bit for bit.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal, Inexact, localcontext
from fractions import Fraction

from .geometry import MAX_EXPONENT, ScalarLike, Trajectory, TrajectorySet, _shown, as_scalar


class InstanceError(ValueError):
    """Malformed instance document or impossible generator configuration."""


def scalar_literal(v: Fraction) -> str:
    """Exact text form: a decimal when the denominator is 2^a * 5^b, else p/q."""
    num, den = v.numerator, v.denominator
    if den == 1:
        return str(num)
    # A terminating quotient has at most len(str(num)) + den.bit_length()
    # digits, so at that precision only a nonterminating one is inexact.
    with localcontext() as ctx:
        ctx.prec = len(str(num)) + den.bit_length()
        q = Decimal(num) / Decimal(den)
        if not ctx.flags[Inexact]:
            return f"{q:f}"
    return f"{num}/{den}"


def scalar_decimal(v: Fraction) -> str:
    """Decimal rendering rounded to 12 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(v.numerator) / Decimal(v.denominator))


def _json_int(literal: str) -> int:
    """int(literal), refused past MAX_EXPONENT digits (sign excluded) before it is built.

    CPython 3.10.7 and later would refuse it naming an interpreter setting,
    and earlier versions would build it.
    """
    if len(literal) - literal.startswith("-") > MAX_EXPONENT:
        raise ValueError(f"an integer of more than {MAX_EXPONENT} digits")
    return int(literal)


def load_json(data: bytes | str):
    """The value of a JSON document; InstanceError if malformed, too deep or an int is too long."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as e:
        raise InstanceError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise InstanceError("JSON document nested too deeply") from None
    except ValueError as e:  # an integer literal that _json_int refuses
        raise InstanceError(f"invalid JSON: {e}") from e


def parse_instance(data: bytes | str) -> TrajectorySet:
    """Parse an instance document into an exact TrajectorySet.

    Index order follows file order.  Errors carry the offending location
    (JSON line/column, or the trajectory index and field); a literal that
    cannot be parsed is echoed up to its first 40 characters and its length.
    """
    doc = load_json(data)
    if not isinstance(doc, dict):
        raise InstanceError("top-level value must be an object")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InstanceError("'name' must be a string when present")
    rows = doc.get("trajectories")
    if not isinstance(rows, list) or not rows:
        raise InstanceError("'trajectories' must be a nonempty list")

    trajectories = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise InstanceError(f"trajectories[{i}]: expected an object")
        values = {}
        for field in ("x0", "x1"):
            if field not in row:
                raise InstanceError(f"trajectories[{i}].{field}: missing")
            raw = row[field]
            if not isinstance(raw, str):
                raise InstanceError(
                    f"trajectories[{i}].{field}: must be a string (exact decimal or p/q)"
                )
            try:
                values[field] = as_scalar(raw)
            except ValueError as e:
                raise InstanceError(f"trajectories[{i}].{field}: cannot parse {_shown(raw)}") from e
        trajectories.append(Trajectory(values["x0"], values["x1"]))
    try:
        return TrajectorySet(tuple(trajectories))
    except ValueError as e:  # a duplicate trajectory; each coordinate is already bounded
        raise InstanceError(str(e)) from e


def dumps_instance(S: TrajectorySet, name: str | None = None) -> str:
    """Serialize a TrajectorySet to the instance document format."""
    doc: dict = {}
    if name is not None:
        doc["name"] = name
    doc["trajectories"] = [
        {"x0": scalar_literal(s.x0), "x1": scalar_literal(s.x1)} for s in S
    ]
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class GeneratorConfig:
    """Seeded sampling of duplicate-free instances on a rational grid.

    Initial positions come from x0_range and velocities from slope_range,
    both restricted to multiples of 1/grid.
    """

    seed: int
    n: int
    x0_range: tuple[ScalarLike, ScalarLike] = (0, 10)
    slope_range: tuple[ScalarLike, ScalarLike] = (-5, 5)
    grid: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0_range", tuple(as_scalar(v) for v in self.x0_range))
        object.__setattr__(
            self, "slope_range", tuple(as_scalar(v) for v in self.slope_range)
        )
        for name in ("n", "grid"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise InstanceError(f"{name} must be an int of at least 1, got {v!r}")
        for lo, hi in (self.x0_range, self.slope_range):
            if lo > hi:
                raise InstanceError(f"empty range ({lo}, {hi})")


def _grid_points(lo: Fraction, hi: Fraction, grid: int) -> tuple[int, int]:
    return math.ceil(lo * grid), math.floor(hi * grid)


def generate_instance(cfg: GeneratorConfig) -> TrajectorySet:
    """Deterministic duplicate-free sample for the given configuration."""
    rng = random.Random(cfg.seed)
    x_lo, x_hi = _grid_points(*cfg.x0_range, cfg.grid)
    v_lo, v_hi = _grid_points(*cfg.slope_range, cfg.grid)
    if x_lo > x_hi or v_lo > v_hi:
        raise InstanceError("ranges contain no grid point")
    capacity = (x_hi - x_lo + 1) * (v_hi - v_lo + 1)
    if capacity < cfg.n:
        raise InstanceError(
            f"grid supports only {capacity} distinct trajectories, need {cfg.n}"
        )

    # Distinct grid points are distinct trajectories: the dict keeps each
    # drawn point once, in first-drawn order, and needs no Fraction.
    points: dict[tuple[int, int], None] = {}
    attempts = 0
    while len(points) < cfg.n:
        attempts += 1
        if attempts > 1000 * cfg.n + 100000:
            raise InstanceError("sampling failed to find enough distinct trajectories")
        points.setdefault((rng.randint(x_lo, x_hi), rng.randint(v_lo, v_hi)))
    return TrajectorySet(
        tuple(Trajectory(Fraction(x, cfg.grid), Fraction(x + v, cfg.grid)) for x, v in points)
    )
