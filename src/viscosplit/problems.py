"""Ready-made mappings and problem instances.

The mappings are small enough to verify by hand: scaling maps, flip maps
that are demicontractive and not quasi-nonexpansive, and a scalar
oscillation map.  The instance builders combine them with projectable
feasible sets, an affine forward operator and a normal-cone inclusion, so
every catalog instance has a known solution and certified audit points.
"""
from __future__ import annotations

import functools
import inspect
from typing import Callable

import numpy as np

from .hilbert import Ball, Box, ConvexSet, WholeSpace, _is_real, as_vector
from .monotone import NormalCone, ZeroOperator, affine_op, identity_op, zero_op
from .schedules import Schedule, default_schedule
from .setvalued import (KIND_DEMICONTRACTIVE, KIND_NONEXPANSIVE, MultiMap,
                        SelectionRule)
from .solvers import ProblemInstance, UncertifiedPointError


def scaling_map(scale: float, dim: int, beta: float = 0.5,
                name: str = "") -> MultiMap:
    """T(x) = {scale * x}; for |scale| < 1 the only fixed point is 0.

    Declares ``points``: scale * x is elementwise, so a stack's rows equal
    their points' images bit for bit, and the class audits take the stack.
    """
    if not abs(scale) < 1.0:
        raise ValueError("scaling_map needs |scale| < 1 for a fixed point at 0")
    return MultiMap(kind=KIND_DEMICONTRACTIVE, constant=beta,
                    fixed_points=(np.zeros(dim),),
                    name=name or f"scale({scale})", points=lambda x: scale * x)


def flip_map(k: float, dim: int, name: str = "") -> MultiMap:
    """T(x) = {-k * x} for k >= 1, declared demicontractive with
    beta = (k - 1)/(k + 1), the smallest constant it has; 0 is its only
    fixed point.

    For k > 1 it is not quasi-nonexpansive, and its averaged map
    theta*I + (1 - theta)*T is quasi-nonexpansive exactly when
    theta >= beta.  Declares ``points``, elementwise as for
    :func:`scaling_map`.
    """
    if not (_is_real(k) and k >= 1.0):
        raise ValueError(f"flip_map needs a real k >= 1, got {k!r}")
    return MultiMap(kind=KIND_DEMICONTRACTIVE, constant=(k - 1) / (k + 1),
                    fixed_points=(np.zeros(dim),),
                    name=name or f"flip({k})", points=lambda x: -k * x)


def identity_map(dim: int) -> MultiMap:
    """T(x) = {x}; every point is fixed.  Declares ``points``: a stack is
    its own image, and the audits scan nothing more."""
    return MultiMap(kind=KIND_NONEXPANSIVE, fixed_points=(np.zeros(dim),),
                    name="identity", points=lambda x: x)


def make_example1(beta: float = 0.5) -> MultiMap:
    """The scalar halving map T(x) = {x/2}, declared demicontractive."""
    return scaling_map(0.5, 1, beta, name="halving_1d")


def make_example3(beta: float = 0.5) -> MultiMap:
    """The scalar oscillation map T(x) = {(2/3) x sin(1/x)}, T(0) = {0}.

    The factor (2/3) sin(1/x) stays in [-2/3, 2/3], so 0 is the only fixed
    point and the map is quasi-nonexpansive there, hence demicontractive
    for every constant in [0, 1).  Declares ``points``, elementwise: a
    1-vector is computed in Python floats, as cheap as a step needs, and
    any other array with the same float64 operations, so each row of a
    stack equals its point's image bit for bit.  A zero coordinate, +0.0
    or -0.0, maps to +0.0 on both paths, and nothing divides by zero.
    """

    def points(x):
        if x.shape == (1,):
            v = float(x[0])
            return np.array([(2.0 / 3.0) * v * np.sin(1.0 / v) if v else 0.0])
        zero = x == 0.0
        safe = x + zero  # 1 where x is 0
        return np.where(zero, 0.0, (2.0 / 3.0) * safe * np.sin(1.0 / safe))

    return MultiMap(kind=KIND_DEMICONTRACTIVE, constant=beta,
                    fixed_points=(np.zeros(1),), name="oscillation_1d",
                    points=points)


# --------------------------------------------------------------------------
# Instance builders
# --------------------------------------------------------------------------

def make_inclusion_instance(dim: int = 1, feasible: ConvexSet | None = None,
                            anchor=None, scale: float = 0.5,
                            beta: float = 0.5, phi_coef: float = 0.0,
                            phi_offset=None, gamma: float = 0.25,
                            eta: float = 1.0,
                            selection: SelectionRule = SelectionRule.METRIC,
                            maps: tuple | None = None,
                            name: str = "inclusion") -> ProblemInstance:
    """A normal-cone inclusion coupled with three multivalued mappings.

    The forward operator is x -> x - anchor (inverse strongly monotone with
    modulus 1), the inclusion part is the normal cone of ``feasible``, so
    the splitting solutions are exactly {P(anchor)}.  ``maps``, when given,
    must be three mappings; they default to one scaling map passed as T1,
    T2 and T3.  When P(anchor) is also their common fixed point it becomes a
    certified audit point of the instance; an error a mapping raises while
    it is certified propagates.  The default start is 0.9 in every
    coordinate.
    """
    return _inclusion_instance(0.9, **locals())


def _inclusion_instance(start: float, dim, feasible, anchor, scale, beta,
                        phi_coef, phi_offset, gamma, eta, selection, maps,
                        name) -> ProblemInstance:
    """:func:`make_inclusion_instance`'s instance with the default start
    ``start`` in every coordinate, its common point certified once."""
    if feasible is None:
        feasible = Box(-np.ones(dim), np.ones(dim))
    anchor = (np.zeros(dim) if anchor is None else as_vector(anchor, dim))
    if maps is None:
        maps = (scaling_map(scale, dim, beta),) * 3
    elif not (isinstance(maps, (tuple, list)) and len(maps) == 3
              and all(isinstance(t, MultiMap) for t in maps)):
        raise ValueError(f"maps must be three mappings, got {maps!r}")
    contraction = (zero_op(name="zero_contraction")
                   if phi_coef == 0.0 and phi_offset is None else
                   affine_op(phi_coef, phi_offset, dim, "affine_contraction"))
    solution = feasible.project(anchor)
    build = functools.partial(
        ProblemInstance, name=name, dim=dim, feasible=feasible,
        forward=affine_op(1.0, -anchor, dim, name="shifted_identity"),
        inclusion=NormalCone(feasible),
        t1=maps[0], t2=maps[1], t3=maps[2],
        contraction=contraction, strong=identity_op(),
        gamma=gamma, eta=eta, selection=selection,
        known_solution=solution,
        default_start=start * np.ones(dim))
    # Built once with the common point; only a failed certification builds
    # it again without.
    try:
        return build(known_common_points=(solution,))
    except UncertifiedPointError:
        return build()


def make_box_instance(dim: int = 1, scale: float = 0.5,
                      **overrides) -> ProblemInstance:
    """Inclusion over the unit box [-1, 1]^d with halving-style mappings."""
    return make_inclusion_instance(
        dim=dim, feasible=Box(-np.ones(dim), np.ones(dim)), scale=scale,
        name="inclusion_box", **overrides)


def make_ball_instance(dim: int = 2, scale: float = 0.5,
                       **overrides) -> ProblemInstance:
    """Inclusion over a ball through the origin; the solution sits on its
    boundary, which exercises the projection in earnest."""
    feasible = Ball(np.ones(dim), float(np.sqrt(dim)))
    # Built with its own start at once: replacing the start afterwards
    # would certify the common point a second time.
    args = inspect.signature(make_inclusion_instance).bind(
        dim=dim, feasible=feasible, scale=scale, name="inclusion_ball",
        **overrides)
    args.apply_defaults()
    return _inclusion_instance(0.75, **args.arguments)


def make_trivial_instance(dim: int = 1) -> ProblemInstance:
    """Identity mappings, zero operators, whole space.

    Every point is a common solution, so the iterate just contracts toward
    the origin by the factor 1 - alpha_n*(1 - mu_n) each step.  Useful as
    an exactly-predictable regression instance.
    """
    identity = identity_map(dim)
    return ProblemInstance(
        name="trivial_collapse", dim=dim, feasible=WholeSpace(),
        forward=zero_op(), inclusion=ZeroOperator(),
        t1=identity, t2=identity, t3=identity,
        contraction=zero_op(name="zero_contraction"), strong=identity_op(),
        gamma=0.25, eta=1.0,
        known_solution=np.zeros(dim),
        known_common_points=(np.zeros(dim), np.ones(dim), -np.ones(dim)),
        default_start=np.ones(dim))


def make_oscillation_instance(beta: float = 0.5) -> ProblemInstance:
    """The oscillation map on [-1, 1] with a pure normal-cone inclusion."""
    feasible = Box(-np.ones(1), np.ones(1))
    osc = make_example3(beta)
    return ProblemInstance(
        name="sine_oscillation", dim=1, feasible=feasible,
        forward=zero_op(), inclusion=NormalCone(feasible),
        t1=osc, t2=osc, t3=osc,
        contraction=zero_op(name="zero_contraction"), strong=identity_op(),
        gamma=0.25, eta=1.0,
        known_solution=np.zeros(1),
        known_common_points=(np.zeros(1),),
        default_start=np.array([0.9]))


def catalog() -> dict[str, Callable[..., ProblemInstance]]:
    """Instance builders by id, as accepted by the command line."""
    return {
        "inclusion_box": make_box_instance,
        "inclusion_ball": make_ball_instance,
        "trivial_collapse": make_trivial_instance,
        "sine_oscillation": make_oscillation_instance,
    }


def load_instance(instance_id: str, **overrides) -> ProblemInstance:
    builders = catalog()
    if instance_id not in builders:
        known = ", ".join(sorted(builders))
        raise KeyError(f"unknown instance {instance_id!r}; known: {known}")
    return builders[instance_id](**overrides)


def default_schedule_for(instance: ProblemInstance,
                         **overrides) -> Schedule:
    """The default admissible schedule matched to an instance's constants."""
    return default_schedule(instance.params, **overrides)


def grid_points(lo: float, hi: float, count: int, dim: int) -> np.ndarray:
    """A deterministic lattice of ``count`` points in [lo, hi]^dim.

    One dimension is a plain linspace; higher dimensions take the first
    ``count`` points of the smallest per-axis lattice that reaches it.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if dim == 1:
        return np.linspace(lo, hi, count).reshape(count, 1)
    per_axis = int(np.ceil(count ** (1.0 / dim)))
    axes = [np.linspace(lo, hi, per_axis)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=1)
    return lattice[:count]
