"""Choice heuristics: variable orderings, TNoI, GB preconditioning, ML features.

Ordering heuristics return a :class:`HeuristicReport` with the chosen ordering
and the full per-candidate score table, so the bench harness can compare them
without re-running.  Exhaustive searches enumerate admissible orderings
lexicographically (base variable first) and keep the first argmin; sotd and
ndrr score the projection levels that ``build_cad`` lifts over.  Per-step
heuristics (Brown, greedy sotd) break ties by eliminating the highest-indexed
variable first, which makes a full tie come out as the declared order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .cadbuild import open_cad_fulldim
from .errors import Deadline, checkpoint, scoped_deadline
from .groebner import MonomialOrder, buchberger
from .ordering import QuantifierBlock, VarOrdering, admissible_orderings, ordering_segments
from .polys import Poly, degree_stats
from .projection import ProjectionLevels, mccallum_project, projection_levels, sotd_value
from .realroots import count_distinct_real_roots

__all__ = [
    "HeuristicReport",
    "ORDERING_HEURISTICS",
    "brown_order",
    "sotd_value",
    "order_by_sotd",
    "order_by_ndrr",
    "order_by_fulldim",
    "tnoi",
    "gb_precondition_decision",
    "ml_features",
    "ml_feature_names",
]


@dataclass(frozen=True)
class HeuristicReport:
    """Outcome of one heuristic: winner, per-candidate scores, tie partners.

    Scores are keyed by ordering or by variable index; ``row_prefix`` heads an index row.
    """

    heuristic: str
    chosen: VarOrdering
    scores: tuple[tuple[VarOrdering | int, object], ...]
    ties: tuple[VarOrdering, ...] = ()
    row_prefix: str = ""


def _clean(A: Iterable[Poly]) -> list[Poly]:
    return [p for p in A if not p.is_zero() and not p.is_constant()]


def brown_order(
    A: Iterable[Poly], nvars: int, blocks: Sequence[QuantifierBlock] = ()
) -> HeuristicReport:
    """Order variables by (overall degree, max term degree, term count).

    Variables with the smallest tuple are eliminated first; remaining ties are
    broken so that a full tie reproduces the declared order.  Works on the
    input polynomials only (no projection), so quantifier blocks are sorted
    independently.
    """
    stats = degree_stats(_clean(A), nvars)
    lift_order: list[int] = []
    for segment in ordering_segments(nvars, blocks):
        elim = sorted(segment, key=lambda v: (stats[v].as_tuple(), -v))
        lift_order.extend(reversed(elim))
    chosen = VarOrdering(tuple(lift_order))
    table = tuple((v, stats[v].as_tuple()) for v in range(nvars))
    return HeuristicReport("brown", chosen, table)


def _lifting_levels(polys: list[Poly], ordering: VarOrdering) -> ProjectionLevels:
    """The projection that ``build_cad`` computes: inputs relabeled by the ordering."""
    return projection_levels(ordering.relabel(polys), ordering.nvars)


def _argmin_over_orderings(
    name: str,
    A: Iterable[Poly],
    nvars: int,
    blocks: Sequence[QuantifierBlock],
    score: Callable[[list[Poly], VarOrdering], int],
) -> HeuristicReport:
    """Score every admissible ordering; the first minimum wins, later ones tie."""
    polys = _clean(A)
    scored = []
    for ordering in admissible_orderings(nvars, blocks):
        checkpoint()
        scored.append((ordering, score(polys, ordering)))
    best = min(s for _, s in scored)
    winners = [o for o, s in scored if s == best]
    return HeuristicReport(name, winners[0], tuple(scored), ties=tuple(winners[1:]))


def order_by_sotd(
    A: Iterable[Poly],
    nvars: int,
    blocks: Sequence[QuantifierBlock] = (),
    strategy: str = "exhaustive",
    deadline: Deadline | None = None,
) -> HeuristicReport:
    """Smallest projection, by sum of total degrees.

    exhaustive: evaluate every admissible ordering and take the argmin; each
    score is the sotd of the levels ``build_cad`` lifts over.
    greedy: commit one elimination at a time, choosing the variable whose
    projection adds the least sotd.  It projects in declared labels, since the
    lifting coordinates of the variables below are unknown until it ends.
    """
    with scoped_deadline(deadline):
        if strategy == "exhaustive":
            return _argmin_over_orderings(
                "sotd", A, nvars, blocks,
                lambda polys, ordering: sotd_value(_lifting_levels(polys, ordering)),
            )
        if strategy != "greedy":
            raise ValueError(f"unknown sotd strategy {strategy!r}")
        return _greedy_sotd(A, nvars, blocks)


def _greedy_sotd(
    A: Iterable[Poly], nvars: int, blocks: Sequence[QuantifierBlock]
) -> HeuristicReport:
    segments = ordering_segments(nvars, blocks)
    current = [p.normalized() for p in _clean(A)]
    elim: list[int] = []
    steps: list[tuple[int, int]] = []
    for segment in reversed(segments):  # innermost quantifier block first
        remaining = list(segment)
        while remaining:
            checkpoint()
            best_v = None
            best_add = None
            best_proj = None
            for v in sorted(remaining, reverse=True):
                proj = mccallum_project(current, v)
                add = sum(sum(e) for p in proj for e in p.terms)
                if best_add is None or add < best_add:
                    best_v, best_add, best_proj = v, add, proj
            steps.append((best_v, best_add))
            elim.append(best_v)
            remaining.remove(best_v)
            current = best_proj
    chosen = VarOrdering(tuple(reversed(elim)))
    return HeuristicReport("greedy-sotd", chosen, tuple(steps), row_prefix="eliminate ")


def order_by_ndrr(
    A: Iterable[Poly],
    nvars: int,
    blocks: Sequence[QuantifierBlock] = (),
    deadline: Deadline | None = None,
) -> HeuristicReport:
    """Fewest distinct real roots of level 1, the univariate polynomials in x_0."""

    def score(polys: list[Poly], ordering: VarOrdering) -> int:
        return count_distinct_real_roots(_lifting_levels(polys, ordering).level(1), 0)

    with scoped_deadline(deadline):
        return _argmin_over_orderings("ndrr", A, nvars, blocks, score)


def order_by_fulldim(
    A: Iterable[Poly],
    nvars: int,
    blocks: Sequence[QuantifierBlock] = (),
    deadline: Deadline | None = None,
) -> HeuristicReport:
    """Fewest full-dimensional cells; candidates are evaluated independently."""
    with scoped_deadline(deadline):
        return _argmin_over_orderings("fulldim", A, nvars, blocks, open_cad_fulldim)


# name -> chooser(polys, nvars, blocks), run under the caller's scoped deadline;
# the lambdas look each heuristic up at call time, so a rebinding takes effect
ORDERING_HEURISTICS: dict[str, Callable[..., HeuristicReport]] = {
    "brown": lambda A, nvars, blocks: brown_order(A, nvars, blocks),
    "sotd": lambda A, nvars, blocks: order_by_sotd(A, nvars, blocks, strategy="exhaustive"),
    "greedy-sotd": lambda A, nvars, blocks: order_by_sotd(A, nvars, blocks, strategy="greedy"),
    "ndrr": lambda A, nvars, blocks: order_by_ndrr(A, nvars, blocks),
    "fulldim": lambda A, nvars, blocks: order_by_fulldim(A, nvars, blocks),
}


def tnoi(A: Iterable[Poly]) -> int:
    """Total number of indeterminates: sum over the set of per-polynomial counts."""
    return sum(len(p.variables()) for p in A)


@dataclass(frozen=True)
class GBDecision:
    use_gb: bool
    before: int
    after: int
    basis: tuple[Poly, ...]


def gb_precondition_decision(
    E: Iterable[Poly], order: MonomialOrder | None = None
) -> GBDecision:
    """Replace conjoined equations by their Groebner basis iff TNoI decreases.

    The default monomial order is lex ranking the first declared variable
    highest, mirroring a CAD ordering whose base variable is declared first.
    """
    E = list(E)
    if not E:
        raise ValueError("no equational constraints")
    if order is None:
        order = MonomialOrder.lex(tuple(range(E[0].nvars)))
    basis = buchberger(E, order)
    before = tnoi(E)
    after = tnoi(basis)
    return GBDecision(use_gb=after < before, before=before, after=after, basis=tuple(basis))


def ml_feature_names(nvars: int) -> list[str]:
    names = ["n_polys", "n_vars", "max_total_degree"]
    for v in range(nvars):
        names.extend([f"x{v}_max_degree", f"x{v}_monomial_prop", f"x{v}_poly_prop"])
    return names


def ml_features(A: Iterable[Poly], nvars: int) -> list[float]:
    """Deterministic numeric problem features for ordering-selection models.

    Layout: [#polys, #vars, max total degree] then per variable
    [max degree, proportion of monomials containing it, proportion of
    polynomials containing it].
    """
    polys = _clean(A)
    n_monomials = sum(len(p.terms) for p in polys)
    max_td = max((p.total_degree() for p in polys), default=0)
    out: list[float] = [float(len(polys)), float(nvars), float(max_td)]
    for v in range(nvars):
        max_deg = max((p.degree(v) for p in polys), default=0)
        mono = sum(1 for p in polys for e in p.terms if e[v] > 0)
        poly_count = sum(1 for p in polys if p.contains_var(v))
        out.append(float(max_deg))
        out.append(mono / n_monomials if n_monomials else 0.0)
        out.append(poly_count / len(polys) if polys else 0.0)
    return out
