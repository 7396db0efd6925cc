"""The lifting phase: stacks, the cell trie, open CADs, formula truth.

The CAD is a trie: a lifted cell holds its stack, from :func:`build_stack`,
as ``children``.  One walk, :func:`_lift`, builds it level by level: the full
CAD lifts every cell, an open CAD only its sectors.  Lifting works in a
relabeled coordinate space where variable i is the level i+1 variable of the
chosen ordering, so sample points are plain prefixes.  Cell indices follow the
odd/even convention: odd entries are sectors, even entries sections; a stack
over a base with r sections has 2r+1 cells.

Sector samples stay rational: midpoints of the gap between refined section
intervals, and the nearest integer beyond the outermost bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

from .algpoints import Nullified, roots_above, sign_at_point
from .errors import Deadline, NotWellOrientedError, checkpoint, scoped_deadline
from .formulas import (
    Atom,
    Const,
    Formula,
    atom_polys,
    enumerate_designations,
    identify_ecs,
    normalize,
    propagate_ecs,
    score_designation,
)
from .ordering import VarOrdering
from .polys import Poly, distinct_normalized
from .projection import ProjectionLevels, projection_levels
from .realroots import AlgebraicNumber, _merge_roots, _midpoint

__all__ = ["Cell", "Stack", "CADTree", "build_stack", "build_cad", "open_cad_fulldim",
           "evaluate_formula_on_cells"]


@dataclass
class Cell:
    """One CAD cell: positional index, exact sample point and its stack.

    ``zero_polys`` indexes the polynomials the cell's level lifted over (the
    stack's list) that vanish on the cell, discovered during stack
    construction.  ``children`` is the stack above the cell, None until it is
    lifted, and out of ``repr`` and equality; chains descend from the root, so
    a cell has no parent link.  Leaf signs come from :meth:`CADTree.leaf_signs`.
    """

    index: tuple[int, ...]
    sample: tuple[AlgebraicNumber, ...]
    zero_polys: frozenset[int] = frozenset()
    children: list[Cell] | None = field(default=None, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return sum(1 for i in self.index if i % 2 == 1)


@dataclass
class Stack:
    """Cells over one base cell, alternating sector/section, sectors outermost."""

    cells: list[Cell]


def sector_points(roots: Sequence[AlgebraicNumber]) -> list[Fraction]:
    """Rational sector samples around already-disjoint section intervals."""
    if not roots:
        return [Fraction(0)]
    out = [Fraction(math.floor(roots[0].lo))]
    for a, b in zip(roots, roots[1:]):
        out.append(_midpoint(a.hi, b.lo))
    out.append(Fraction(math.ceil(roots[-1].hi)))
    return out


def build_stack(base: Cell, polys: Sequence[Poly], shared: dict | None = None) -> Stack:
    """Split the line above ``base`` on the real roots of ``polys``.

    The lift variable is the next coordinate after the base sample.  Raises
    :class:`NotWellOrientedError` when a polynomial vanishes identically over
    a positive-dimensional base; over a zero-dimensional base such polynomials
    simply contribute no sections (their sign is 0 across the stack).
    ``shared`` is handed to :func:`roots_above`: one dict for every base cell
    of a level lets conjugate base cells share their eliminations.  The
    stack's cells become ``base.children``.
    """
    v = len(base.sample)
    found: list[tuple[AlgebraicNumber, int]] = []
    nullified: set[int] = set()
    for idx, p in enumerate(polys):
        checkpoint()
        if p.is_zero():
            raise ValueError("zero polynomial in lifting set")
        if not p.contains_var(v):
            # handled at the level where its own main variable is lifted
            continue
        try:
            found.extend((root, idx) for root in roots_above(p, base.sample, v, shared))
        except Nullified:
            if base.dimension > 0:
                raise NotWellOrientedError(
                    f"projection polynomial vanishes identically over the "
                    f"positive-dimensional cell {base.index}"
                )
            nullified.add(idx)
    # owners[i]: the polynomials vanishing on section i
    roots, owners = _merge_roots(found)
    nulls = frozenset(nullified)
    cells: list[Cell] = []
    for i, q in enumerate(sector_points(roots)):
        cells.append(Cell(base.index + (2 * i + 1,),
                          base.sample + (AlgebraicNumber.from_rational(q),), nulls))
        if i < len(roots):
            cells.append(Cell(base.index + (2 * i + 2,), base.sample + (roots[i],),
                              nulls | owners[i]))
    base.children = cells
    return Stack(cells)


def _lift(root: Cell, lifted: Sequence[Sequence[Poly]],
          keep: Callable[[Cell], bool] | None = None) -> list[list[Cell]]:
    """Lift the trie under ``root``, level k over ``lifted[k-1]``, level by level.

    Each level lifts the cells of the level below that ``keep`` accepts (all
    of them when it is None), through one root-isolation memo that is dropped
    when the level is done.  Returns the accepted cells of each level.
    """
    levels: list[list[Cell]] = []
    bases = [root]
    for polys in lifted:
        shared: dict = {}  # the level's point-free root-isolation work
        cells = [c for base in bases for c in build_stack(base, polys, shared).cells]
        bases = cells if keep is None else [c for c in cells if keep(c)]
        levels.append(bases)
    return levels


@dataclass
class CADTree:
    """The cell trie for one ordering: ``root`` and its lifted descendants.

    ``levels`` lists its cells level by level, leaves last; ``cell_count``
    follows the convention that a CAD of R^n has the leaf cells as its cells.
    ``input_polys`` are the problem polynomials (original variable labels,
    normalized); :meth:`leaf_signs` aligns with them.  ``_lifted[k]`` holds
    the polynomials lifted over at level k+1, the ones ``zero_polys`` indexes
    at that level (a designated level of an EC-mode tree lifts over its
    designated EC alone).  ``_signs_at`` maps (input, ancestor index) to the
    input's sign on that ancestor's cells, the one store that
    :meth:`leaf_signs` and formula truth both sign through.
    """

    ordering: VarOrdering
    input_polys: tuple[Poly, ...]
    root: Cell
    levels: list[list[Cell]]
    projection: ProjectionLevels
    mode: str
    designation_label: str = "-"
    _relabeled_inputs: tuple[Poly, ...] = ()
    _lifted: tuple[tuple[Poly, ...], ...] = ()
    _tower_polys: dict[tuple[int, ...], Poly | None] = field(default_factory=dict, repr=False)
    _signs_at: dict[tuple[int, tuple[int, ...]], int] = field(default_factory=dict, repr=False)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    @property
    def cell_count(self) -> int:
        return len(self.levels[-1])

    def leaves(self) -> list[Cell]:
        return self.levels[-1]

    def stack_sizes(self) -> list[int]:
        """Leaf-stack sizes in base-cell order (the printed tree's row widths)."""
        return [len(c.children) for c in ([self.root] + self.levels)[-2]]

    def leaf_signs(self, leaf: Cell) -> tuple[int, ...]:
        """The input polynomials' signs on ``leaf``, in ``input_polys`` order."""
        chain = self._chain(leaf)
        return tuple(self._sign(j, chain) for j in range(len(self._relabeled_inputs)))

    @cached_property
    def _where(self) -> list[tuple[int, int | None]]:
        """(m, i) per input: x_m is its highest variable, and i indexes it
        among the polynomials lifted over at level m+1, or is None."""
        lifted_index = [{e.normalized(): i for i, e in enumerate(level)} for level in self._lifted]
        out = []
        for p in self._relabeled_inputs:
            m = p.variables()[-1]
            out.append((m, lifted_index[m].get(p.normalized())))
        return out

    @cached_property
    def _input_index(self) -> dict[Poly, int]:
        return {p: j for j, p in enumerate(self.input_polys)}

    def _chain(self, leaf: Cell) -> list[Cell]:
        """The leaf's ancestors from level 1, then the leaf, read down the trie
        from ``root``: index entry i picks ``children[i - 1]``."""
        chain, cell = [], self.root
        for i in leaf.index:
            cell = cell.children[i - 1]
            chain.append(cell)
        return chain

    def _sign(self, j: int, chain: Sequence[Cell]) -> int:
        """Input j's sign on ``chain``'s leaf, signed once per ancestor.

        An input whose highest variable is x_m has one sign on each cell of
        level m+1 and every cell above it, so it is signed once per level-(m+1)
        ancestor, at that ancestor's sample and through its section tower, and
        every leaf above the ancestor reads that sign from ``_signs_at`` (for
        an input in the top variable the ancestor is the leaf itself).  The
        sign is 0 with no certificate when the input is, up to a rational
        factor, a polynomial lifted over at level m+1 that the ancestor lists
        in its ``zero_polys``; other zero signs are certified through the
        tower.
        """
        m, i = self._where[j]
        cell = chain[m]
        s = self._signs_at.get((j, cell.index))
        if s is None:
            checkpoint()
            zero = i is not None and i in cell.zero_polys
            s = 0 if zero else sign_at_point(self._relabeled_inputs[j], cell.sample,
                                             partial(self._tower_poly, chain))
            self._signs_at[j, cell.index] = s
        return s

    def _settled(self, f: Formula, chain: Sequence[Cell]) -> bool | None:
        """f's truth on ``chain``'s leaf when it needs no sign, else None.

        A constant needs none, nor does an atom whose sign the memo holds.
        Nor does an atom on an input lifted at its level where the ancestor's
        ``zero_polys``, which lists the input exactly where it vanishes,
        decides it: ``=`` and ``!=`` everywhere, any relation where it is 0.
        """
        if isinstance(f, Const):
            return f.value
        if not isinstance(f, Atom):
            return None
        j = self._input_index[f.poly]
        m, i = self._where[j]
        cell = chain[m]
        s = self._signs_at.get((j, cell.index))
        if s is None and i is not None:
            if i in cell.zero_polys:
                s = 0
            elif f.rel in ("=", "!="):
                return f.rel == "!="
        return None if s is None else f.holds_for_sign(s)

    def _truth(self, f: Formula, chain: Sequence[Cell]) -> bool:
        """Truth of the normalized formula f on ``chain``'s leaf.

        In each and/or node the children that need no sign go first, then the
        rest in order until one settles the node, so only the atoms the
        answer needs are signed (normalized formulas hold no ``not``).
        """
        t = self._settled(f, chain)
        if t is not None:
            return t
        if isinstance(f, Atom):
            return f.holds_for_sign(self._sign(self._input_index[f.poly], chain))
        settles = f.op == "or"  # the child value that decides the node
        pending = []
        for a in f.args:
            t = self._settled(a, chain)
            if t is None:
                pending.append(a)
            elif t == settles:
                return settles
        return settles if any(self._truth(a, chain) == settles for a in pending) else not settles

    def _tower_poly(self, chain: Sequence[Cell], k: int) -> Poly | None:
        """Coordinate k's entry in the section tower along ``chain``.

        ``chain`` lists a leaf's ancestors from level 1, then the leaf.  The
        entry is picked when a zero certificate first asks for it and memoized
        per cell: of the polynomials lifted over at level k+1 that vanish on
        ``chain[k]``, the lowest-degree one in x_k whose leading coefficient in
        x_k is nonzero at the base sample (signed through the tower below);
        None for a rational coordinate or when no such polynomial beats the
        coordinate's own defining polynomial in degree.
        """
        cell = chain[k]
        if cell.index in self._tower_polys:
            return self._tower_polys[cell.index]
        alpha = cell.sample[k]
        pick = None
        if not alpha.is_rational:
            owners = sorted((self._lifted[k][j] for j in cell.zero_polys), key=lambda e: e.degree(k))
            for e in owners:
                if not 0 < e.degree(k) < len(alpha.coeffs) - 1:
                    continue
                lc = e.leading_coeff(k)
                if sign_at_point(lc, cell.sample[:k], partial(self._tower_poly, chain)) != 0:
                    pick = e
                    break
        self._tower_polys[cell.index] = pick
        return pick

    def fulldim_leaf_count(self) -> int:
        return sum(1 for c in self.levels[-1] if c.dimension == len(c.index))


def _input_list(source) -> tuple[list[Poly], Formula | None]:
    """Accept a Problem-like object (input_polys()/formula) or an iterable of Poly."""
    if hasattr(source, "input_polys"):
        return list(source.input_polys()), getattr(source, "formula", None)
    return list(source), None


def build_cad(
    source,
    ordering: VarOrdering,
    mode: str = "sign",
    designation: int | None = None,
    deadline: Deadline | None = None,
) -> CADTree:
    """Full CAD of R^n for the input polynomials under one ordering.

    mode "sign": sign-invariant CAD of the input set.  mode "ec": reduced
    projection and lifting along a designated equational constraint; the
    designation is auto-selected by sotd score unless ``designation`` gives
    an index into the top level's EC candidates; a designation outside EC
    mode raises ValueError.
    """
    if mode not in ("sign", "ec"):
        raise ValueError(f"unknown CAD mode {mode!r}")
    if designation is not None and mode != "ec":
        raise ValueError(f"a designation applies in EC mode only, not in mode {mode!r}")
    polys, formula = _input_list(source)
    inputs = distinct_normalized(polys)
    if not inputs:
        raise ValueError("no nonconstant input polynomials")
    n = ordering.nvars
    relabeled = ordering.relabel(inputs)
    designations: dict[int, Poly] = {}
    label = "-"
    with scoped_deadline(deadline):
        if mode == "ec":
            designations, label, levels = _choose_designation(
                relabeled, formula, ordering, designation
            )
        else:
            levels = projection_levels(relabeled, n)
        # a designated level above level 1, or a designated top, lifts over its EC alone
        lifted = tuple((designations[k],) if k in designations and (k > 1 or n == 1)
                       else tuple(relabeled) if k == n else levels.level(k)
                       for k in range(1, n + 1))
        root = Cell((), ())
        tree_levels = _lift(root, lifted)
    return CADTree(ordering, tuple(inputs), root, tree_levels, levels, mode,
                   designation_label=label, _relabeled_inputs=tuple(relabeled),
                   _lifted=lifted)


def _choose_designation(
    relabeled: list[Poly],
    formula: Formula | None,
    ordering: VarOrdering,
    requested: int | None,
) -> tuple[dict[int, Poly], str, ProjectionLevels]:
    """Designations for EC mode, auto-scored by sotd unless one is requested.

    Returns a level->poly mapping in the relabeled space, a display label and
    the mapping's projection levels.  :func:`score_designation` scores every
    designation through one step memo, skipping any whose EC cannot project
    its level; the first strict minimum wins, and its levels are memo hits.
    With no equational constraints, or no designation that projects, the
    mapping is empty (degenerates to the sign-invariant build).
    """
    if formula is None:
        ecs = list(relabeled)  # a bare polynomial set is read as a conjunction of = 0
    else:
        ecs = ordering.relabel(identify_ecs(formula))
    mapping: dict[int, Poly] = {}
    steps: dict[tuple, tuple[Poly, ...] | ValueError] = {}
    if ecs and requested is not None:
        candidates = propagate_ecs(ecs)
        top = candidates[-1]
        if not 0 <= requested < len(top):
            raise ValueError(f"designation index {requested} out of range")
        # the requested EC on top, the first candidate on every level below
        mapping = {k: level[0] for k, level in enumerate(candidates[:-1], start=1) if level}
        mapping[len(candidates)] = top[requested]
    elif ecs:
        scored = []
        for d in enumerate_designations(propagate_ecs(ecs)):
            try:
                scored.append((score_designation(relabeled, d, steps), d))
            except ValueError:
                continue  # an EC that cannot project its level
        mapping = min(scored, key=lambda s: s[0], default=(None, {}))[1]
    return mapping, _label(mapping), projection_levels(relabeled, ordering.nvars, mapping, steps)


def _label(mapping: dict[int, Poly]) -> str:
    if not mapping:
        return "none"
    return ";".join(f"L{k}" for k in sorted(mapping))


def open_cad_fulldim(A: Iterable[Poly], ordering: VarOrdering) -> int:
    """Number of full-dimensional cells: the top sectors of a sectors-only trie.

    No stack over a sector is nullified: a level-k polynomial vanishes at a
    sample only where its leading coefficient in x_{k-1} does, which the
    projection emits (or it is a nonzero constant), and sector samples avoid
    every lower-level root.
    """
    relabeled = ordering.relabel(p for p in A if not p.is_constant())
    if not relabeled:
        return 1
    levels = projection_levels(relabeled, ordering.nvars).levels
    return len(_lift(Cell((), ()), levels, lambda c: c.index[-1] % 2 == 1)[-1])


def evaluate_formula_on_cells(
    tree: CADTree, formula: Formula, deadline: Deadline | None = None
) -> tuple[list[bool], int]:
    """Truth of the formula's matrix at every leaf sample, plus the true count.

    The formula's polynomials must be among the tree's input set.  Each
    leaf signs only the atoms its truth needs, through the tree's one sign
    memo, which :meth:`CADTree.leaf_signs` reads too.
    """
    if not set(tree.input_polys).issuperset(atom_polys(formula)):
        raise ValueError("formula polynomial not in the tree's input set")
    canonical = normalize(formula)
    truths = []
    with scoped_deadline(deadline):
        for leaf in tree.leaves():
            # zero sets can decide every atom, and then nothing below checks
            checkpoint()
            truths.append(tree._truth(canonical, tree._chain(leaf)))
    return truths, sum(truths)
