"""Integer-multiplicity polyhedral chains of dimension 0 and 1.

These are the numerical carriers of singularity data: point clouds with
integer weights (k=0) and weighted oriented segments (k=1), typically dual
lattice edges produced by the 3d extraction sweep.  Mass is
sum |multiplicity| * H^k(cell).
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .domains import Ball, Cube
from .errors import InvalidGeometry, InvalidParams, IoFailure

#: proximity guard around declared singular simplices: field evaluation
#: raises inside it, and a point this close to a domain's boundary cannot be
#: placed inside or outside the domain
SINGULAR_GUARD = 1e-12


@dataclass(frozen=True)
class SingularChain:
    """Polyhedral k-chain (k in {0,1}) in R^n with integer multiplicities.

    ``cells`` holds (simplex, multiplicity) pairs where a simplex is an
    (n,) point for k=0 or a (2, n) oriented segment for k=1.  ``spacing``
    is the dual-lattice step for extracted chains (0 for analytic ones).
    """

    n: int
    k: int
    cells: tuple = field(default_factory=tuple)
    spacing: float = 0.0

    def __post_init__(self):
        if self.k not in (0, 1):
            raise InvalidParams("chain dimension k must be 0 or 1")
        for simplex, mult in self.cells:
            if int(mult) != mult or mult == 0:
                raise InvalidParams("multiplicities must be nonzero integers")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def empty(n: int, k: int = 0) -> "SingularChain":
        return SingularChain(n, k, ())

    @staticmethod
    def points(n: int, items) -> "SingularChain":
        cells = tuple((np.asarray(p, dtype=float).reshape(n), int(m)) for p, m in items)
        return SingularChain(n, 0, cells)

    @staticmethod
    def segments(n: int, items, spacing: float = 0.0) -> "SingularChain":
        cells = tuple(
            (np.asarray(ab, dtype=float).reshape(2, n), int(m)) for ab, m in items
        )
        return SingularChain(n, 1, cells, spacing)

    # -- queries ------------------------------------------------------------

    def __len__(self):
        return len(self.cells)

    @functools.cached_property
    def _distance_cells(self) -> list:
        """``(a, ab, ab @ ab)`` per cell for :func:`distance_to_chain`, built
        on first use; ``ab`` is None for a point or a zero-length segment."""
        table = []
        for simplex, _ in self.cells:
            if self.k == 0:
                table.append((np.asarray(simplex, dtype=float), None, 0.0))
                continue
            a, b = simplex[0], simplex[1]
            ab = b - a
            denom = float(ab @ ab)
            table.append((a, ab, denom) if denom != 0.0 else (a, None, 0.0))
        return table

    def filtered(self, predicate) -> "SingularChain":
        """Sub-chain of cells whose midpoint satisfies ``predicate``."""
        kept = []
        for simplex, mult in self.cells:
            mid = simplex if self.k == 0 else 0.5 * (simplex[0] + simplex[1])
            if predicate(mid):
                kept.append((simplex, mult))
        return SingularChain(self.n, self.k, tuple(kept), self.spacing)

    def restricted(self, domain) -> "SingularChain":
        """The part of the chain inside ``domain``, a ``Ball`` or a ``Cube``.

        Segments are clipped in closed form to the closed domain: a ball by
        the roots of the ray-sphere quadratic, a cube slab by slab, each
        parameter clamped to [0, 1].  An endpoint inside stays bit for bit;
        a segment that meets the domain in one point or not at all is
        dropped.  Points strictly inside are kept.  ``InvalidGeometry`` is
        raised for a point within SINGULAR_GUARD of the boundary, which
        cannot be placed on either side, and for any other domain.
        """
        if not isinstance(domain, (Ball, Cube)) or domain.n != self.n:
            raise InvalidGeometry(
                f"a chain in R^{self.n} restricts only to a Ball or a Cube "
                f"in R^{self.n}, got {type(domain).__name__} in "
                f"R^{getattr(domain, 'n', '?')}")
        kept = []
        for simplex, mult in self.cells:
            if self.k == 0:
                depth = _depth(domain, simplex)
                if abs(depth) <= SINGULAR_GUARD:
                    raise InvalidGeometry(
                        f"singular point {tuple(map(float, simplex))} lies "
                        f"within {SINGULAR_GUARD:g} of the {domain.kind} "
                        "boundary")
                if depth > 0:
                    kept.append((simplex, mult))
                continue
            a, b = simplex[0], simplex[1]
            t0, t1 = _clip(domain, a, b - a)
            if t0 < t1:
                p0 = a if t0 == 0.0 else a + t0 * (b - a)
                p1 = b if t1 == 1.0 else a + t1 * (b - a)
                kept.append((np.stack([p0, p1]), mult))
        return SingularChain(self.n, self.k, tuple(kept), self.spacing)

    def current_in(self, domain) -> "SingularChain":
        """The singular current P(u) inside ``domain``: :meth:`restricted`,
        refused with ``InvalidGeometry`` when a 1-chain ends more than
        SINGULAR_GUARD inside the domain (``Ju = d(u x du) / 2``, so P(u)
        has no boundary there, and a chain that ends there is not all of
        it)."""
        inside = self.restricted(domain)
        ends = [] if inside.k == 0 else [
            p for p, _ in chain_boundary(inside).cells
            if _depth(domain, p) > SINGULAR_GUARD]
        if ends:
            where = " and ".join(f"({', '.join(f'{x:g}' for x in p)})"
                                 for p in ends)
            raise InvalidGeometry(f"the singular 1-chain ends at {where} "
                                  f"inside the {domain.kind}, but P(u) has "
                                  "no boundary there")
        return inside

    # -- serialization ------------------------------------------------------

    def to_csv(self, path) -> None:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(chain_csv_text(self))
        except OSError as exc:
            raise IoFailure(f"cannot write chain CSV to {path}: {exc}") from exc

    @staticmethod
    def from_csv(path) -> "SingularChain":
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        except OSError as exc:
            raise IoFailure(f"cannot read chain CSV from {path}: {exc}") from exc
        return chain_from_csv_text(text)


def _depth(domain, p) -> float:
    """Distance of the point ``p`` to the boundary of a ball or a cube,
    positive inside and negative outside (outside a cube, its largest
    excess over a face along one axis)."""
    w = np.asarray(p, dtype=float) - domain.center
    if isinstance(domain, Ball):
        return domain.radius - float(np.linalg.norm(w))
    return float(np.min(domain.half_side - np.abs(w)))


def _clip(domain, a, ab):
    """Parameters ``t0 <= t1`` in [0, 1] of the part of the segment
    ``a + t ab`` inside a ball or a cube (``t0 > t1`` when there is none)."""
    w = a - domain.center
    if isinstance(domain, Ball):
        qa, qb = float(ab @ ab), float(w @ ab)
        qc = float(w @ w) - domain.radius**2
        disc = qb * qb - qa * qc
        if qa == 0.0 or disc <= 0.0:
            return 1.0, 0.0
        root = np.sqrt(disc)
        return max((-qb - root) / qa, 0.0), min((-qb + root) / qa, 1.0)
    t0, t1 = 0.0, 1.0
    for wi, di in zip(w, ab):
        if di == 0.0:
            if abs(wi) > domain.half_side:
                return 1.0, 0.0
            continue
        lo, hi = sorted(((-domain.half_side - wi) / di,
                         (domain.half_side - wi) / di))
        t0, t1 = max(t0, lo), min(t1, hi)
    return t0, t1


def chain_csv_header(n: int) -> list[str]:
    return (
        ["k"]
        + [f"x0_{i}" for i in range(n)]
        + [f"x1_{i}" for i in range(n)]
        + ["multiplicity"]
    )


def chain_csv_text(chain: SingularChain) -> str:
    """CSV of the cells; a nonzero ``spacing`` adds a last column holding it.

    An empty chain that the header alone would not restore (k=1 or a
    spacing) gets one row of multiplicity 0 with blank coordinates, which
    carries k and the spacing but no cell.
    """
    spacing = [f"{chain.spacing:.17g}"] if chain.spacing else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(chain_csv_header(chain.n) + (["spacing"] if spacing else []))
    if not chain.cells and (chain.k or spacing):
        writer.writerow([str(chain.k)] + [""] * (2 * chain.n) + ["0"] + spacing)
    for simplex, mult in chain.cells:
        if chain.k == 0:
            a = b = np.asarray(simplex)
        else:
            a, b = simplex[0], simplex[1]
        row = (
            [str(chain.k)]
            + [f"{v:.17g}" for v in a]
            + [f"{v:.17g}" for v in b]
            + [str(int(mult))]
            + spacing
        )
        writer.writerow(row)
    return buf.getvalue()


def chain_from_csv_text(text: str) -> SingularChain:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise IoFailure("empty chain CSV")
    header = rows[0]
    has_spacing = header[-1] == "spacing"
    n = (len(header) - 2 - has_spacing) // 2
    spacing = 0.0
    empty_k = 0  # k of an empty chain, from its multiplicity-0 row
    cells_k0, cells_k1 = [], []
    for row in rows[1:]:
        if not row:
            continue
        k = int(row[0])
        mult = int(row[1 + 2 * n])
        if has_spacing:
            spacing = float(row[-1])
        if mult == 0:
            empty_k = k
            continue
        a = np.array([float(v) for v in row[1 : 1 + n]])
        b = np.array([float(v) for v in row[1 + n : 1 + 2 * n]])
        if k == 0:
            cells_k0.append((a, mult))
        else:
            cells_k1.append((np.stack([a, b]), mult))
    if cells_k1 and cells_k0:
        raise IoFailure("mixed-dimension chain CSV")
    if cells_k1:
        chain = SingularChain.segments(n, cells_k1)
    elif cells_k0:
        chain = SingularChain.points(n, cells_k0)
    else:
        chain = SingularChain.empty(n, empty_k)
    return replace(chain, spacing=spacing)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def chain_mass(chain: SingularChain) -> float:
    """Sum |d_i| * H^k of each cell: counts for k=0, weighted length for k=1."""
    if chain.k == 0:
        return float(sum(abs(m) for _, m in chain.cells))
    total = 0.0
    for simplex, mult in chain.cells:
        total += abs(mult) * float(np.linalg.norm(simplex[1] - simplex[0]))
    return total


def chain_boundary(chain: SingularChain) -> SingularChain:
    """Signed endpoint counts of a 1-chain; unbalanced vertices form a 0-chain."""
    if chain.k != 1:
        raise InvalidParams("chain_boundary expects a 1-chain")
    quantum = 0.5 * chain.spacing if chain.spacing > 0 else 1e-9
    acc: dict[tuple, list] = {}
    for simplex, mult in chain.cells:
        for point, sign in ((simplex[0], -1), (simplex[1], +1)):
            key = tuple(np.round(point / quantum).astype(np.int64))
            slot = acc.setdefault(key, [point, 0])
            slot[1] += sign * mult
    cells = [(p, total) for p, total in acc.values() if total != 0]
    cells.sort(key=lambda c: tuple(c[0]))
    return SingularChain.points(chain.n, cells)


def interior_boundary(chain: SingularChain, lo, hi, margin: float) -> SingularChain:
    """Boundary restricted to vertices at distance > margin from the box faces."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    bnd = chain_boundary(chain)
    return bnd.filtered(
        lambda p: bool(np.all(p > lo + margin) and np.all(p < hi - margin))
    )


#: points per block of ``distance_to_chain``: the (block, n) scratch arrays
#: of one block stay in cache while every cell of the chain is visited
DISTANCE_BLOCK = 2**14


def distance_to_chain(X: np.ndarray, chain: SingularChain) -> np.ndarray:
    """Euclidean distance from each point of X (N, n) to the chain support.

    The chain's cell table (``a``, ``ab`` and ``ab @ ab`` per cell) is
    built on the chain's first call and kept with it.  The points are taken
    in blocks of ``DISTANCE_BLOCK`` rows (one block for a call of at most
    that many), and each block visits every cell with a few preallocated
    (block, n) scratch arrays, so a call allocates the (N,) output and no
    (N, n) temporary.  Per point and cell the float recipe is fixed: a
    point or a zero-length segment ``a`` gives ``W = X - a``; a segment
    ``a -> b`` with ``ab = b - a`` gives ``t = clip((X - a) @ ab / (ab @ ab),
    0, 1)`` and ``W = X - (a + t * ab)``.  The squared distance is
    ``W[:, 0]**2 + W[:, 1]**2 + ...`` summed column by column in axis order,
    which is the order ``np.linalg.norm(W, axis=1)`` and
    ``domains.row_norms`` sum in (kept inline here because the minimum is
    taken before the ``sqrt``, in preallocated scratch arrays).  The
    minimum over cells is taken on squared distances and one ``sqrt`` is
    applied at the end; ``sqrt`` is correctly rounded and monotone, so this
    equals the minimum of the per-cell norms bit for bit (NaN propagates
    through both).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, n = X.shape
    out = np.empty(N)
    if len(chain.cells) == 0:
        out.fill(np.inf)
        return out
    segs = chain._distance_cells
    if N <= DISTANCE_BLOCK:
        bounds = (0, N)
    else:
        # a lone last row joins the block before it: numpy takes ``@`` of a
        # one-row matrix as a dot product, which can round otherwise than
        # the matrix-vector product that gives the same row in a longer call
        bounds = list(range(0, N, DISTANCE_BLOCK)) + [N]
        if bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
    W = np.empty((min(N, DISTANCE_BLOCK + 1), n))
    t = np.empty(W.shape[0])
    sq = np.empty(W.shape[0])
    for start, stop in zip(bounds, bounds[1:]):
        Xb = X[start:stop]
        m = Xb.shape[0]
        best, Wb, tb, sqb = out[start:stop], W[:m], t[:m], sq[:m]
        for i, (a, ab, denom) in enumerate(segs):
            np.subtract(Xb, a, out=Wb)
            if ab is not None:
                np.matmul(Wb, ab, out=tb)
                tb /= denom
                np.clip(tb, 0.0, 1.0, out=tb)
                np.multiply(tb[:, None], ab, out=Wb)
                np.add(a, Wb, out=Wb)
                np.subtract(Xb, Wb, out=Wb)
            acc = best if i == 0 else sqb
            np.multiply(Wb[:, 0], Wb[:, 0], out=acc)
            for j in range(1, n):  # t is spent: it holds each square
                acc += np.multiply(Wb[:, j], Wb[:, j], out=tb)
            if i:
                np.minimum(best, sqb, out=best)
        np.sqrt(best, out=best)
    return out
