"""Expected values computed apart from proxkit.

Every check the benchmark makes on the program's output rests on one of
these computations or on a theorem of the paper; none compares against a
stored copy of earlier output.  Finite distributive lattices are handled
through Birkhoff duality: a lattice is given by its poset of
join-irreducibles, and its elements are the downsets of that poset, kept
here as bitmasks.
"""

from __future__ import annotations

from itertools import product


def leq_closure(points, pairs):
    """The reflexive-transitive closure of generating pairs (a, b),
    meaning a <= b, as a set of pairs."""
    below = {p: {p} for p in points}
    for a, b in pairs:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for p in points:
            grown = set().union(*(below[q] for q in below[p]))
            if grown != below[p]:
                below[p] = grown
                changed = True
    return {(a, b) for b in points for a in below[b]}


def downsets(points, pairs):
    """Downsets of a finite poset as bitmasks over ``points``."""
    leq = leq_closure(points, pairs)
    idx = {p: i for i, p in enumerate(points)}
    out = []
    for mask in range(1 << len(points)):
        if all(
            not (mask >> idx[b]) & 1 or (mask >> idx[a]) & 1
            for a, b in leq
        ):
            out.append(mask)
    return out


def comparable_pairs(masks) -> int:
    """Number of pairs x <= y in a lattice of sets, x = y included."""
    return sum(1 for x in masks for y in masks if x & y == x)


def downset_names(points, pairs) -> list[str]:
    """Element names of the lattice of downsets, written as the sorted
    member list in braces."""
    out = []
    for mask in downsets(points, pairs):
        members = sorted(p for i, p in enumerate(points) if (mask >> i) & 1)
        out.append("{" + ",".join(members) + "}")
    return out


def canonical_order(names, pairs) -> list[str]:
    """Element names in proxkit's documented canonical order: by the number
    of elements below (a linear extension), ties by name."""
    leq = leq_closure(names, pairs)
    below = {b: sum(1 for a in names if (a, b) in leq) for b in names}
    return sorted(names, key=lambda b: (below[b], b))


def monotone_maps(src_points, src_pairs, dst_points, dst_pairs) -> int:
    """Number of order-preserving maps between two finite posets."""
    src_leq = leq_closure(src_points, src_pairs)
    dst_leq = leq_closure(dst_points, dst_pairs)
    count = 0
    for values in product(dst_points, repeat=len(src_points)):
        f = dict(zip(src_points, values))
        if all((f[a], f[b]) in dst_leq for a, b in src_leq):
            count += 1
    return count


def lattice_homs(src_join_irr, dst_join_irr) -> int:
    """Bounded lattice homomorphisms L -> M between finite distributive
    lattices given by their posets of join-irreducibles (points, pairs).

    By Birkhoff duality they correspond to order-preserving maps
    J(M) -> J(L), in the opposite direction.
    """
    (sp, spairs), (dp, dpairs) = src_join_irr, dst_join_irr
    return monotone_maps(dp, dpairs, sp, spairs)


# -- the finite frames that ``proxkit search`` generates ---------------------
#
# The search command's help text names them: total orders ``order<n>``,
# Boolean cubes ``cube<k>`` and ``vee``, the downsets of two points under a
# third.  Each is given here by its poset of join-irreducibles.


def chain_poset(m: int):
    pts = [f"p{i}" for i in range(m)]
    return pts, list(zip(pts, pts[1:]))


def antichain_poset(k: int):
    return [f"x{i}" for i in range(k)], []


def search_frame_poset(name: str):
    if name.startswith("order"):
        return chain_poset(int(name[len("order"):]) - 1)
    if name.startswith("cube"):
        return antichain_poset(int(name[len("cube"):]))
    if name == "vee":
        return ["a", "b", "c"], [("a", "c"), ("b", "c")]
    raise ValueError(f"unknown search frame {name!r}")


def search_frame_names(max_size: int) -> list[str]:
    """The frames a search over ``--max-size`` covers: orders of 2..max_size
    elements, cubes of at most max_size elements, and vee from 5 on."""
    out = [f"order{n}" for n in range(2, max_size + 1)]
    k = 1
    while 2 ** k <= max_size:
        out.append(f"cube{k}")
        k += 1
    if max_size >= 5:
        out.append("vee")
    return out


def search_frame_size(name: str) -> int:
    return len(downsets(*search_frame_poset(name)))


def search_frame_comparable(name: str) -> int:
    return comparable_pairs(downsets(*search_frame_poset(name)))


# -- chain instances ----------------------------------------------------------


def chain_describe(k: int, reflexive) -> str:
    """The instance string of an omega*k + k chain with the given
    reflexive limit indices."""
    segs = []
    for i in range(k):
        segs += [f"S{i}", f"L{i + 1}"]
    refl = ",".join(sorted(f"L{i}" for i in reflexive))
    return f"chain:[{','.join(segs)}],R=[{refl}]"


def chain_classification(k: int, reflexive) -> list[tuple[str, str]]:
    """(kind, ideal) of each class of round ideals, bottom to top.

    Round ideals of a chain are the principal downsets of reflexive
    elements and the sets strictly below a limit: one omega class of
    principal ideals per block, one ``Below`` class per limit, and a
    ``Prin`` class for each reflexive limit.
    """
    out = []
    for i in range(k):
        out.append(("omega", f"Prin(S{i}.n)"))
        out.append(("point", f"Below(L{i + 1})"))
        if i + 1 in reflexive:
            out.append(("point", f"Prin(L{i + 1})"))
    return out


def chain_rep_pair_counts(k: int, reflexive) -> tuple[int, int, int]:
    """(representatives, way-below pairs, maximal-relation pairs) on the
    class representatives of the ideal frame, two per omega class and one
    per point class.

    Way-below on a chain is the strict order plus the diagonal away from
    limits; the ideal frame's limits are the k ``Below`` classes.  The
    maximal relation adds the diagonal at ``Below(L)`` for reflexive L.
    """
    r = 2 * k + k + len(reflexive)
    strict = r * (r - 1) // 2
    wb = strict + (r - k)
    return r, wb, wb + len(reflexive)
