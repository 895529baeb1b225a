"""Finite groups as validated Cayley tables.

Elements are indices 0..order-1 with the identity pinned at index 0.
Every constructor routes through the same exhaustive validation, so a
`Group` instance can be assumed lawful everywhere downstream: Latin rows,
then the identity, then associativity by Light's test over a generating
set in O(n^2 log n). Latin rows, an identity and associativity make a
group, and a group's columns are Latin, so the columns are checked only
when the identity or Light's test fails, to name a bad column first.
An imported table is validated once, in its own labels, so every error
names the caller's indices; only then are the rows, a copy of the
caller's, relabelled in place to put the identity at 0. Groups are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, eq, itemgetter
from pathlib import Path
from typing import Sequence

from . import textfile

_BITS = bytes.maketrans(b"\x00\x01", b"01")  # bytes 0/1 to binary digits


class GroupError(Exception):
    """Base class for Cayley-table validation failures."""


class NotLatinSquare(GroupError):
    pass


class NoIdentity(GroupError):
    pass


class AssociativityViolation(GroupError):
    pass


class InvalidTwist(GroupError):
    pass


class NotAutomorphism(GroupError):
    pass


class NotHomomorphism(GroupError):
    pass


class NotCentral(GroupError):
    pass


class OrderMismatch(GroupError):
    pass


@dataclass(frozen=True)
class Group:
    """Finite group given by its full multiplication table.

    ``table[i][j]`` is the index of the product i*j, ``names[i]`` the
    display name of element i, and ``name`` an identifier for reports.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    name: str = "G"

    def _element(self, a: int) -> int:
        if not 0 <= a < self.order:  # a negative a would wrap
            raise IndexError(f"element {a} out of range for order {self.order}")
        return a

    def mul(self, a: int, b: int) -> int:
        return self.table[self._element(a)][self._element(b)]

    def inverse(self, a: int) -> int:
        return self.table[self._element(a)].index(0)

    def element_order(self, a: int) -> int:
        t, power = 1, self._element(a)
        while power != 0:
            power = self.table[power][a]
            t += 1
        return t

    @cached_property
    def is_abelian(self) -> bool:
        """Whether the center is the whole group; reads only `center_mask`,
        so an abelian group never computes a centralizer per element."""
        return self.center_mask.bit_count() == self.order

    def centralizer_mask(self, g: int) -> int:
        """Elements commuting with g, as a mask; always a subgroup containing
        the center."""
        return self._centralizer_masks[self._element(g)]

    def _commuting(self, g: int) -> int:
        """C(g) as a mask by one comparison of g's row with its column; the
        one place commutation is decided on the group side."""
        # Bit x is x*g == g*x, read as a binary numeral.
        col = map(itemgetter(g), self.table)
        return int(bytes(map(eq, col, self.table[g])).translate(_BITS)[::-1], 2)

    @cached_property
    def _centralizer_masks(self) -> tuple[int, ...]:
        """Centralizer of every element as a mask. Central elements get the
        full mask. For z in Z, xz commutes with what x does, so each coset xZ
        of a non-central x takes one `_commuting` comparison, given to its
        members x*z: n/|Z| - 1 comparisons in place of n."""
        n, center = self.order, self.center_mask
        full = (1 << n) - 1
        center_elements = [z for z in range(n) if center >> z & 1]
        masks = [full if center >> x & 1 else 0 for x in range(n)]
        for x, row in enumerate(self.table):
            if not masks[x]:  # no centralizer is empty, so x's coset is new
                c = self._commuting(x)
                for z in center_elements:
                    masks[row[z]] = c
        return tuple(masks)

    @cached_property
    def center_mask(self) -> int:
        """Mask of Z(G), the intersection of C(s) over a generating set S,
        |S| <= log2 n: an element commuting with each generator commutes
        with every product of them."""
        full = (1 << self.order) - 1
        return reduce(and_, map(self._commuting, _generating_set(self.table)), full)

    @cached_property
    def _twin_classes(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(centralizer, members) per twin class, the non-central elements
        with one centralizer, by least member."""
        members: dict[int, list[int]] = {}
        center = self.center_mask
        for e, c in enumerate(self._centralizer_masks):
            if not center >> e & 1:
                members.setdefault(c, []).append(e)
        return tuple((c, tuple(es)) for c, es in members.items())

    @cached_property
    def _class_pairs(self) -> tuple[tuple[int, bool, int, tuple[int, int]], ...]:
        """(tau, adjacent, pair count, first pair) per pair of twin classes and
        within each class of two or more, class by class.

        tau(x, y) = |G| - |C(x) ∪ C(y)| counts the common neighbours of x and
        y in the non-commuting graph, as Z lies in C(x), and x ~ y when y lies
        outside C(x). Both read only the two centralizers, so one pair stands
        for its class pair; twins commute, so no pair within a class is adjacent.
        """
        pairs, n, classes = [], self.order, self._twin_classes
        for i, (cx, xs) in enumerate(classes):
            if len(xs) > 1:
                pairs.append((n - cx.bit_count(), False, len(xs) * (len(xs) - 1) // 2, xs[:2]))
            pairs += [(n - (cx | cy).bit_count(), not cx >> ys[0] & 1, len(xs) * len(ys),
                       (xs[0], ys[0])) for cy, ys in classes[i + 1:]]
        return tuple(pairs)


def _validate_table(table: list[list[int]], name: str, identity: int = 0) -> None:
    """Raise the matching GroupError unless table is a group with that identity.

    The passes run in this order, each O(n^2) or less:
    - Latin rows: each row has n entries and its set is {0..n-1};
    - identity: row ``identity`` and column ``identity`` are 0..n-1;
    - associativity by Light's test (Rajagopalan & Schulman, SIAM J.
      Comput. 29, 2000): (x*y)*s == x*(y*s) for s in a generating set S,
      |S| <= log2 n, as one length-n column comparison per (s, y) on the
      transpose, O(n^2 |S|). A violation names the first failing triple
      by s in S, then x, then y.
    Latin rows give the inverses: row i is a permutation, so some j has
    i*j = 0. Latin rows, identity 0 and associativity make a group, and a
    group's columns are permutations. So the Latin column check runs only
    when the identity or Light's test fails, before that error is raised:
    a table with Latin rows and a bad column is refused as NotLatinSquare
    naming its first bad column, whatever else is wrong with it.
    """
    n = len(table)
    elements = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n or set(row) != elements:
            raise NotLatinSquare(f"{name}: row {i} is not a permutation of 0..{n - 1}")
    cols = list(zip(*table))  # cols[y][x] = x*y
    if list(table[identity]) != list(range(n)) or cols[identity] != tuple(range(n)):
        _check_columns(cols, name)
        raise NoIdentity(f"{name}: index {identity} is not a two-sided identity")
    # Light's test: the z with (x*y)*z == x*(y*z) for all x, y include the
    # identity and are closed under products, so checking z over a set
    # that generates the table suffices. Over x, (x*y)*s is column s read
    # through column y, composed in C by itemgetter, and x*(y*s) is column
    # y*s. A one-element table has S empty, so each getter gets n >= 2
    # indices and returns a tuple.
    for s in _generating_set(table, identity):
        col_s = cols[s]
        for y, col_y in enumerate(cols):
            if itemgetter(*col_y)(col_s) != cols[table[y][s]]:
                _check_columns(cols, name)
                x, y = next((x, y) for x in range(n) for y in range(n)
                            if col_s[table[x][y]] != table[x][col_s[y]])
                raise AssociativityViolation(
                    f"{name}: ({x}*{y})*{s} = {col_s[table[x][y]]}"
                    f" but {x}*({y}*{s}) = {table[x][col_s[y]]}"
                )


def _check_columns(cols: list[tuple[int, ...]], name: str) -> None:
    """Raise NotLatinSquare naming the first column that is not a permutation."""
    n = len(cols)
    elements = set(range(n))
    for j, col in enumerate(cols):
        if set(col) != elements:  # n entries, one per row
            raise NotLatinSquare(f"{name}: column {j} is not a permutation of 0..{n - 1}")


def _generating_set(table: list[list[int]], identity: int = 0) -> list[int]:
    """Greedy S whose right-multiplication closure from the identity is every element.

    Each new generator is the least element not yet reached. In a group
    the closure is the subgroup <S>, which at least doubles per
    generator, so |S| <= log2 n.
    """
    n = len(table)
    gens: list[int] = []
    reached = [False] * n
    reached[identity] = True
    while not all(reached):
        gens.append(reached.index(False))
        frontier = [x for x in range(n) if reached[x]]
        while frontier:
            nxt = []
            for x in frontier:
                row = table[x]
                for s in gens:
                    y = row[s]
                    if not reached[y]:
                        reached[y] = True
                        nxt.append(y)
            frontier = nxt
    return gens


def _finish(table: list[list[int]], names: Sequence[str], name: str,
            identity: int = 0) -> Group:
    _validate_table(table, name, identity)
    if identity:
        # Swap labels 0 <-> identity in the rows the caller handed over: rows,
        # then columns, then values; each row is a permutation by now.
        table[0], table[identity] = table[identity], table[0]
        for row in table:
            row[0], row[identity] = row[identity], row[0]
            a, b = row.index(0), row.index(identity)
            row[a], row[b] = identity, 0
        names = list(names)
        names[0], names[identity] = names[identity], names[0]
    return Group(order=len(table), table=tuple(map(tuple, table)), names=tuple(names), name=name)


def group_from_cayley_table(
    table: Sequence[Sequence[int]],
    names: Sequence[str] | None = None,
    name: str = "imported",
) -> Group:
    """Check row lengths, entry types and names (ValueError), take the first
    row reading 0..n-1 as the identity (NoIdentity if none), validate in the
    caller's labels, so errors name its indices, then move the identity to 0."""
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    rows = [list(row) for row in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        if not {int}.issuperset(map(type, row)):  # a bool is no int
            x = next(x for x in row if type(x) is not int)
            raise ValueError(f"row {i} contains {x!r}, not an int in 0..{n - 1}")
    if names is None:
        names = [f"x{i}" for i in range(n)]
    if len(names) != n:
        raise ValueError(f"{len(names)} names for {n} elements")
    if len(set(names)) != n:
        raise ValueError("element names are not distinct")
    try:
        identity = rows.index(list(range(n)))
    except ValueError:
        raise NoIdentity(f"{name}: no row reads 0..{n - 1}") from None
    return _finish(rows, names, name, identity)


def cyclic(n: int) -> Group:
    """Additive group of integers mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _finish(table, [str(i) for i in range(n)], f"Z{n}")


def dihedral(n: int) -> Group:
    """Symmetries of the regular n-gon, order 2n: r^n = s^2 = 1, s r s = r^-1.

    Indices 0..n-1 are r^i, indices n..2n-1 are r^i * s.
    """
    if n < 3:
        raise ValueError("dihedral requires n >= 3")
    return _finish(*_two_generator_table(n, twist=n - 1, flip_power=0))


def metacyclic(m: int, t: int) -> Group:
    """Order-2m group r^m = s^2 = 1, s r s = r^t. Requires t^2 = 1 (mod m)."""
    if m < 1:
        raise ValueError("m must be positive")
    t %= m
    if (t * t) % m != 1 % m:
        raise InvalidTwist(f"t={t} is not an involution exponent mod {m}")
    table, names, _ = _two_generator_table(m, twist=t, flip_power=0)
    return _finish(table, names, f"M({m},{t})")


def dicyclic(m: int) -> Group:
    """Generalized quaternion-type group of order 4m: a^2m = 1, b^2 = a^m, b a b^-1 = a^-1.

    Indices 0..2m-1 are a^i, indices 2m..4m-1 are a^i * b.
    """
    if m < 2:
        raise ValueError("dicyclic requires m >= 2")
    return _finish(*_two_generator_table(2 * m, twist=2 * m - 1, flip_power=m,
                                         letters=("a", "b"), name=f"Q{4 * m}"))


def _two_generator_table(
    n: int,
    twist: int,
    flip_power: int,
    letters: tuple[str, str] = ("r", "s"),
    name: str | None = None,
):
    """Table for <r, s | r^n = 1, s^2 = r^flip_power, s r s^-1 = r^twist>.

    Covers dihedral (twist = n-1, flip_power = 0), metacyclic split
    extensions, and dicyclic groups (flip_power = m on a 2m-cycle).
    """
    size = 2 * n
    rs, ss = list(range(n)), list(range(n, size))
    # with t = twist and f = flip_power: r^i r^j = r^(i+j), r^i (r^j s) = r^(i+j) s,
    # (r^i s) r^j = r^(i+tj) s and (r^i s)(r^j s) = r^(i+tj+f), so each row is
    # a rotation of rs and one of ss, those of r^i s read through j -> tj
    twisted = [twist * j % n for j in range(n)]
    table = [rs[i:] + rs[:i] + ss[i:] + ss[:i] for i in range(n)]
    for i in range(n):
        h = (i + flip_power) % n
        table.append(list(map((ss[i:] + ss[:i]).__getitem__, twisted))
                     + list(map((rs[h:] + rs[:h]).__getitem__, twisted)))
    a, b = letters
    names = [f"{a}^{i}" for i in range(n)] + [f"{a}^{i}*{b}" for i in range(n)]
    return table, names, name or f"D{size}"


def direct_product(g: Group, h: Group) -> Group:
    """Componentwise product on pairs, indexed (x, y) -> x*|H| + y."""
    ident = list(range(g.order))
    return _product(g, h, [ident] * h.order, f"{g.name}x{h.name}")


def semidirect_product(n: Group, h: Group, action: Sequence[Sequence[int]]) -> Group:
    """Split extension of n by h, with h acting through automorphisms of n.

    ``action[y]`` is the automorphism applied by h-element y, given as a
    permutation of n's element indices. The product rule is
    (x1, y1)(x2, y2) = (x1 * action[y1](x2), y1 y2). An action that is not a
    list of lists of ints is refused with ValueError (a bool is no int).
    """
    if not isinstance(action, (list, tuple)):
        raise ValueError(f"action must be a list of {h.order} permutations, "
                         f"not {type(action).__name__}")
    if len(action) != h.order:
        raise ValueError(f"need {h.order} automorphisms, got {len(action)}")
    for y, p in enumerate(action):
        if not isinstance(p, (list, tuple)):
            raise ValueError(f"action[{y}] must be a list of ints, not {type(p).__name__}")
        for x in p:
            if type(x) is not int:
                raise ValueError(f"action[{y}] contains {x!r}, not an int")
    perms = [list(p) for p in action]
    ident = list(range(n.order))
    for y, p in enumerate(perms):
        if sorted(p) != ident:
            raise NotAutomorphism(f"action[{y}] is not a permutation of N")
        for a in range(n.order):
            for b in range(n.order):
                if p[n.table[a][b]] != n.table[p[a]][p[b]]:
                    raise NotAutomorphism(
                        f"action[{y}] breaks the product at ({a},{b})"
                    )
    for y1 in range(h.order):
        for y2 in range(h.order):
            composed = [perms[y1][perms[y2][x]] for x in range(n.order)]
            if composed != perms[h.table[y1][y2]]:
                raise NotHomomorphism(
                    f"action({y1}*{y2}) differs from action({y1})∘action({y2})"
                )
    return _product(n, h, perms, f"({n.name}):({h.name})")


def _product(n: Group, h: Group, perms: list[list[int]], name: str) -> Group:
    """(x1, y1)(x2, y2) = (x1 * perms[y1][x2], y1 y2) on pairs, indexed
    (x, y) -> x*|H| + y; the one table loop of both products."""
    nh = h.order
    size = n.order * nh
    table = [[0] * size for _ in range(size)]
    for x1 in range(n.order):
        nr = n.table[x1]
        for y1 in range(nh):
            row = table[x1 * nh + y1]
            act, hr = perms[y1], h.table[y1]
            for x2 in range(n.order):
                base = nr[act[x2]] * nh
                for y2 in range(nh):
                    row[x2 * nh + y2] = base + hr[y2]
    names = [f"({gn},{hn})" for gn in n.names for hn in h.names]
    return _finish(table, names, name)


def central_product(g: Group, h: Group, zg: int, zh: int) -> Group:
    """Quotient of g x h identifying the central elements zg and zh.

    zg and zh must be central and of the same order k; the result is
    (g x h) / <(zg, zh^-1)> of order |g||h|/k. Cosets are enumerated
    explicitly and represented by their lexicographically least member,
    so the output table is canonical.
    """
    for grp, z in ((g, zg), (h, zh)):
        # The range check keeps a negative z from reaching a shift.
        if not (0 <= z < grp.order and grp.center_mask >> z & 1):
            raise NotCentral(f"element {z} is not central in {grp.name}")
    k = g.element_order(zg)
    if k != h.element_order(zh):
        raise OrderMismatch(
            f"orders differ: |{g.names[zg]}| = {k}, |{h.names[zh]}| = {h.element_order(zh)}"
        )
    prod = direct_product(g, h)
    nh = h.order
    gen = zg * nh + h.inverse(zh)

    coset_of = [-1] * prod.order
    reps: list[int] = []  # d is the least member of its coset: lower ones are assigned
    for d in range(prod.order):
        if coset_of[d] != -1:
            continue
        cur = d
        while coset_of[cur] == -1:  # around the coset d<gen>, back to d
            coset_of[cur] = len(reps)
            cur = prod.table[cur][gen]
        reps.append(d)
    if len(reps) * k != prod.order:
        raise OrderMismatch("coset enumeration produced an unexpected order")
    table = [
        [coset_of[prod.table[a][b]] for b in reps]
        for a in reps
    ]
    names = [prod.names[r] for r in reps]
    return _finish(table, names, f"({g.name})o({h.name})")


def load_cayley_table(path: str | Path) -> Group:
    """Read the `cayley` text format and return a validated Group."""

    def build(counts, names, rows):
        if len(rows) != counts[0]:
            raise ValueError(f"expected {counts[0]} table rows, found {len(rows)}")
        try:
            return group_from_cayley_table(rows, names, Path(path).stem)
        except GroupError as exc:  # textfile.read puts the path only before a ValueError
            raise type(exc)(f"{path}: {exc}") from None

    return textfile.read(path, "cayley <n>", "names", None, build)


def write_cayley_table(group: Group, path: str | Path) -> None:
    """Write the `cayley` text format (round-trips through load_cayley_table)."""
    textfile.write(path, ["cayley", group.order], "names", group.names, group.table)
