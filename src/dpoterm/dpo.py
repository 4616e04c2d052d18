"""Pushouts, pushout complements and step application.

Pushouts are computed as quotiented disjoint unions; on simple sorts
the quotient additionally merges parallel duplicates until a fixpoint,
which is the reflection into the subcategory of simple instances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import CGraph
from .morphism import Morphism, MorphismError, classify_monicity, enumerate_homs
from .sysfile import Framework, Rule


@dataclass(frozen=True)
class StepDiagram:
    rule: Rule
    m: Morphism
    u: Morphism
    l_prime: Morphism
    w: Morphism
    r_prime: Morphism

    @property
    def G(self) -> CGraph:
        return self.m.cod

    @property
    def H(self) -> CGraph:
        return self.w.cod


@dataclass(frozen=True)
class OrientedSquare:
    """Pushout square with span (alpha: A->B, beta: A->C) and cospan
    (beta_p: B->D, alpha_p: C->D); beta/beta_p vertical."""

    alpha: Morphism
    beta: Morphism
    beta_p: Morphism
    alpha_p: Morphism

    @property
    def D(self) -> CGraph:
        return self.beta_p.cod


def left_square(d: StepDiagram) -> OrientedSquare:
    return OrientedSquare(d.rule.l, d.u, d.m, d.l_prime)


def right_square(d: StepDiagram) -> OrientedSquare:
    return OrientedSquare(d.rule.r, d.u, d.w, d.r_prime)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = sorted((self.find(a), self.find(b)))
        self.parent[rb] = ra


def pushout(f: Morphism, g: Morphism) -> tuple[CGraph, Morphism, Morphism]:
    """Pushout of the span B <-f- A -g-> C.

    Returns (D, inB, inC). Elements of D are classes of B + C under the
    relation generated by f(a) ~ g(a), plus the simple-sort duplicate
    quotient.
    """
    if f.dom != g.dom:
        raise MorphismError("pushout: span legs have different domains")
    A, B, C = f.dom, f.cod, g.cod
    sig = A.sig
    ns = len(sig.objects)
    off = [B.n(s) for s in range(ns)]  # C element i is tagged off[s] + i
    uf = [_UnionFind(B.n(s) + C.n(s)) for s in range(ns)]
    for s in range(ns):
        for a in range(A.n(s)):
            uf[s].union(f.maps[s][a], off[s] + g.maps[s][a])

    def tagged_args(s: int, x: int) -> tuple[tuple[int, int], ...]:
        targets = sig.arg_sorts(s)
        if x < off[s]:
            return tuple((t, B.args[s][x][p]) for p, t in enumerate(targets))
        return tuple(
            (t, off[t] + C.args[s][x - off[s]][p]) for p, t in enumerate(targets)
        )

    def tagged_label(s: int, x: int) -> Optional[str]:
        return B.labels[s][x] if x < off[s] else C.labels[s][x - off[s]]

    # one pass in topo_order reaches the fixpoint: a merge in sort s
    # changes only the keys of sorts after s
    for s in sig.topo_order:
        if not sig.objects[s].simple:
            continue
        groups: dict[tuple, int] = {}
        for x in range(B.n(s) + C.n(s)):
            key = (
                tuple(uf[t].find(a) for t, a in tagged_args(s, x)),
                tagged_label(s, x),
            )
            if key in groups:
                uf[s].union(groups[key], x)
            else:
                groups[key] = x

    new_id: list[dict[int, int]] = [{} for _ in range(ns)]
    args: list[list[tuple[int, ...]]] = [[] for _ in range(ns)]
    labels: list[list[Optional[str]]] = [[] for _ in range(ns)]
    for s in sig.topo_order:
        for x in range(B.n(s) + C.n(s)):
            root = uf[s].find(x)
            if root in new_id[s]:
                continue
            new_id[s][root] = len(args[s])
            args[s].append(
                tuple(new_id[t][uf[t].find(a)] for t, a in tagged_args(s, root))
            )
            labels[s].append(tagged_label(s, root))
    D = CGraph(sig, tuple(tuple(a) for a in args), tuple(tuple(l) for l in labels))
    in_b = Morphism(
        B, D, tuple(tuple(new_id[s][uf[s].find(x)] for x in range(B.n(s))) for s in range(ns))
    )
    in_c = Morphism(
        C,
        D,
        tuple(
            tuple(new_id[s][uf[s].find(off[s] + x)] for x in range(C.n(s)))
            for s in range(ns)
        ),
    )
    return D, in_b, in_c


def pushout_complement(
    rule: Rule, m: Morphism
) -> Optional[tuple[CGraph, Morphism, Morphism]]:
    """Complement of K -l-> L -m-> G along the rule's left leg, which is
    (regular) monic as every Rule's is, or None when the gluing
    conditions (identification and dangling) fail.
    """
    l = rule.l
    if l.cod != m.dom:
        raise MorphismError("pushout complement: cod(l) != dom(m)")
    K, L, G = l.dom, l.cod, m.cod
    sig = L.sig
    ns = len(sig.objects)
    in_lk = [set(l.maps[s]) for s in range(ns)]
    # identification: elements merged by m must come from l(K)
    delete: list[set[int]] = [set() for _ in range(ns)]
    for s in range(ns):
        groups: dict[int, list[int]] = {}
        for i in range(L.n(s)):
            groups.setdefault(m.maps[s][i], []).append(i)
        for j, members in groups.items():
            outside = [i for i in members if i not in in_lk[s]]
            if outside and (len(members) > 1):
                return None
            if outside:
                delete[s].add(j)
    # dangling: no surviving element keeps an argument in the deleted part
    for s in range(ns):
        targets = sig.arg_sorts(s)
        for j in range(G.n(s)):
            if j in delete[s]:
                continue
            for pos, t in enumerate(targets):
                if G.args[s][j][pos] in delete[t]:
                    return None
    C, l_prime, new_id = kept_subgraph(
        G, [set(range(G.n(s))) - delete[s] for s in range(ns)]
    )
    u = Morphism(
        K,
        C,
        tuple(
            tuple(new_id[s][m.maps[s][l.maps[s][k]]] for k in range(K.n(s)))
            for s in range(ns)
        ),
    )
    return C, u, l_prime


def kept_subgraph(G: CGraph, keep) -> tuple[CGraph, Morphism, list[dict[int, int]]]:
    """The subgraph of G on the kept ids of each sort, numbered in
    ascending id order, with its inclusion into G and each sort's
    old-to-new id map. The arguments of a kept element must be kept."""
    sig = G.sig
    keep = [sorted(ids) for ids in keep]
    # every sort is numbered before any argument tuple is built, so the
    # order in which the signature declares its sorts does not matter
    new_id = [{j: x for x, j in enumerate(ids)} for ids in keep]
    args = tuple(
        tuple(
            tuple(new_id[t][a] for t, a in zip(sig.arg_sorts(s), G.args[s][j]))
            for j in ids
        )
        for s, ids in enumerate(keep)
    )
    labels = tuple(tuple(G.labels[s][j] for j in ids) for s, ids in enumerate(keep))
    C = CGraph(sig, args, labels)
    return C, Morphism(C, G, tuple(map(tuple, keep))), new_id


def enumerate_matches(
    rule: Rule, G: CGraph, fw: Framework
) -> list[tuple[Morphism, StepDiagram]]:
    """All matches of the rule in G admitted by the framework, each with
    its completed double-pushout diagram."""
    mono = fw.match_class in ("monic", "regular-monic")
    out = []
    for m in enumerate_homs(rule.left, G, mono_only=mono):
        if fw.match_class == "regular-monic" and not classify_monicity(m)["regularMonic"]:
            continue
        pc = pushout_complement(rule, m)
        if pc is None:
            continue
        C, u, l_prime = pc
        H, w, r_prime = pushout(rule.r, u)
        out.append((m, StepDiagram(rule, m, u, l_prime, w, r_prime)))
    return out
