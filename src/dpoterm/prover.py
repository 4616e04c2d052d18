"""Weighted-type-graph search and the relative-termination removal loop.

The structural candidate at base size n is the saturated graph; every
non-base element additionally ranges over an `absent` value, so the
search space is sparse subgraphs of the saturated graph with weights on
the surviving elements. All hom-sets into the saturated graph are
enumerated once up front; a masked assignment only filters them, which
keeps the inner loop free of graph algorithms.

Assignments are explored depth first inside growing cost tiers
(a weight w costs w − one, absence is free), so sparse low-weight
certificates are found quickly while exhaustion stays complete. An
undecided weight is bounded by the heaviest weight its tier still
affords.

Every leaf removes a rule through a live closure candidate, so the build
forces present the elements that every candidate requires, and it
cancels the factors that every term of both sides of a constraint
shares. Both only tighten the bounds, on subtrees that hold no leaf, so
the first leaf found, and its certificate, stays the same.

A tried weight re-evaluates only the constraints that deciding it can
make count, and stops at the first one that settles it: one that is
definitely active and not weakly decreasing, or, over a semiring that
is not strictly monotonic, one that leaves too few rules uniformly
decreasing. States only tighten down a branch, so neither shortcut
changes which assignments are visited.
"""
from __future__ import annotations

import itertools
import re
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import semiring as sr
from .checker import Certificate, CertStep, RuleEntry
from .dpo import kept_subgraph
from .graph import CGraph
from .morphism import Morphism, compose, enumerate_homs, extensions_by_restriction, image_elements
from .semiring import SEMIRINGS, SemiringDescriptor
from .signature import IndexSignature
from .sysfile import Framework, Rule, System, name_pairs, system_hash
from .wtg import (
    check_rule_admissibility,
    detect_collapse_epi,
    flower_bases,
    flower_morphism,
    saturation_closure,
)

DEFAULT_STRATEGY = (
    "repeat(arithmetic(size=2,bits=4,timeout=30) | "
    "tropical(size=2,bits=4,timeout=30) | arctic(size=2,bits=4,timeout=30))"
)

ABSENT = -1
# a DFS node tries all 2**bits weights between two reads of the clock, and
# _Problem lists them before the first one, so a larger bits would overrun
# the timeout or exhaust memory instead of stopping on time
MAX_BITS = 12


class StrategyError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    size: int
    bits: int
    timeout_seconds: int

    def __post_init__(self):
        if self.size < 1 or self.bits < 1:
            raise StrategyError("size and bits must be >= 1")
        if self.bits > MAX_BITS:
            raise StrategyError(f"bits must be <= {MAX_BITS}")


@dataclass(frozen=True)
class Basic:
    kind: str
    budget: SearchBudget


@dataclass(frozen=True)
class Seq:
    children: tuple


@dataclass(frozen=True)
class Par:
    children: tuple


@dataclass(frozen=True)
class Repeat:
    child: object


# one token, matched from the current position: an opening `repeat(` or
# `(`, a whole basic strategy kind(params), one of ; | ) or the end
_STRAT_TOKEN = re.compile(
    r"\s*(?P<tok>(?P<open>repeat\s*\(|\()"
    r"|(?P<kind>[A-Za-z_]+)\s*\((?P<params>[^()]*)\)|[;|)]|\Z)"
)
_PARAM = re.compile(r"\s*([A-Za-z_]+)\s*=\s*(\d+)\s*")
# _interp recurses once per level of nesting
MAX_NESTING = 100


def _basic(m: re.Match) -> Basic:
    """The basic strategy of a kind(params) token."""
    kind, at = m["kind"], m.start("params")
    if kind not in SEMIRINGS:
        raise StrategyError(f"unknown strategy {kind!r} at position {m.start('kind')}")
    params: dict[str, int] = {}
    for piece in m["params"].split(","):
        p = _PARAM.fullmatch(m.string, at, at + len(piece))
        if not p:
            raise StrategyError(f"expected name=number at position {at}")
        if p[1] in params:
            raise StrategyError(f"repeated parameter {p[1]!r} at position {p.start(1)}")
        params[p[1]] = int(p[2])
        at += len(piece) + 1
    if set(params) != {"size", "bits", "timeout"}:
        raise StrategyError(
            f"basic strategies take size=, bits=, timeout= at position {m.start('kind')}"
        )
    return Basic(kind, SearchBudget(params["size"], params["bits"], params["timeout"]))


def parse_strategy(text: str):
    """The tree of a strategy text; `|` binds tighter than `;`. The stack
    holds one frame per open parenthesis, the root first: its opening
    token and its `;`-separated groups of `|`-alternatives."""
    stack: list[tuple[str, list[list]]] = [("", [[]])]
    want_strategy = True
    pos = 0
    while True:
        m = _STRAT_TOKEN.match(text, pos)
        if not m:
            raise StrategyError(f"bad strategy syntax at position {pos}")
        tok, at = m["tok"], m.start("tok")
        if m["open"] or m["kind"]:
            if not want_strategy:
                raise StrategyError(f"expected ';', '|' or ')' at position {at}")
            if m["kind"]:
                stack[-1][1][-1].append(_basic(m))
                want_strategy = False
            elif len(stack) > MAX_NESTING:
                raise StrategyError(f"nesting deeper than {MAX_NESTING} at position {at}")
            else:
                stack.append((tok, [[]]))
        elif want_strategy:
            raise StrategyError(f"expected a strategy at position {at}")
        elif tok in (";", "|"):
            if tok == ";":
                stack[-1][1].append([])
            want_strategy = True
        else:
            # a ) closes the innermost frame, the end of the text the root
            if (tok == ")") != (len(stack) > 1):
                raise StrategyError(f"unbalanced parentheses at position {at}")
            opener, groups = stack.pop()
            pars = [g[0] if len(g) == 1 else Par(tuple(g)) for g in groups]
            node = pars[0] if len(pars) == 1 else Seq(tuple(pars))
            if opener.startswith("repeat"):
                node = Repeat(node)
            if not stack:
                return node
            stack[-1][1][-1].append(node)
        pos = m.end()


@dataclass
class SearchOutcome:
    status: str  # found | exhausted | timeout
    step: Optional[CertStep] = None
    warnings: tuple[str, ...] = ()
    # DFS nodes summed over the sizes searched; never enters certificates
    nodes: int = 0


class _Timeout(Exception):
    pass


class _Budget(Exception):
    """Deterministic node cap of a run given a node_limit."""


@dataclass
class _Cand:
    maps: tuple
    required: int
    tkc_cid: int
    monic_on_k: bool


def complete_type_graph(sig: IndexSignature, n: int) -> CGraph:
    """The saturated graph: n elements per label of every base sort,
    then exactly one element per (argument tuple, label) for every
    non-base sort, built in topological order so higher arities range
    over everything already constructed. A labelled sort is no argument
    target, so its label alone tells its base elements apart.
    """
    counts = [0] * len(sig.objects)
    args: list[list[tuple[int, ...]]] = [[] for _ in sig.objects]
    labels: list[list[Optional[str]]] = [[] for _ in sig.objects]
    for s in sig.topo_order:
        if sig.is_base(s):
            tuples = [()] * n
        else:
            tuples = itertools.product(*(range(counts[t]) for t in sig.arg_sorts(s)))
        for tup in tuples:
            for lab in sig.element_labels(s):
                args[s].append(tup)
                labels[s].append(lab)
        counts[s] = len(args[s])
    return CGraph(sig, tuple(tuple(a) for a in args), tuple(tuple(l) for l in labels))


class _Problem:
    """Everything precomputed for one (rules, framework, kind, size)."""

    def __init__(self, rules, fw: Framework, kind: SemiringDescriptor, bits: int, n: int,
                 *, epi: list[bool]):
        self.rules = rules
        self.fw = fw
        self.kind = kind
        sig: IndexSignature = rules[0].left.sig
        self.sig = sig
        self.T = complete_type_graph(sig, n)
        T = self.T
        ns = len(sig.objects)
        self.offset = [0] * ns
        acc = 0
        for s in range(ns):
            self.offset[s] = acc
            acc += T.n(s)
        self.nvars = acc
        # bit g of a support, absent or undecided mask is element g; base
        # elements are never absent, so their bit is 0, and neither are
        # the elements that _tighten forces present
        self.bit = [
            0 if sig.is_base(s) else 1 << (self.offset[s] + i)
            for s in range(ns)
            for i in range(T.n(s))
        ]

        self.admissible: dict[tuple[int, Optional[str]], bool] = {
            (s, lab): not any(check_rule_admissibility(r, fw, [(s, lab)]) for r in rules)
            for s in range(ns)
            for lab in sig.element_labels(s)
        }

        # the bit budget's weights, from the least legal one up
        neutral = self.neutral = kind.one
        weights = list(range(neutral, neutral + 2**bits))
        # one shared domain per (admissible, base) pair
        domains = {
            (adm, base): (weights if adm else [neutral]) + ([] if base else [ABSENT])
            for adm in (False, True)
            for base in (False, True)
        }
        self.domain: list[list[int]] = []
        self.wmax: list[int] = []
        for s in range(ns):
            for lab in T.labels[s]:
                adm = self.admissible[(s, lab)]
                self.domain.append(domains[adm, sig.is_base(s)])
                self.wmax.append(weights[-1] if adm else neutral)

        self._build_rules()
        self._build_symmetry()
        # a rule whose right side folds onto its left never decreases
        # strictly over the arithmetic or arctic semiring
        self.unremovable = [e and kind.kind in ("arithmetic", "arctic") for e in epi]
        # base weights first (they gate arithmetic growth arguments),
        # then non-base elements most-constrained first: occurrence count
        # over supports and exponents localizes refutations. The order,
        # the occurrences and the constraints each variable touches are
        # taken before _tighten, which leaves every found step as it was.
        occurrence = [0] * self.nvars
        # occurrences for the relevance test: (cid, None) when the var is
        # in the t_K support, else (cid, term support mask), and one
        # (closure cid, required mask) per closure candidate requiring it
        self.var_occ: list[list[tuple]] = [[] for _ in range(self.nvars)]
        self.var_cids: list[list[int]] = [[] for _ in range(self.nvars)]
        for cid, (_, tk_sup, lterms, rterms) in enumerate(self.constraints):
            touched = set(self._mask_gids(tk_sup))
            for g in touched:
                occurrence[g] += 1
                self.var_occ[g].append((cid, None))
            for sup, factors, k in lterms + rterms:
                sup_gids = self._mask_gids(sup)
                # a merged term counts once per hom that gave it
                for g in itertools.chain(sup_gids, set(factors)):
                    occurrence[g] += k
                term_gids = set(sup_gids).union(factors)
                for g in term_gids:
                    self.var_occ[g].append((cid, sup))
                touched.update(term_gids)
            for g in touched:
                self.var_cids[g].append(cid)
        for cands in self.cands:
            for cand in cands:
                occ = (cand.tkc_cid, cand.required)
                for g in self._mask_gids(cand.required):
                    self.var_occ[g].append(occ)
        branchable = [v for v in range(self.nvars) if len(self.domain[v]) > 1]
        # exactly the non-base elements have a mask bit
        self.var_order = sorted(
            branchable, key=lambda v: (self.bit[v] != 0, -occurrence[v], v)
        )
        # a weight w costs w - one and absence is free
        self.max_cost = sum(self.wmax[v] - neutral for v in branchable)
        self._tighten()
        self._trim_var_cids()

    def _tighten(self):
        """Two inferences from what every leaf holds, which prune only
        subtrees without a leaf. A leaf removes a rule through a live
        closure candidate, so an element that every candidate of a
        removable rule requires is present at every leaf: like a base
        element, it loses absence and its mask bit. Then the multiset of
        factors that every term of both sides of a constraint shares is
        divided out. Arithmetic weights are >= 1 and tropical and arctic
        weights finite, so no comparison changes, and an empty side stays
        0, +inf or -inf. Constraints are rewritten in place, and a term
        that neither step changes is kept as it is."""
        required = [
            cand.required
            for ri, cands in enumerate(self.cands)
            if not self.unremovable[ri]
            for cand in cands
        ]
        forced = -1 if required else 0
        for req in required:
            forced &= req
        for g in self._mask_gids(forced):
            self.bit[g] = 0
            # absence is the last value of a non-base domain
            self.domain[g] = self.domain[g][:-1]
        keep = ~forced
        for cid, (ri, tk_sup, lterms, rterms) in enumerate(self.constraints):
            terms = lterms + rterms
            # (factor, multiplicity) that every term holds
            common = []
            for g in set(terms[0][1]):
                n = min(factors.count(g) for _, factors, _ in terms)
                if n:
                    common.append((g, n))

            def reduced(term):
                sup, factors, k = term
                if not (common or sup & forced):
                    return term
                left = list(factors)
                for g, n in common:
                    for _ in range(n):
                        left.remove(g)
                return sup & keep, tuple(left), k

            self.constraints[cid] = (
                ri, tk_sup & keep, tuple(map(reduced, lterms)), tuple(map(reduced, rterms))
            )

    def _trim_var_cids(self):
        """Keep in var_cids[v] only the constraints that deciding v can
        make count: those a closure candidate reads, and those whose t_K
        support holds no variable after v in var_order. Any other one is
        not definitely active until its last t_K variable is decided,
        which re-evaluates it, so until then it blocks no rule; its stale
        state is read only for vacuity, which _relevant takes from the
        masks instead."""
        depth = {v: d for d, v in enumerate(self.var_order)}
        closure = {cand.tkc_cid for cands in self.cands for cand in cands}
        last = [
            max((depth[g] for g in self._mask_gids(tk_sup)), default=-1)
            for _, tk_sup, _, _ in self.constraints
        ]
        for v in self.var_order:
            self.var_cids[v] = [
                cid for cid in self.var_cids[v] if cid in closure or last[cid] <= depth[v]
            ]

    def _build_symmetry(self):
        """One gid permutation per transposition of two base elements
        that are neighbours among those of their label; the DFS keeps
        only lex-leading assignments. Saturated graphs have exactly one
        element per (tuple, label), so the automorphism that swaps two
        base elements of one label and fixes the others exists and is
        unique."""
        sig, T = self.sig, self.T
        self.sym_perms: list[tuple[int, ...]] = []
        for s in sig.base_sorts:
            # the labels of a base sort take turns (see complete_type_graph)
            step = len(sig.element_labels(s))
            for i in range(T.n(s) - step):
                pins = {(t, j): j for t in sig.base_sorts for j in range(T.n(t))}
                pins[s, i], pins[s, i + step] = i + step, i
                (h,) = enumerate_homs(T, T, constraint=pins)
                self.sym_perms.append(
                    tuple(self.offset[t] + j for t, row in enumerate(h.maps) for j in row)
                )

    @staticmethod
    def _mask_gids(mask: int):
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def _image_mask(self, maps: tuple[tuple[int, ...], ...]) -> int:
        m = 0
        for s, row in enumerate(maps):
            for j in row:
                m |= self.bit[self.offset[s] + j]
        return m

    def _build_rules(self):
        """One pass per rule over its sides' homs into T: the rule's
        constraints, then its closure candidates.

        constraint: (rule_idx, tk_support, L_terms, R_terms), one per
        t_K with an extension along l or r (any other weighs zero on
        both sides and constrains nothing), with
        term = (support, factors, k): factors lists each weighed gid once
        per element mapped onto it, and k counts the homs that gave this
        identical term, merged in first-occurrence order."""
        T = self.T
        fbases = list(flower_bases(T))
        self.constraints: list[tuple] = []
        self.cands: list[list[_Cand]] = []
        for ri, rule in enumerate(self.rules):
            lefts = extensions_by_restriction(rule.l, T)
            rights = extensions_by_restriction(rule.r, T)
            tk_cid = {}
            for t_k in {**lefts, **rights}:
                terms_by_side = []
                for side, groups in ((rule.l, lefts), (rule.r, rights)):
                    homs: dict[tuple, int] = {}
                    for t_y in groups.get(t_k, ()):
                        factors = []
                        for s, row in enumerate(t_y.maps):
                            lab_row = side.cod.labels[s]
                            for i, j in enumerate(row):
                                if self.admissible[(s, lab_row[i])]:
                                    factors.append(self.offset[s] + j)
                        term = (self._image_mask(t_y.maps), tuple(sorted(factors)))
                        homs[term] = homs.get(term, 0) + 1
                    terms_by_side.append(tuple((*t, k) for t, k in homs.items()))
                tk_cid[t_k] = len(self.constraints)
                self.constraints.append((ri, self._image_mask(t_k), *terms_by_side))
            # (closure, its t_K, the flower bases it may saturate with);
            # T realizes every tuple, so each flower morphism and each
            # saturation closure exists
            if self.fw.match_class == "unrestricted":
                cs = []
                for fb in fbases:
                    c = flower_morphism(rule.left, T, fb)
                    cs.append((c, compose(c, rule.l).maps, [fb]))
            else:
                # the left groups hold every hom L -> T
                cs = [(c, t_k, fbases) for t_k, homs in lefts.items() for c in homs]
            cands: dict[tuple, _Cand] = {}
            for c, t_kc, fbs in cs:
                image = image_elements(c)
                reqs = []
                for fb in fbs:
                    start = image | {(s, i) for (s, _), i in fb.items()}
                    req = 0
                    for s, i in saturation_closure(T, start):
                        req |= self.bit[self.offset[s] + i]
                    reqs.append(req)
                # the first of the least closures
                req = min(reqs, key=int.bit_count)
                if (c.maps, req) not in cands:
                    monic_on_k = all(len(set(row)) == len(row) for row in t_kc)
                    cands[c.maps, req] = _Cand(c.maps, req, tk_cid[t_kc], monic_on_k)
            self.cands.append(
                sorted(cands.values(), key=lambda cd: (not cd.monic_on_k, cd.maps))
            )


# constraint state tuple: (weak_p, strict_p, both_p, def_active)
_VACUOUS = (True, True, True, False)


class _Search:
    def __init__(self, problem: _Problem, deadline: float):
        self.p = problem
        self.deadline = deadline
        # the bound evaluator of this semiring, called per tried value as
        # self._eval(self, cid): a bound method kept on self would be a
        # reference cycle that holds the search and its problem until the
        # cyclic collector runs
        self._eval = {
            "arithmetic": _Search._eval_arithmetic,
            "tropical": _Search._eval_tropical,
            "arctic": _Search._eval_arctic,
        }[problem.kind.kind]
        # a variable outside var_order has one value; a forced element
        # that weighs one keeps its place in the order
        self.val: list[Optional[int]] = [d[0] for d in problem.domain]
        for v in problem.var_order:
            self.val[v] = None
        self.absent_mask = 0
        self.undecided_mask = 0
        for g in range(problem.nvars):
            if self.val[g] is None:
                self.undecided_mask |= problem.bit[g]
        # Weight bounds, read by the evaluators: hi bounds L sides above
        # and lo bounds R sides below, with lo == hi for a decided weight.
        # An undecided weight lies between the semiring's one and the
        # lesser of its maximum and cap, the heaviest weight that the cost
        # tier leaves it (see _dfs). Outside a run, cap is the largest
        # maximum, which caps nothing.
        self.lo = [problem.neutral if x is None else x for x in self.val]
        self.hi = [w if x is None else x for w, x in zip(problem.wmax, self.val)]
        self.uncapped = self.cap = max(problem.wmax)
        order = problem.var_order
        # the heaviest maximum weight below each depth: a cap at or above
        # it changes no bound
        self.deep_wmax = [0] * len(order)
        for d in range(len(order) - 1, 0, -1):
            self.deep_wmax[d - 1] = max(self.deep_wmax[d], problem.wmax[order[d]])
        self.cons = problem.constraints
        self.var_occ = problem.var_occ
        # the constraints that deciding each variable re-evaluates (see
        # _Problem._trim_var_cids); _dfs moves a blocker to the front of
        # its list, which changes the order of evaluation but no state it
        # leaves
        self.var_cids = problem.var_cids
        self.cstate = [self._eval(self, cid) for cid in range(len(self.cons))]
        # definitely active constraints that are not weakly decreasing,
        # over all rules; only these states count any (see _dfs)
        self.weak_blocked = sum(st[3] and not st[0] for st in self.cstate)
        self.uniform_blocked = [0] * len(problem.rules)
        for (ri, *_), st in zip(self.cons, self.cstate):
            if st[3] and not (st[1] or st[2]):
                self.uniform_blocked[ri] += 1
        self.nodes = 0

    # --- constraint evaluation ---------------------------------------

    # Each evaluator returns the constraint state for the current partial
    # assignment. A term is live unless its support holds an absent
    # element, and definite when its support holds no undecided one. The
    # L side is bounded above by the weights in hi and the R side below by
    # those in lo, so weak and strict decrease are over-approximated; a
    # side is emptyable when it has no definite live term.

    def _eval_arithmetic(self, cid):
        """Sums of k times the product of the factors' weights; an
        emptyable R side bounds at 0."""
        _, tk_sup, lterms, rterms = self.cons[cid]
        absent = self.absent_mask
        if tk_sup & absent:
            return _VACUOUS
        undecided = self.undecided_mask
        gone = absent | undecided
        def_active = not (tk_sup & undecided)
        lo = self.lo
        r_bot = 0
        rempty = True
        for sup, factors, k in rterms:
            if sup & gone:
                continue
            rempty = False
            for g in factors:
                k *= lo[g]
            r_bot += k
        hi = self.hi
        l_top = 0
        lempty = True
        for sup, factors, k in lterms:
            if sup & absent:
                continue
            if not sup & undecided:
                lempty = False
            for g in factors:
                k *= hi[g]
            l_top += k
        return (l_top >= r_bot, l_top > r_bot, lempty and rempty, def_active)

    def _eval_tropical(self, cid):
        """Minima of the factors' weight sums; min is idempotent, so k
        does not matter, and an empty side is +inf."""
        _, tk_sup, lterms, rterms = self.cons[cid]
        absent = self.absent_mask
        if tk_sup & absent:
            return _VACUOUS
        undecided = self.undecided_mask
        gone = absent | undecided
        hi = self.hi
        l_top = sr.POS_INF
        lempty = True
        for sup, factors, _ in lterms:
            if sup & gone:
                continue
            lempty = False
            top = 0
            for g in factors:
                top += hi[g]
            if top < l_top:
                l_top = top
        lo = self.lo
        r_bot = sr.POS_INF
        rempty = True
        for sup, factors, _ in rterms:
            if sup & absent:
                continue
            if not sup & undecided:
                rempty = False
            bot = 0
            for g in factors:
                bot += lo[g]
            if bot < r_bot:
                r_bot = bot
        return l_top >= r_bot, l_top > r_bot, lempty and rempty, not (tk_sup & undecided)

    def _eval_arctic(self, cid):
        """Maxima of the factors' weight sums; max is idempotent, so k
        does not matter, and an empty side is -inf."""
        _, tk_sup, lterms, rterms = self.cons[cid]
        absent = self.absent_mask
        if tk_sup & absent:
            return _VACUOUS
        undecided = self.undecided_mask
        gone = absent | undecided
        hi = self.hi
        l_top = sr.NEG_INF
        lempty = True
        for sup, factors, _ in lterms:
            if sup & absent:
                continue
            if not sup & undecided:
                lempty = False
            top = 0
            for g in factors:
                top += hi[g]
            if top > l_top:
                l_top = top
        lo = self.lo
        r_bot = sr.NEG_INF
        rempty = True
        for sup, factors, _ in rterms:
            if sup & gone:
                continue
            rempty = False
            bot = 0
            for g in factors:
                bot += lo[g]
            if bot > r_bot:
                r_bot = bot
        return l_top >= r_bot, l_top > r_bot, lempty and rempty, not (tk_sup & undecided)

    # --- rule feasibility ---------------------------------------------

    def _removal(self, ri):
        """(class, closure candidate) that can still remove rule ri, or
        None: the first live candidate strict at its closure t_K,
        uniform when no constraint blocks that, else closureDecreasing
        over a strictly monotonic semiring. _prune and _leaf reject
        first any assignment that some rule does not weakly decrease."""
        p = self.p
        if p.unremovable[ri]:
            return None
        if self.uniform_blocked[ri] == 0:
            cls = "uniform"
        elif p.kind.strictly_monotonic:
            cls = "closureDecreasing"
        else:
            return None
        absent = self.absent_mask
        for cand in p.cands[ri]:
            if not cand.required & absent and self.cstate[cand.tkc_cid][1]:
                return cls, cand
        return None

    def _prune(self, target: int) -> bool:
        # a weak-blocked rule is neither removable nor weak
        if self.weak_blocked:
            return True
        removable = 0
        for ri in range(len(self.p.rules)):
            if removable >= target:
                break
            if self._removal(ri) is not None:
                removable += 1
        return removable < target

    def _shut(self, cid, target: int) -> bool:
        """Whether uniform-blocking constraint cid leaves fewer than
        target rules that can still be uniformly decreasing."""
        ri, blocked, no = self.cons[cid][0], self.uniform_blocked, self.p.unremovable
        return sum(r != ri and not (blocked[r] or no[r]) for r in range(len(no))) < target

    # --- leaf extraction ------------------------------------------------

    def _leaf(self, target: int):
        if self.weak_blocked:
            return None
        entries = []
        removed = 0
        for ri, rule in enumerate(self.p.rules):
            chosen = self._removal(ri)
            if chosen is not None:
                removed += 1
                entries.append((rule.name, *chosen))
            else:
                entries.append((rule.name, "weak", None))
        return entries if removed >= max(1, target) else None

    # --- DFS -------------------------------------------------------------

    def run(self, tier: int, target: int, node_limit: Optional[int] = None):
        self.found = None
        self.node_stop = self.nodes + node_limit if node_limit else None
        self._dfs(0, 0, tier, target)
        if self.cap < self.uncapped:
            self._recap(0, self.uncapped)
        return self.found

    def _recap(self, first: int, cap: int):
        """Bound every weight from var_order[first] on by cap."""
        self.cap = cap
        hi, wmax = self.hi, self.p.wmax
        for u in self.p.var_order[first:]:
            w = wmax[u]
            hi[u] = w if w < cap else cap

    def _sym_ok(self) -> bool:
        """Lex-leader pruning: the assignment, read along the variable
        order, must not be strictly above any of its transposition
        images (undecided positions end the comparison)."""
        val = self.val
        order = self.p.var_order
        for perm in self.p.sym_perms:
            for v in order:
                a = val[v]
                b = val[perm[v]]
                if a is None or b is None:
                    break
                if a == b:
                    continue
                # absent ranks above every weight
                ka = (a == ABSENT, a)
                kb = (b == ABSENT, b)
                if ka > kb:
                    return False
                break
        return True

    def _relevant(self, v: int) -> bool:
        """A variable whose every occurrence sits in a dead term or a
        vacuous constraint, and that no feasible closure still requires,
        cannot influence anything; it is fixed without branching. A
        closure's t_K lies in what it requires, so its constraint is
        vacuous only when the closure is dead."""
        cons = self.cons
        absent = self.absent_mask
        for cid, tsup in self.var_occ[v]:
            # a vacuous constraint; its state may be stale
            if cons[cid][1] & absent:
                continue
            if tsup is None or not (tsup & absent):
                return True
        return False

    def _dfs(self, depth: int, cost: int, tier: int, target: int):
        self.nodes += 1
        if self.node_stop is not None and self.nodes > self.node_stop:
            raise _Budget
        # nodes can be few and expensive, so the clock is read at each one
        if time.monotonic() > self.deadline:
            raise _Timeout
        p = self.p
        if depth == len(p.var_order):
            entries = self._leaf(target)
            if entries is not None:
                self.found = (entries, list(self.val))
            return
        v = p.var_order[depth]
        bit = p.bit[v]
        if not self._relevant(v):
            values = (ABSENT,) if bit else (p.neutral,)
        else:
            values = p.domain[v]
        neutral = p.neutral
        wv = p.wmax[v]
        # a weight w costs w - one, so under a value costing extra no leaf
        # of this tier gives a deeper weight more than left - extra
        left = tier - cost + neutral
        deep = self.deep_wmax[depth]
        lo, hi = self.lo, self.hi
        cids = self.var_cids[v]
        cstate = self.cstate
        # over a semiring that is not strictly monotonic only a uniformly
        # decreasing rule is removed (see _removal)
        uniform_only = not p.kind.strictly_monotonic
        uniform_blocked = self.uniform_blocked
        uniform0 = uniform_blocked[:]
        for value in values:
            extra = 0 if value == ABSENT else value - neutral
            if cost + extra > tier:
                continue
            self.val[v] = lo[v] = hi[v] = value
            cap = left - extra
            applied = self.cap
            if cap != applied and (cap < deep or applied < deep):
                self._recap(depth + 1, cap)
            self.undecided_mask &= ~bit
            if value == ABSENT:
                self.absent_mask |= bit
            if self._sym_ok():
                # A definitely active constraint that is not weakly
                # decreasing decides the prune on its own: it is also
                # uniform-blocked (two empty sides always compare
                # weakly), so its rule is neither removable nor weak and
                # _prune would reject the value. It is never applied, so
                # weak_blocked keeps the count __init__ gave it. Over a
                # semiring that is not strictly monotonic so does a
                # uniform blocker that leaves fewer than target rules
                # uniformly decreasing: states only tighten, so no rule
                # it counts as blocked is unblocked by the constraints
                # still to evaluate. For the same reason a uniform-blocked
                # state changes only by ceasing to be weakly decreasing,
                # which makes it a blocker: a changed state that is
                # applied was not uniform-blocked, and counts only rise.
                saved = []
                blocker = None
                for i, cid in enumerate(cids):
                    st = self._eval(self, cid)
                    if st[3] and not (st[1] or st[2]) and (
                        not st[0] or uniform_only and self._shut(cid, target)
                    ):
                        blocker = i
                        break
                    old = cstate[cid]
                    if st != old:
                        saved.append((cid, old))
                        cstate[cid] = st
                        if st[3] and not (st[1] or st[2]):
                            uniform_blocked[self.cons[cid][0]] += 1
                if blocker is None:
                    if not self._prune(target):
                        self._dfs(depth + 1, cost + extra, tier, target)
                elif blocker:
                    # blockers repeat across sibling values: try it first
                    cids.insert(0, cids.pop(blocker))
                if saved:
                    for cid, old in saved:
                        cstate[cid] = old
                    uniform_blocked[:] = uniform0
            self.val[v] = None
            lo[v] = neutral
            applied = self.cap
            hi[v] = wv if wv < applied else applied
            self.undecided_mask |= bit
            if value == ABSENT:
                self.absent_mask &= ~bit
            if self.found is not None:
                return


def _tiers(max_cost: int):
    # small tiers find the sparse published-style certificates quickly;
    # anything heavier is rare enough that one unbounded walk beats
    # re-walking an almost-full tree per tier on unsatisfiable instances
    return [t for t in (0, 1, 2, 3, 4, 5, 6, 8) if t < max_cost] + [max_cost]


def _masked_step(problem: _Problem, entries, val) -> CertStep:
    """Materialize the pruned type graph and certificate entries."""
    p = problem
    sig, T = p.sig, p.T
    masked, _, new_id = kept_subgraph(
        T,
        [
            [i for i in range(T.n(s)) if val[p.offset[s] + i] != ABSENT]
            for s in range(len(sig.objects))
        ],
    )
    elements = []
    for s in range(len(sig.objects)):
        for i in range(T.n(s)):
            v = val[p.offset[s] + i]
            if v in (ABSENT, p.neutral):
                continue
            elements.append(
                (sig.objects[s].name, masked.name_of(s, new_id[s][i]), v)
            )
    rule_entries = []
    removed_names = []
    for name, classification, cand in entries:
        closure = None
        if cand is not None:
            rule = next(r for r in p.rules if r.name == name)
            maps = tuple(tuple(new_id[s][j] for j in row) for s, row in enumerate(cand.maps))
            closure = tuple(sorted(name_pairs(Morphism(rule.left, masked, maps))))
            removed_names.append(name)
        rule_entries.append(RuleEntry(name, classification, closure))
    return CertStep(
        p.kind.kind, masked, tuple(elements), tuple(rule_entries), tuple(removed_names)
    )


def _may_collapse(rule: Rule) -> bool:
    """False when no epimorphism e: R -> L can exist, so that
    detect_collapse_epi would find none: a surjective, label-preserving
    e needs R to have, per (sort, label), at least as many elements as
    L, and none that L lacks."""
    lc, rc = (Counter((s, x) for s, row in enumerate(g.labels) for x in row)
              for g in (rule.left, rule.right))
    return lc <= rc and rc.keys() <= lc.keys()


def search_wtg(
    rules, fw: Framework, kind: SemiringDescriptor, budget: SearchBudget
) -> SearchOutcome:
    """Search saturated type graphs of base size 1..budget.size for an
    assignment removing at least one rule; deterministic and complete
    within the budget. The first leaf of the first tier that has one is
    the step: it lists every rule its weights remove."""
    if not rules:
        return SearchOutcome("exhausted")
    deadline = time.monotonic() + budget.timeout_seconds
    epi = [_may_collapse(r) and detect_collapse_epi(r) for r in rules]
    warnings = []
    for r, collapses in zip(rules, epi):
        if collapses:
            warnings.append(
                f"rule {r.name} folds its right side onto its left "
                f"(e∘r = l for an epimorphism e); it cannot decrease strictly "
                f"over the arithmetic or arctic semiring"
            )
    nodes = 0
    for n in range(1, budget.size + 1):
        problem = _Problem(rules, fw, kind, budget.bits, n, epi=epi)
        search = _Search(problem, deadline)
        try:
            for tier in _tiers(problem.max_cost):
                found = search.run(tier, target=1)
                if found is not None:
                    step = _masked_step(problem, *found)
                    return SearchOutcome("found", step, tuple(warnings), nodes + search.nodes)
        except _Timeout:
            warnings.append(
                f"{kind.kind} search at size {n} hit its {budget.timeout_seconds} s "
                f"timeout before exhausting its budget"
            )
            return SearchOutcome(
                "timeout", warnings=tuple(warnings), nodes=nodes + search.nodes
            )
        nodes += search.nodes
    return SearchOutcome("exhausted", warnings=tuple(warnings), nodes=nodes)


# --- strategy interpretation ---------------------------------------------


@dataclass
class ProveResult:
    certificate: Certificate
    warnings: tuple[str, ...]


def _interp(node, system: System, remaining, steps, warnings) -> tuple[bool, list]:
    """Returns (success, remaining) and appends certificate steps."""
    if system.verdict([r.name for r in remaining]) != "failed":
        return False, remaining
    if isinstance(node, Basic):
        outcome = search_wtg(
            tuple(remaining), system.framework, SEMIRINGS[node.kind], node.budget
        )
        warnings.extend(w for w in outcome.warnings if w not in warnings)
        if outcome.status != "found":
            return False, remaining
        steps.append(outcome.step)
        left = [r for r in remaining if r.name not in outcome.step.removed]
        return True, left
    # a node that fails leaves remaining as it was
    if isinstance(node, (Seq, Par)):
        ok = False
        for child in node.children:
            good, remaining = _interp(child, system, remaining, steps, warnings)
            ok = ok or good
            if good and isinstance(node, Par):
                break
        return ok, remaining
    if isinstance(node, Repeat):
        ok = False
        while True:
            good, remaining = _interp(node.child, system, remaining, steps, warnings)
            if not good:
                return ok, remaining
            ok = True
    raise StrategyError(f"unknown strategy node {node!r}")


def run_strategy(system: System, strategy) -> ProveResult:
    if isinstance(strategy, str):
        strategy = parse_strategy(strategy)
    steps: list[CertStep] = []
    warnings: list[str] = []
    remaining = list(system.rules)
    _, remaining = _interp(strategy, system, remaining, steps, warnings)
    left_names = tuple(sorted(r.name for r in remaining))
    verdict = system.verdict(left_names)
    cert = Certificate(system_hash(system), tuple(steps), verdict, left_names)
    return ProveResult(cert, tuple(warnings))
