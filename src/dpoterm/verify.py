"""Dynamic validation of the static weighability assumptions.

Verified mode replays sampled rewrite steps of a certificate step's
rules against its weighted type graph and checks the decomposition
identity on the actual pushout squares: the left square must be exact,
the right square bounded above. A failure here would mean one of the
static admissibility arguments does not hold for the instance at hand,
so it is reported as a hard error.
"""
from __future__ import annotations

import random

from . import semiring as sr
from .dpo import OrientedSquare, enumerate_matches, left_square, right_square
from .graph import CGraph
from .morphism import Morphism, MorphismError, compose, enumerate_homs
from .signature import IndexSignature
from .sysfile import Framework, Rule
from .wtg import WeightedTypeGraph, weight_of_morphism

# random host graphs sampled per step, and rewrite steps replayed at most
HOSTS = 12
MAX_STEPS = 40


def random_instance(sig: IndexSignature, rng: random.Random, max_base=4, max_elems=4) -> CGraph:
    args = [[] for _ in sig.objects]
    labels = [[] for _ in sig.objects]
    for s in sig.base_sorts:
        names = sig.objects[s].labels
        for _ in range(rng.randint(1, max_base)):
            args[s].append(())
            labels[s].append(rng.choice(names) if names else None)
    for s in sig.topo_order:
        if sig.is_base(s):
            continue
        targets = sig.arg_sorts(s)
        want = rng.randint(0, max_elems)
        if not all(args[t] for t in targets):
            continue  # an empty argument sort leaves s empty
        tries = 0
        while len(args[s]) < want and tries < 50:
            tries += 1
            tup = tuple(rng.randrange(len(args[t])) for t in targets)
            lab = rng.choice(sig.element_labels(s))
            if sig.objects[s].simple and any(
                a == tup and l == lab for a, l in zip(args[s], labels[s])
            ):
                continue
            args[s].append(tup)
            labels[s].append(lab)
    return CGraph(sig, tuple(tuple(a) for a in args), tuple(tuple(l) for l in labels))


def verify_step_decompositions(
    wtg: WeightedTypeGraph, rules: list[Rule], fw: Framework, seed: int
) -> tuple[str, ...]:
    """The failed decomposition checks over the rewrite steps of up to
    MAX_STEPS matches of the rules in HOSTS seeded random graphs."""
    rng = random.Random(seed)
    sig = wtg.T.sig
    checked = 0
    failures: list[str] = []
    for _ in range(HOSTS):
        host = random_instance(sig, rng)
        for rule in rules:
            for m, diag in enumerate_matches(rule, host, fw):
                if checked >= MAX_STEPS:
                    return tuple(failures)
                checked += 1
                left = left_square(diag)
                right = right_square(diag)
                for phi in enumerate_homs(diag.G, wtg.T)[:3]:
                    got = verify_decomposition(wtg, left, phi)
                    if not got["exact"]:
                        failures.append(
                            f"left square of {rule.name} not exact: "
                            f"w={got['w']} bound={got['bound']}"
                        )
                for phi in enumerate_homs(diag.H, wtg.T)[:3]:
                    got = verify_decomposition(wtg, right, phi)
                    if not got["upper"]:
                        failures.append(
                            f"right square of {rule.name} not bounded: "
                            f"w={got['w']} bound={got['bound']}"
                        )
    return tuple(failures)


def verify_decomposition(
    wtg: WeightedTypeGraph, square: OrientedSquare, phi: Morphism
) -> dict:
    """Compare w(phi) against w(phi∘beta') ⊗ w(phi∘alpha' - (beta∘-)).

    exact holds on weighable squares, upper on bounded-above ones; both
    are reported so verified mode can flag a failed assumption.
    """
    if phi.dom != square.D:
        raise MorphismError("verify_decomposition: phi must start at the pushout")
    k = wtg.semiring
    left = weight_of_morphism(wtg, compose(phi, square.beta_p))
    right = weight_of_morphism(wtg, compose(phi, square.alpha_p), square.beta)
    bound = sr.s_mul(k, left, right)
    w = weight_of_morphism(wtg, phi)
    return {"exact": w == bound, "upper": sr.s_le(k, w, bound), "w": w, "bound": bound}
