from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from dpoterm.graph import CGraph
from dpoterm.morphism import Morphism
from dpoterm.prover import DEFAULT_STRATEGY, run_strategy
from dpoterm.signature import parse_signature
from dpoterm.sysfile import Framework, _names_to_morphism, parse_system_file

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

GRAPH_SIG = parse_signature("V edge(V,V)")
LABELLED_SIG = parse_signature("V edge[a,b,c,d](V,V)")
SIMPLE_SIG = parse_signature("V edge(V,V)!")

UNRESTRICTED = Framework("unrestricted")
MONIC = Framework("monic")


def graph(sig, nodes, edges=(), sort="edge"):
    """Small builder: nodes is a name list, edges are (name, src, dst)
    or (name, label, src, dst) rows."""
    rows = [("V", n, None, ()) for n in nodes]
    for e in edges:
        if len(e) == 3:
            name, src, dst = e
            label = None
        else:
            name, label, src, dst = e
        rows.append((sort, name, label, (src, dst)))
    return CGraph.build(sig, rows)


def named_map(dom: CGraph, cod: CGraph, assignment: dict[str, str]) -> Morphism:
    """Morphism from element-name pairs; every dom element must appear."""
    m = _names_to_morphism(dom, cod, assignment)
    m.validate()
    return m


def random_host_containing(pattern: CGraph, rng: random.Random, extra_base=2, extra_elems=3) -> CGraph:
    """A random graph that embeds the pattern (its elements come first)."""
    sig = pattern.sig
    args = [list(pattern.args[s]) for s in range(len(sig.objects))]
    labels = [list(pattern.labels[s]) for s in range(len(sig.objects))]
    for s in sig.base_sorts:
        for _ in range(rng.randint(0, extra_base)):
            args[s].append(())
            labels[s].append(None)
    for s in sig.topo_order:
        if sig.is_base(s):
            continue
        targets = sig.arg_sorts(s)
        tries = 0
        want = rng.randint(0, extra_elems)
        added = 0
        while added < want and tries < 30:
            tries += 1
            tup = tuple(rng.randrange(len(args[t])) for t in targets)
            lab = rng.choice(sig.element_labels(s))
            if sig.objects[s].simple and any(
                a == tup and l == lab for a, l in zip(args[s], labels[s])
            ):
                continue
            args[s].append(tup)
            labels[s].append(lab)
            added += 1
    return CGraph(sig, tuple(tuple(a) for a in args), tuple(tuple(l) for l in labels))


@pytest.fixture
def rng():
    return random.Random(0xD1CE)


@pytest.fixture(scope="session")
def searched():
    """Every system in systems/ proved once with the default strategy:
    name -> (system, certificate, seconds)."""
    out = {}
    for path in sorted(SYSTEMS.glob("*.gts")):
        system = parse_system_file(path.read_text())
        t0 = time.monotonic()
        res = run_strategy(system, DEFAULT_STRATEGY)
        out[path.stem] = (system, res.certificate, time.monotonic() - t0)
    return out
