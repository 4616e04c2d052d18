"""The worked regression systems and their published weighted type
graphs, rebuilt as in-memory objects for the value-level tests."""
from __future__ import annotations

from dataclasses import replace

from dpoterm.graph import CGraph
from dpoterm.semiring import ARITHMETIC, TROPICAL
from dpoterm.signature import parse_signature
from dpoterm.sysfile import Rule
from dpoterm.wtg import WeightedTypeGraph, element_at

from conftest import MONIC, UNRESTRICTED, graph, named_map

GRAPH_SIG = parse_signature("V edge(V,V)")
STRING_SIG = parse_signature("V edge[a,b,c,d](V,V)")
TREE_SIG = parse_signature("V edge[0,1,c](V,V)")
SIMPLE_SIG = parse_signature("V edge(V,V)!")
HYPER_SIG = parse_signature("V plus(V,V,V) s(V,V) zero(V)")


def rule(name, sig, L, K, R, lmap, rmap):
    Lg = graph(sig, *L)
    Kg = graph(sig, *K)
    Rg = graph(sig, *R)
    return Rule(name, named_map(Kg, Lg, lmap), named_map(Kg, Rg, rmap))


def loop_unfolding():
    ru = rule(
        "unfold",
        GRAPH_SIG,
        (["x", "y"], [("loop", "x", "x")]),
        (["x", "y"], []),
        (["x", "y"], [("e", "x", "y")]),
        {"x": "x", "y": "y"},
        {"x": "x", "y": "y"},
    )
    T = graph(
        GRAPH_SIG,
        ["tx", "ty"],
        [("lx", "tx", "tx"), ("ly", "ty", "ty"), ("f", "tx", "ty"), ("g", "ty", "tx")],
    )
    wtg = WeightedTypeGraph(
        T,
        (element_at(T, "edge", None, 0, 2), element_at(T, "edge", None, 1, 2)),
        ARITHMETIC,
    )
    closure = named_map(ru.left, T, {"x": "tx", "y": "ty", "loop": "lx"})
    return ru, MONIC, wtg, closure


def reconfiguration():
    ru = rule(
        "tri",
        GRAPH_SIG,
        (["x", "y", "z"], [("xy", "x", "y"), ("yz", "y", "z"), ("zy", "z", "y")]),
        (["x", "y"], []),
        (["x", "y", "w"], [("xy", "x", "y"), ("yw", "y", "w"), ("wx", "w", "x")]),
        {"x": "x", "y": "y"},
        {"x": "x", "y": "y"},
    )
    T = graph(
        GRAPH_SIG,
        ["n0", "n1", "n2"],
        [
            ("e01", "n0", "n1"),
            ("e10", "n1", "n0"),
            ("l0", "n0", "n0"),
            ("l1", "n1", "n1"),
            ("e12", "n1", "n2"),
            ("e21", "n2", "n1"),
        ],
    )
    wtg = WeightedTypeGraph(T, (element_at(T, "edge", None, 4, 2),), ARITHMETIC)
    closure = named_map(
        ru.left, T, {"x": "n0", "y": "n1", "z": "n1", "xy": "e01", "yz": "l1", "zy": "l1"}
    )
    return ru, MONIC, wtg, closure


def simple_fold():
    """Edge folded into a loop plus two fresh nodes, on simple graphs.

    The interface carries the edge so the left leg is regular monic;
    this leaves the rewrite relation unchanged.
    """
    Lg = graph(SIMPLE_SIG, ["x", "y"], [("e", "x", "y")])
    Kg = Lg
    Rg = graph(SIMPLE_SIG, ["xy", "z", "w"], [("loop", "xy", "xy")])
    ru = Rule(
        "fold",
        named_map(Kg, Lg, {"x": "x", "y": "y", "e": "e"}),
        named_map(Kg, Rg, {"x": "xy", "y": "xy", "e": "loop"}),
    )
    T = graph(SIMPLE_SIG, ["txy", "tz"], [("tl", "txy", "txy")])
    wtg = WeightedTypeGraph(T, (element_at(T, "V", None, 0, 1),), TROPICAL)
    closure = named_map(ru.left, T, {"x": "txy", "y": "txy", "e": "tl"})
    return ru, MONIC, wtg, closure


def simple_fold_published_sides():
    """The published encoding with a discrete interface, as raw
    morphisms (not a valid rule here: the left leg is not regular
    monic). Used to recompute the published comparison values."""
    Lg = graph(SIMPLE_SIG, ["x", "y"], [("e", "x", "y")])
    Kg = graph(SIMPLE_SIG, ["x", "y"])
    Rg = graph(SIMPLE_SIG, ["xy", "z", "w"], [("loop", "xy", "xy")])
    l = named_map(Kg, Lg, {"x": "x", "y": "y"})
    r = named_map(Kg, Rg, {"x": "xy", "y": "xy"})
    T = graph(SIMPLE_SIG, ["txy", "tz"], [("tl", "txy", "txy")])
    wtg = WeightedTypeGraph(T, (element_at(T, "V", None, 0, 1),), TROPICAL)
    return l, r, wtg


def string_rules():
    rho = rule(
        "rho",
        STRING_SIG,
        (["x", "y", "z"], [("e1", "a", "x", "y"), ("e2", "b", "y", "z")]),
        (["x", "z"], []),
        (["x", "y", "z"], [("e1", "a", "x", "y"), ("e2", "c", "y", "z")]),
        {"x": "x", "z": "z"},
        {"x": "x", "z": "z"},
    )
    tau = rule(
        "tau",
        STRING_SIG,
        (["x", "y", "z"], [("e1", "c", "x", "y"), ("e2", "d", "y", "z")]),
        (["x", "z"], []),
        (["x", "y", "z"], [("e1", "d", "x", "y"), ("e2", "b", "y", "z")]),
        {"x": "x", "z": "z"},
        {"x": "x", "z": "z"},
    )
    return rho, tau


def string_t1():
    rho, tau = string_rules()
    T = graph(
        STRING_SIG,
        ["q", "u"],
        [
            ("la", "a", "q", "q"),
            ("lb", "b", "q", "q"),
            ("lc", "c", "q", "q"),
            ("ld", "d", "q", "q"),
            ("bu", "b", "u", "q"),
            ("au", "a", "q", "u"),
        ],
    )
    wtg = WeightedTypeGraph(T, (element_at(T, "edge", "a", 5, 2),), ARITHMETIC)
    closure = named_map(
        rho.left, T, {"x": "q", "y": "q", "z": "q", "e1": "la", "e2": "lb"}
    )
    return rho, tau, wtg, closure


def tree_rules():
    def edge_rule(name, lab_l, lab_r):
        return rule(
            name,
            TREE_SIG,
            (["x", "y"], [("e", lab_l, "y", "x")]),
            (["x"], []),
            (["x", "y"], [("e", lab_r, "y", "x")]),
            {"x": "x"},
            {"x": "x"},
        )

    def tree_rule(name, top_l, left_l, right_l, top_r, left_r, right_r):
        def tree(top, left, right):
            return (
                ["x", "y", "z", "m"],
                [
                    ("t", top, "z", "m"),
                    ("a", left, "m", "x"),
                    ("b", right, "m", "y"),
                ],
            )

        return rule(
            name,
            TREE_SIG,
            tree(top_l, left_l, right_l),
            (["x", "y", "z"], []),
            tree(top_r, left_r, right_r),
            {"x": "x", "y": "y", "z": "z"},
            {"x": "x", "y": "y", "z": "z"},
        )

    return [
        edge_rule("r1", "0", "1"),
        edge_rule("r2", "1", "c"),
        tree_rule("r3", "c", "0", "0", "0", "1", "0"),
        tree_rule("r4", "c", "1", "0", "0", "c", "0"),
        tree_rule("r5", "c", "0", "1", "0", "1", "1"),
        tree_rule("r6", "c", "1", "1", "0", "c", "1"),
    ]


def tree_t1():
    T = graph(
        TREE_SIG,
        ["p", "q"],
        [
            ("p0", "0", "p", "p"),
            ("p1", "1", "p", "p"),
            ("pc", "c", "p", "p"),
            ("qp0", "0", "q", "p"),
            ("qp1", "1", "q", "p"),
            ("q0", "0", "q", "q"),
            ("q1", "1", "q", "q"),
            ("qc", "c", "q", "q"),
        ],
    )
    names = {T.name_of(1, i): i for i in range(T.n(1))}
    wtg = WeightedTypeGraph(
        T,
        tuple(
            element_at(T, "edge", lab, names[n], 2)
            for n, lab in (("qp0", "0"), ("q0", "0"), ("q1", "1"), ("qc", "c"))
        ),
        ARITHMETIC,
    )
    return T, wtg


def tree_t2():
    T = graph(
        TREE_SIG,
        ["q"],
        [("l0", "0", "q", "q"), ("l1", "1", "q", "q"), ("lc", "c", "q", "q")],
    )
    wtg = WeightedTypeGraph(
        T,
        (element_at(T, "edge", "1", 1, 2), element_at(T, "edge", "c", 2, 3)),
        ARITHMETIC,
    )
    return T, wtg


def morphism_counting():
    ru = rule(
        "grow",
        GRAPH_SIG,
        (["x", "y"], []),
        (["x"], []),
        (["x", "y"], [("e", "x", "y")]),
        {"x": "x"},
        {"x": "x"},
    )
    T = graph(GRAPH_SIG, ["t0", "t1"], [("l0", "t0", "t0"), ("l1", "t1", "t1")])
    wtg = WeightedTypeGraph(T, (), ARITHMETIC)
    closure = named_map(ru.left, T, {"x": "t0", "y": "t1"})
    return ru, UNRESTRICTED, wtg, closure


def limitations_rules():
    Lg = CGraph.build(
        HYPER_SIG,
        [
            ("V", "x", None, ()),
            ("V", "y", None, ()),
            ("V", "z", None, ()),
            ("plus", "p", None, ("x", "y", "z")),
            ("zero", "o", None, ("z",)),
        ],
    )
    Kg = CGraph.build(
        HYPER_SIG,
        [
            ("V", "x", None, ()),
            ("V", "y", None, ()),
            ("V", "z", None, ()),
            ("zero", "o", None, ("z",)),
        ],
    )
    Rg = CGraph.build(
        HYPER_SIG,
        [("V", "xy", None, ()), ("V", "z", None, ()), ("zero", "o", None, ("z",))],
    )
    rho = Rule(
        "rho",
        named_map(Kg, Lg, {"x": "x", "y": "y", "z": "z", "o": "o"}),
        named_map(Kg, Rg, {"x": "xy", "y": "xy", "z": "z", "o": "o"}),
    )

    Lt = CGraph.build(
        HYPER_SIG,
        [
            ("V", "x", None, ()),
            ("V", "y", None, ()),
            ("V", "z", None, ()),
            ("s", "sx", None, ("x", "z")),
            ("s", "sy", None, ("y", "z")),
            ("zero", "o", None, ("z",)),
        ],
    )
    Kt = CGraph.build(
        HYPER_SIG,
        [
            ("V", "x", None, ()),
            ("V", "y", None, ()),
            ("V", "z", None, ()),
            ("s", "sx", None, ("x", "z")),
            ("zero", "o", None, ("z",)),
        ],
    )
    Rt = CGraph.build(
        HYPER_SIG,
        [
            ("V", "x", None, ()),
            ("V", "y", None, ()),
            ("V", "z", None, ()),
            ("V", "n", None, ()),
            ("s", "sx", None, ("x", "z")),
            ("zero", "o", None, ("z",)),
            ("s", "sy", None, ("y", "n")),
            ("zero", "o2", None, ("n",)),
        ],
    )
    tau = Rule(
        "tau",
        named_map(Kt, Lt, {"x": "x", "y": "y", "z": "z", "sx": "sx", "o": "o"}),
        named_map(Kt, Rt, {"x": "x", "y": "y", "z": "z", "sx": "sx", "o": "o"}),
    )
    return rho, tau


def limitations_wtg():
    T = CGraph.build(
        HYPER_SIG,
        [
            ("V", "w", None, ()),
            ("plus", "p", None, ("w", "w", "w")),
            ("s", "s", None, ("w", "w")),
            ("zero", "o", None, ("w",)),
        ],
    )
    wtg = WeightedTypeGraph(T, (element_at(T, "plus", None, 0, 2),), ARITHMETIC)
    return T, wtg


# --- the published proofs as certificates ----------------------------------


def _cert(system, steps, verdict, remaining=()):
    from dpoterm.checker import Certificate
    from dpoterm.sysfile import system_hash

    return Certificate(system_hash(system), tuple(steps), verdict, tuple(remaining))


def published_certificate(name, system):
    """The worked proof of each regression system, hand-encoded so the
    independent checker replays exactly the published comparisons."""
    from dpoterm.checker import CertStep, RuleEntry

    if name == "loop_unfolding":
        T = graph(
            GRAPH_SIG,
            ["tx", "ty"],
            [("lx", "tx", "tx"), ("ly", "ty", "ty"), ("f", "tx", "ty"), ("g", "ty", "tx")],
        )
        step = CertStep(
            "arithmetic",
            T,
            (("edge", "lx", 2), ("edge", "ly", 2)),
            (
                RuleEntry(
                    "unfold",
                    "closureDecreasing",
                    (("loop", "lx"), ("x", "tx"), ("y", "ty")),
                ),
            ),
            ("unfold",),
        )
        return _cert(system, [step], "terminating")

    if name == "reconfiguration":
        T = graph(
            GRAPH_SIG,
            ["n0", "n1", "n2"],
            [
                ("e01", "n0", "n1"),
                ("e10", "n1", "n0"),
                ("l0", "n0", "n0"),
                ("l1", "n1", "n1"),
                ("e12", "n1", "n2"),
                ("e21", "n2", "n1"),
            ],
        )
        step = CertStep(
            "arithmetic",
            T,
            (("edge", "e12", 2),),
            (
                RuleEntry(
                    "reconfigure",
                    "closureDecreasing",
                    (
                        ("x", "n0"),
                        ("xy", "e01"),
                        ("y", "n1"),
                        ("yz", "l1"),
                        ("z", "n1"),
                        ("zy", "l1"),
                    ),
                ),
            ),
            ("reconfigure",),
        )
        return _cert(system, [step], "terminating")

    if name == "simple_fold":
        T = graph(SIMPLE_SIG, ["txy", "tz"], [("tl", "txy", "txy")])
        step = CertStep(
            "tropical",
            T,
            (("V", "txy", 1),),
            (
                RuleEntry(
                    "fold",
                    "uniform",
                    (("e", "tl"), ("x", "txy"), ("y", "txy")),
                ),
            ),
            ("fold",),
        )
        return _cert(system, [step], "terminating")

    if name == "string_rules":
        def t(first, second):
            return graph(
                STRING_SIG,
                ["q", "u"],
                [
                    ("la", "a", "q", "q"),
                    ("lb", "b", "q", "q"),
                    ("lc", "c", "q", "q"),
                    ("ld", "d", "q", "q"),
                    ("back", second, "u", "q"),
                    ("heavy", first, "q", "u"),
                ],
            )

        t1 = t("a", "b")
        step1 = CertStep(
            "arithmetic",
            t1,
            (("edge", "heavy", 2),),
            (
                RuleEntry(
                    "rho",
                    "closureDecreasing",
                    (("e1", "la"), ("e2", "lb"), ("x", "q"), ("y", "q"), ("z", "q")),
                ),
                RuleEntry("tau", "weak"),
            ),
            ("rho",),
        )
        # the displayed second stage is broken (see the notes); the
        # analogous sound proof is a flower with a weight-2 c-loop
        t2 = graph(
            STRING_SIG,
            ["q"],
            [
                ("la", "a", "q", "q"),
                ("lb", "b", "q", "q"),
                ("lc", "c", "q", "q"),
                ("ld", "d", "q", "q"),
            ],
        )
        step2 = CertStep(
            "arithmetic",
            t2,
            (("edge", "lc", 2),),
            (
                RuleEntry(
                    "tau",
                    "closureDecreasing",
                    (("e1", "lc"), ("e2", "ld"), ("x", "q"), ("y", "q"), ("z", "q")),
                ),
            ),
            ("tau",),
        )
        return _cert(system, [step1, step2], "terminating")

    if name == "tree_counter":
        T1, _ = tree_t1()
        T1 = replace(
            T1, names=(("p", "q"), ("p0", "p1", "pc", "qp0", "qp1", "q0", "q1", "qc"))
        )
        step1 = CertStep(
            "arithmetic",
            T1,
            (("edge", "qp0", 2), ("edge", "q0", 2), ("edge", "q1", 2), ("edge", "qc", 2)),
            (
                RuleEntry(
                    "r1", "closureDecreasing", (("e", "p0"), ("x", "p"), ("y", "p"))
                ),
                RuleEntry(
                    "r2", "closureDecreasing", (("e", "p1"), ("x", "p"), ("y", "p"))
                ),
                RuleEntry("r3", "weak"),
                RuleEntry("r4", "weak"),
                RuleEntry("r5", "weak"),
                RuleEntry("r6", "weak"),
            ),
            ("r1", "r2"),
        )
        T2, _ = tree_t2()
        T2 = replace(T2, names=(("q",), ("l0", "l1", "lc")))

        def tree_closure(top, left, right):
            return (
                ("a", f"l{left}"),
                ("b", f"l{right}"),
                ("m", "q"),
                ("t", f"l{top}"),
                ("x", "q"),
                ("y", "q"),
                ("z", "q"),
            )

        step2 = CertStep(
            "arithmetic",
            T2,
            (("edge", "l1", 2), ("edge", "lc", 3)),
            (
                RuleEntry("r3", "closureDecreasing", tree_closure("c", 0, 0)),
                RuleEntry("r4", "closureDecreasing", tree_closure("c", 1, 0)),
                RuleEntry("r5", "closureDecreasing", tree_closure("c", 0, 1)),
                RuleEntry("r6", "closureDecreasing", tree_closure("c", 1, 1)),
            ),
            ("r3", "r4", "r5", "r6"),
        )
        return _cert(system, [step1, step2], "terminating")

    if name == "morphism_counting":
        T = graph(GRAPH_SIG, ["t0", "t1"], [("l0", "t0", "t0"), ("l1", "t1", "t1")])
        step = CertStep(
            "arithmetic",
            T,
            (),
            (RuleEntry("grow", "uniform", (("x", "t0"), ("y", "t0"))),),
            ("grow",),
        )
        return _cert(system, [step], "terminating")

    if name == "limitations":
        T = CGraph.build(
            HYPER_SIG,
            [
                ("V", "w", None, ()),
                ("plus", "tp", None, ("w", "w", "w")),
                ("s", "ts", None, ("w", "w")),
                ("zero", "to", None, ("w",)),
            ],
        )
        step = CertStep(
            "arithmetic",
            T,
            (("plus", "tp", 2),),
            (
                RuleEntry(
                    "rho",
                    "closureDecreasing",
                    (("o", "to"), ("p", "tp"), ("x", "w"), ("y", "w"), ("z", "w")),
                ),
                RuleEntry("tau", "weak"),
            ),
            ("rho",),
        )
        return _cert(system, [step], "relatively-terminating", ("tau",))

    raise KeyError(name)
