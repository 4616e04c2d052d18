"""The benchmark's three workloads: inputs, one round of operations, and
the oracles that check every output.

A round runs every operation of its workload once, one after another.
Oracles compare with facts fixed outside the program: the paper's
verdicts, termination arguments for the generated families, and rewrite
steps that an accepted certificate of a shipped system must make
lighter. Nothing is compared with stored certificates. Oracle work runs
inside the workload's `untraced` context, so a traced run does not count
it.
"""
from __future__ import annotations

import contextlib
import random
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from dpoterm import certificate, dpo, prover, semiring, sysfile, wtg

# the paper's answers for systems/: (verdict, remaining rules)
SHIPPED_VERDICTS = {
    "limitations": ("relatively-terminating", ("tau",)),
    "limitations_tau": ("failed", ("tau",)),
    "loop_unfolding": ("terminating", ()),
    "morphism_counting": ("terminating", ()),
    "reconfiguration": ("terminating", ()),
    "simple_fold": ("terminating", ()),
    "string_rules": ("terminating", ()),
    "tree_counter": ("terminating", ()),
}

# the mutant set is fixed, so the count of mutants that crash the
# reader or checker is the same in every run; --seed orders operations
MUTANT_SEED = 2307
MUTANTS_PER_FORM = 300

EXHAUST_BUDGET = prover.SearchBudget(size=3, bits=3, timeout_seconds=3600)
# checking the no-proof certificate takes about a millisecond, too short
# to time alone; this many checks per form follow each search
EXHAUST_CHECKS_PER_FORM = 40

CYCLE_SIZES = (4, 5, 6, 7)
STRING_LENGTHS = (3, 4, 5)


@dataclass
class Round:
    prove_s: float = 0.0
    check_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    outcomes: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)


def _prove(system, strategy, rnd: Round):
    """run_strategy plus writing both certificate forms, timed."""
    t0 = time.perf_counter()
    result = prover.run_strategy(system, strategy)
    text = certificate.write_certificate(result.certificate)
    js = certificate.certificate_to_json(result.certificate)
    rnd.prove_s += time.perf_counter() - t0
    rnd.attempted += 1
    return result.certificate, text, js


def _check(system, text: str, rnd: Round):
    """Read and check one certificate text, timed. Returns (outcome,
    certificate read or None); outcome is accept, reject, input_error,
    read_crash or check_crash. Crashes are failed operations: the
    command line would print a traceback."""
    rnd.attempted += 1
    cert = None
    t0 = time.perf_counter()
    try:
        cert = certificate.read_certificate(system.sig, text)
    except (certificate.CertificateError, ValueError):
        outcome = "input_error"
    except Exception:
        outcome = "read_crash"
    else:
        try:
            got = certificate.check_certificate(system, cert)
        except Exception:
            outcome = "check_crash"
        else:
            outcome = "accept" if got.accepted else "reject"
    rnd.check_s += time.perf_counter() - t0
    rnd.outcomes[outcome] += 1
    if outcome.endswith("crash"):
        rnd.failed += 1
    return outcome, cert


def _step_wtg(step) -> "wtg.WeightedTypeGraph":
    T = step.type_graph
    ids = {
        (T.sig.objects[s].name, T.name_of(s, i)): (s, i)
        for s in range(len(T.sig.objects))
        for i in range(T.n(s))
    }
    elements = []
    for sort, name, w in step.elements:
        s, i = ids[(sort, name)]
        elements.append(wtg.element_at(T, sort, T.labels[s][i], i, w))
    return wtg.WeightedTypeGraph(T, tuple(elements), semiring.SEMIRINGS[step.semiring_kind])


def proof_violation(system, cert) -> Optional[str]:
    """A sampled semantic test of an accepted certificate, apart from the
    checker: on every rewrite step from the left graph of each rule still
    present, a rule the step removes must make the graph strictly lighter
    under the step's weighted type graph, and a rule it keeps must not
    make it heavier. None when every sampled step agrees."""
    remaining = list(system.rules)
    for idx, step in enumerate(cert.steps, 1):
        weights = _step_wtg(step)
        k = weights.semiring
        for G in [r.left for r in remaining]:
            before = wtg.weight_of_object(weights, G)
            for rule in remaining:
                strict = rule.name in step.removed
                for _, diag in dpo.enumerate_matches(rule, G, system.framework):
                    after = wtg.weight_of_object(weights, diag.H)
                    ok = semiring.s_lt(k, after, before) if strict else semiring.s_le(k, after, before)
                    if not ok:
                        return f"step {idx}: rule {rule.name} takes weight {before} to {after}"
        remaining = [r for r in remaining if r.name not in step.removed]
    return None


# --- token mutants ------------------------------------------------------

_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+|[\w\'-]+|[^\s\w]')
MUTATION_OPS = ("delete", "duplicate", "replace", "swap")


def tokens(text: str) -> list[tuple[int, int]]:
    return [(m.start(), m.end()) for m in _TOKEN.finditer(text)]


def mutant_specs(toks, stream: str) -> list[tuple[str, int, int]]:
    """MUTANTS_PER_FORM (operator, token, other token) triples drawn
    with a fixed seed per certificate and form."""
    rng = random.Random(f"{MUTANT_SEED}/{stream}")
    n = len(toks)
    return [
        (rng.choice(MUTATION_OPS), rng.randrange(n), rng.randrange(n))
        for _ in range(MUTANTS_PER_FORM)
    ]


def apply_mutant(text: str, toks, spec: tuple[str, int, int]) -> str:
    op, i, j = spec
    a, b = toks[i]
    if op == "delete":
        return text[:a] + text[b:]
    if op == "duplicate":
        return text[:b] + " " + text[a:b] + text[b:]
    if op == "replace":
        c, d = toks[j]
        return text[:a] + text[c:d] + text[b:]
    # swap with the next token; the last token swaps with the first
    if i + 1 == len(toks):
        i, (a, b) = 0, toks[0]
    c, d = toks[i + 1]
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


# --- generated families -------------------------------------------------


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    picks = rng.sample(range(10 * count), count)
    return [f"{prefix}{p}" for p in picks]


def _graph_block(name: str, nodes, edges, rng: random.Random) -> str:
    """edges: (name, label or None, source, target); declaration order
    is shuffled, which renumbers elements without changing the graph."""
    nodes, edges = list(nodes), list(edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    lines = [f"graph {name}"] + [f"  V {v}" for v in nodes]
    for e, lab, s, t in edges:
        mid = f" [{lab}]" if lab else ""
        lines.append(f"  edge {e}{mid} ({s}, {t})")
    return "\n".join(lines + ["end"])


def _map(pairs) -> str:
    return "{ " + ", ".join(f"{a} -> {b}" for a, b in pairs) + " }"


def cycle_system(n: int, rng: random.Random) -> str:
    """One rule deleting an edge of an n-node directed cycle, monic
    matching. It deletes an edge and creates none, so every step lowers
    the edge count."""
    v = _names(rng, "v", n)
    e = _names(rng, "e", n)
    cut = rng.randrange(n)
    edges = [(e[i], None, v[i], v[(i + 1) % n]) for i in range(n)]
    kept = [x for i, x in enumerate(edges) if i != cut]
    ident = _map((x, x) for x in v + [k[0] for k in kept])
    return "\n".join([
        "signature\n  V\n  edge(V,V)\nend",
        _graph_block("L", v, edges, rng),
        _graph_block("K", v, kept, rng),
        f"rule cut{n}\n  L = L\n  K = K\n  R = K\n  l = {ident}\n  r = {ident}\nend",
        "framework monic",
        "",
    ])


def string_system(k: int, rng: random.Random) -> str:
    """rho: a^k b -> a^k c and tau: c d^k -> d^k b on edge-labelled
    paths with interface {first, last}, unrestricted matching; k = 1 is
    systems/string_rules.gts. The b that tau creates starts at a fresh
    node whose only incoming edge is a d, and no rule adds an a-edge into
    an existing node, so rho never fires on it: rho fires at most once
    per initial b, and tau at most once per initial c or rho step."""
    out = ["signature\n  V\n  edge[a,b,c,d](V,V)\nend"]
    for rule, lhs, rhs in (("rho", "a" * k + "b", "a" * k + "c"),
                           ("tau", "c" + "d" * k, "d" * k + "b")):
        x = _names(rng, "x", k + 2)
        y = _names(rng, "y", k + 2)
        e = _names(rng, "e", k + 1)
        f = _names(rng, "f", k + 1)
        out.append(_graph_block(
            f"L{rule}", x, [(e[i], lab, x[i], x[i + 1]) for i, lab in enumerate(lhs)], rng))
        out.append(_graph_block(f"K{rule}", [x[0], x[-1]], [], rng))
        out.append(_graph_block(
            f"R{rule}", y, [(f[i], lab, y[i], y[i + 1]) for i, lab in enumerate(rhs)], rng))
        out.append(
            f"rule {rule}\n  L = L{rule}\n  K = K{rule}\n  R = R{rule}\n"
            f"  l = {_map([(x[0], x[0]), (x[-1], x[-1])])}\n"
            f"  r = {_map([(x[0], y[0]), (x[-1], y[-1])])}\nend"
        )
    out += ["framework unrestricted", ""]
    return "\n".join(out)


# --- workloads ------------------------------------------------------------


class Workload:
    """Inputs are built from the seed in the constructor; round() runs
    every operation once. `untraced` is entered around oracle work."""

    def __init__(self, root: Path, seed: int, untraced=contextlib.nullcontext):
        self.rng = random.Random(seed)
        self.untraced = untraced


class Shipped(Workload):
    """Prove every file of systems/, check each certificate in text and
    JSON form, and check a fixed set of token mutants of both forms."""

    def __init__(self, root: Path, seed: int, untraced=contextlib.nullcontext):
        super().__init__(root, seed, untraced)
        files = sorted((root / "systems").glob("*.gts"))
        if sorted(f.stem for f in files) != sorted(SHIPPED_VERDICTS):
            raise FileNotFoundError(f"{root / 'systems'} does not hold the 8 shipped systems")
        self.systems = {f.stem: sysfile.parse_system_file(f.read_text()) for f in files}
        self.order = sorted(self.systems)
        self.rng.shuffle(self.order)
        self.mutant_order = {
            (stem, form): self.rng.sample(range(MUTANTS_PER_FORM), MUTANTS_PER_FORM)
            for stem in self.order for form in ("text", "json")
        }

    def _judge_proof(self, name: str, system, cert, rnd: Round) -> None:
        with self.untraced():
            bad = proof_violation(system, cert)
        if bad is not None:
            rnd.problems.append(f"{name}: accepted certificate is no proof: {bad}")

    def _check_form(self, stem: str, system, form: str, text: str, rnd: Round) -> None:
        """Check one emitted certificate and its mutants."""
        outcome, original = _check(system, text, rnd)
        if outcome != "accept":
            rnd.problems.append(f"{stem} ({form}): emitted certificate gives {outcome}")
            return
        with self.untraced():
            toks = tokens(text)
            specs = mutant_specs(toks, f"{stem}/{form}")
            if form == "text" and certificate.write_certificate(original) != text:
                rnd.problems.append(f"{stem}: text certificate does not round-trip")
        if form == "text":
            self._judge_proof(stem, system, original, rnd)
        for idx in self.mutant_order[(stem, form)]:
            mutant = apply_mutant(text, toks, specs[idx])
            outcome, cert = _check(system, mutant, rnd)
            # an accepted mutant equal to its source changed only
            # layout; any other accepted mutant must still be a proof
            if outcome == "accept" and cert != original:
                self._judge_proof(f"{stem} ({form}) mutant {specs[idx]}", system, cert, rnd)
            if rnd.problems:
                return

    def round(self) -> Round:
        """Each system's checks follow its prove, so the check time is
        spread over the round instead of sampled at one point of it."""
        rnd = Round()
        for stem in self.order:
            system = self.systems[stem]
            cert, text, js = _prove(system, system.strategy or prover.DEFAULT_STRATEGY, rnd)
            want = SHIPPED_VERDICTS[stem]
            if (cert.verdict, cert.remaining) != want:
                rnd.problems.append(
                    f"{stem}: verdict {cert.verdict} {cert.remaining}, expected {want}"
                )
            for form, txt in (("text", text), ("json", js)):
                self._check_form(stem, system, form, txt, rnd)
                if rnd.problems:
                    return rnd
        return rnd


class Exhaust(Workload):
    """search_wtg on limitations_tau at size 3, bits 3, once per semiring;
    each must report exhausted. After each search, check the certificate
    of that "no proof" verdict EXHAUST_CHECKS_PER_FORM times in each
    form."""

    def __init__(self, root: Path, seed: int, untraced=contextlib.nullcontext):
        super().__init__(root, seed, untraced)
        self.system = sysfile.parse_system_file(
            (root / "systems" / "limitations_tau.gts").read_text()
        )
        self.kinds = list(semiring.SEMIRINGS)
        self.rng.shuffle(self.kinds)

    def round(self) -> Round:
        rnd = Round()
        system = self.system
        # the certificate run_strategy emits when no basic strategy succeeds
        cert = certificate.Certificate(
            sysfile.system_hash(system), (), "failed", tuple(r.name for r in system.rules)
        )
        texts = (("text", certificate.write_certificate(cert)),
                 ("json", certificate.certificate_to_json(cert)))
        for kind in self.kinds:
            t0 = time.perf_counter()
            out = prover.search_wtg(
                system.rules, system.framework, semiring.SEMIRINGS[kind], EXHAUST_BUDGET
            )
            rnd.prove_s += time.perf_counter() - t0
            rnd.attempted += 1
            if out.status != "exhausted":
                rnd.problems.append(f"tau {kind}: status {out.status}, expected exhausted")
            # checks follow every search, so they are spread over the round
            for form, text in texts:
                for _ in range(EXHAUST_CHECKS_PER_FORM):
                    outcome, _ = _check(system, text, rnd)
                    if outcome != "accept":
                        rnd.problems.append(f"tau ({form}): no-proof certificate gives {outcome}")
                        return rnd
        return rnd


class LargeRules(Workload):
    """Generated systems whose rules grow: edge deletion from n-node
    cycles, and the string rules a^k b -> a^k c, c d^k -> d^k b. Each
    certificate must be accepted, and rejected against the next-larger
    system of its family."""

    def __init__(self, root: Path, seed: int, untraced=contextlib.nullcontext):
        super().__init__(root, seed, untraced)
        rng = self.rng
        families = [
            [(f"cycle{n}", cycle_system(n, rng)) for n in CYCLE_SIZES],
            [(f"string{k}", string_system(k, rng)) for k in STRING_LENGTHS],
        ]
        self.systems = {
            name: sysfile.parse_system_file(text) for fam in families for name, text in fam
        }
        self.larger = {
            name: bigger for fam in families for (name, _), (bigger, _) in zip(fam, fam[1:])
        }
        self.order = sorted(self.systems)
        rng.shuffle(self.order)

    def round(self) -> Round:
        rnd = Round()
        for name in self.order:
            system = self.systems[name]
            cert, text, _ = _prove(system, prover.DEFAULT_STRATEGY, rnd)
            if cert.verdict != "terminating":
                rnd.problems.append(f"{name}: verdict {cert.verdict}, expected terminating")
            outcome, _ = _check(system, text, rnd)
            if outcome != "accept":
                rnd.problems.append(f"{name}: certificate gives {outcome}")
            if name in self.larger:
                bigger = self.larger[name]
                outcome, _ = _check(self.systems[bigger], text, rnd)
                if outcome != "reject":
                    rnd.problems.append(f"{name}: certificate gives {outcome} against {bigger}")
        return rnd


WORKLOADS = {"shipped": Shipped, "exhaust": Exhaust, "large_rules": LargeRules}
