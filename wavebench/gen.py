"""Seeded input generation for the wave benchmark.

Everything the `wave` binary receives is generated here from the
workload's seed: the order of the checks of check-suite and spill, and
for serve-mix the pairs drawn, the hit/miss interleave and the unique
spec names that make misses. The catalog (spec sources, property texts,
expected verdicts) comes from `wavebench-driver catalog`.
"""

import json
import random

# Properties left out of spill. P4 and P5 are too long at a zero memory
# budget (P4 alone takes seconds even on tmpfs); R3 and R9 spend their
# time in property evaluation, which spill is meant to bypass.
SPILL_EXCLUDED = {("E1", "P4"), ("E1", "P5"), ("E3", "R3"), ("E3", "R9")}

# The properties whose zero-budget tiered run writes no spill segment:
# their searches never leave memory, so they would not exercise the
# store layer. Every other property, less SPILL_EXCLUDED, is in spill
# (28 pairs).
NO_SPILL = {
    ("E1", "P1"), ("E1", "P3"), ("E1", "P6"), ("E1", "P8"), ("E1", "P11"),
    ("E1", "P15"), ("E1", "P16"), ("E1", "P17"),
    ("E2", "Q1"), ("E2", "Q4"), ("E2", "Q6"), ("E2", "Q8"), ("E2", "Q9"),
    ("E2", "Q10"), ("E2", "Q11"), ("E2", "Q13"),
    ("E3", "R1"), ("E3", "R5"), ("E3", "R7"), ("E3", "R10"), ("E3", "R11"),
    ("E3", "R12"),
    ("E4", "S5"), ("E4", "S9"), ("E4", "S11"), ("E4", "S12"),
}

# serve-mix serves the light and medium properties only: the heavy ones
# would turn a cache miss into a seconds-long search.
SERVE_EXCLUDED = {("E1", "P4"), ("E1", "P5"), ("E1", "P7"),
                  ("E3", "R3"), ("E3", "R8"), ("E3", "R9")}

HIT_SHARE = 0.8
SERVE_ROUND = 200  # requests per serve-mix round


def pairs(catalog, workload):
    """The (suite, property) pairs a workload runs, in catalog order."""
    out = [(s["suite"], p["name"]) for s in catalog for p in s["props"]]
    if workload == "spill":
        return [k for k in out if k not in SPILL_EXCLUDED | NO_SPILL]
    if workload == "serve-mix":
        return [k for k in out if k not in SERVE_EXCLUDED]
    return out


class Generator:
    """An endless, seeded sequence of rounds for one workload."""

    def __init__(self, catalog, workload, seed):
        self.catalog = {s["suite"]: s for s in catalog}
        self.props = {(s["suite"], p["name"]): p for s in catalog for p in s["props"]}
        self.workload = workload
        self.seed = seed
        self.pairs = pairs(catalog, workload)
        self.rng = random.Random(f"{workload}:{seed}")
        self.rounds = 0

    def round(self):
        """The next round: a permutation of the pairs (check-suite, spill)
        or a list of requests (serve-mix)."""
        self.rounds += 1
        if self.workload == "serve-mix":
            return self._requests()
        order = list(self.pairs)
        self.rng.shuffle(order)
        return order

    def hit_line(self, pair):
        suite, name = pair
        return json.dumps({"suite": suite, "property": name})

    def _requests(self):
        n_miss = round(SERVE_ROUND * (1 - HIT_SHARE))
        kinds = [False] * n_miss + [True] * (SERVE_ROUND - n_miss)
        self.rng.shuffle(kinds)
        out = []
        for i, hit in enumerate(kinds):
            pair = self.rng.choice(self.pairs)
            if hit:
                line = self.hit_line(pair)
            else:
                # a bundled spec under a name no other request uses: its
                # fingerprint is new, so the server must search it
                suite = self.catalog[pair[0]]
                name = f"{suite['spec_name']}_s{self.seed}_r{self.rounds}_{i}"
                header = f"spec {suite['spec_name']} {{"
                if header not in suite["source"]:
                    raise ValueError(f"no {header!r} line in the {pair[0]} spec")
                src = suite["source"].replace(header, f"spec {name} {{", 1)
                line = json.dumps({"name": name, "spec": src,
                                   "property": self.props[pair]["text"]})
            out.append({"pair": pair, "hit": hit, "line": line})
        return out
