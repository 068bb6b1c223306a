"""Tests of the seeded input generator. Run from the repository root:

    python3 -m unittest discover -s wavebench -p 'test_*.py'
"""

import json
import unittest

import gen

# a stand-in for `wavebench-driver catalog` with the real suite shapes
SIZES = {"E1": ("P", 17, "e1_shop"), "E2": ("Q", 13, "e2_motogp"),
         "E3": ("R", 14, "e3_airline"), "E4": ("S", 14, "e4_books")}
CATALOG = [
    {"suite": suite, "spec_name": name,
     "source": f"# {suite}\nspec {name} {{\n  home HP;\n}}\n",
     "props": [{"name": f"{letter}{i}", "holds": i % 3 != 0, "text": f"F @P{i}"}
               for i in range(1, n + 1)]}
    for suite, (letter, n, name) in SIZES.items()
]


def rounds(workload, seed, n=3):
    g = gen.Generator(CATALOG, workload, seed)
    return [g.round() for _ in range(n)]


class GeneratorTest(unittest.TestCase):
    def test_pair_sets(self):
        self.assertEqual(len(gen.pairs(CATALOG, "check-suite")), 58)
        self.assertEqual(len(gen.pairs(CATALOG, "spill")), 28)
        self.assertEqual(len(gen.pairs(CATALOG, "serve-mix")), 52)

    def test_same_seed_same_inputs(self):
        for workload in ("check-suite", "spill", "serve-mix"):
            self.assertEqual(rounds(workload, 7), rounds(workload, 7), workload)

    def test_other_seed_reorders_the_same_pairs(self):
        for workload in ("check-suite", "spill"):
            a, b = rounds(workload, 1, 1)[0], rounds(workload, 2, 1)[0]
            self.assertNotEqual(a, b, workload)
            self.assertEqual(sorted(a), sorted(b), workload)
            self.assertEqual(sorted(a), sorted(gen.pairs(CATALOG, workload)), workload)

    def test_rounds_differ_within_a_run(self):
        first, second = rounds("check-suite", 1, 2)
        self.assertNotEqual(first, second)

    def test_serve_mix(self):
        a, b = rounds("serve-mix", 1, 2), rounds("serve-mix", 2, 2)
        self.assertNotEqual([r["line"] for r in a[0]], [r["line"] for r in b[0]])
        serve_pairs = set(gen.pairs(CATALOG, "serve-mix"))
        names = set()
        for requests in a + b:
            self.assertEqual(len(requests), gen.SERVE_ROUND)
            hits = [r for r in requests if r["hit"]]
            self.assertEqual(len(hits), round(gen.SERVE_ROUND * gen.HIT_SHARE))
            for r in requests:
                self.assertIn(r["pair"], serve_pairs)
                job = json.loads(r["line"])
                if r["hit"]:
                    self.assertEqual(job, {"suite": r["pair"][0], "property": r["pair"][1]})
                else:
                    # a renamed copy of the bundled spec, unique per request
                    self.assertIn(f"spec {job['name']} {{", job["spec"])
                    self.assertNotIn(job["name"], names)
                    names.add(job["name"])


if __name__ == "__main__":
    unittest.main()
