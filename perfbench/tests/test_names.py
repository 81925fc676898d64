#!/usr/bin/env python3
"""Check that the perfbench binary's workload and metric catalogue equals BENCHMARK.json.

    python3 perfbench/tests/test_names.py <perfbench binary> <BENCHMARK.json>
"""

import json
import subprocess
import sys
import unittest

BINARY = None
SPEC = None


def fields(metrics):
    return [(m["name"], m["unit"], m["better"]) for m in metrics]


class CatalogueMatchesBenchmarkJson(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = subprocess.run([BINARY, "--describe"], check=True,
                             stdout=subprocess.PIPE).stdout
        cls.catalogue = json.loads(out)
        with open(SPEC) as f:
            cls.spec = json.load(f)

    def test_workloads(self):
        self.assertEqual(self.catalogue["workloads"],
                         [w["name"] for w in self.spec["workloads"]])

    def test_end_to_end_metrics(self):
        self.assertEqual(fields(self.catalogue["end_to_end"]),
                         fields(self.spec["end_to_end"]))

    def test_per_layer_metrics(self):
        self.assertEqual(fields(self.catalogue["per_layer"]),
                         fields(self.spec["per_layer"]))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    BINARY, SPEC = sys.argv[1], sys.argv[2]
    unittest.main(argv=sys.argv[:1])
