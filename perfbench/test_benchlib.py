"""Tests of the benchmark's own helpers. Run with

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import random
import unittest

import benchlib


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(benchlib.percentile(xs, 50), 50)
        self.assertEqual(benchlib.percentile(xs, 90), 90)
        self.assertEqual(benchlib.percentile(xs, 99), 99)
        self.assertEqual(benchlib.percentile(xs, 100), 100)
        self.assertEqual(benchlib.percentile([7], 90), 7)

    def test_order_does_not_matter(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(benchlib.percentile(xs, 50), 3)
        self.assertEqual(benchlib.percentile(xs, 90), 5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)


class PerColumnMedianTest(unittest.TestCase):
    def test_median_of_each_column_across_passes(self):
        passes = [[10, 200, 3], [12, 100, 3], [11, 900, 4]]
        self.assertEqual(benchlib.per_column_medians(passes), [11, 200, 3])

    def test_a_slow_pass_does_not_move_the_percentile(self):
        # one pass hit a GC pause on every column; the medians ignore it
        steady = [[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]] * 2
        slow = [[x * 50 for x in steady[0]]]
        meds = benchlib.per_column_medians(steady + slow)
        self.assertEqual(benchlib.percentile(meds, 50), 5)
        self.assertEqual(benchlib.percentile(meds, 90), 9)

    def test_ragged_passes_are_an_error(self):
        for per_call in (benchlib.per_column_medians, benchlib.per_call_upper_quartiles):
            with self.assertRaises(ValueError):
                per_call([[1, 2], [1]])


class PerCallUpperQuartileTest(unittest.TestCase):
    def test_upper_quartile_of_each_call_across_passes(self):
        passes = [[10, 200, 3], [12, 100, 3], [11, 900, 4], [13, 300, 3]]
        self.assertEqual(benchlib.per_call_upper_quartiles(passes), [12, 300, 3])

    def test_faster_passes_do_not_move_it_while_the_usual_state_holds(self):
        usual = [4, 8]
        fast = [[x // 2 for x in usual]]
        self.assertEqual(benchlib.per_call_upper_quartiles([usual] * 2 + fast * 2), usual)
        self.assertEqual(benchlib.per_call_upper_quartiles([usual] + fast * 3), [2, 4])


class WorkloadMetricsTest(unittest.TestCase):
    def test_validate_figures_are_per_call_upper_quartiles(self):
        # five passes over four (rule, batch) calls: two in the host's usual
        # state, two in its faster one, one slowed tenfold throughout; each
        # call's upper quartile is its usual time
        steady = [1000, 2000, 3000, 4000]
        fast = [x // 2 for x in steady]
        rep = {"call_ns": [steady, fast, steady, fast, [x * 10 for x in steady]],
               "pass_s": [1e-5, 5e-6, 1e-5, 5e-6, 1e-4], "batch_values": 50}
        e2e, _ = benchlib.validate_metrics(rep)
        self.assertEqual(e2e["op_p50_ms"], 0.002)
        self.assertEqual(e2e["op_tail_ms"], 0.004)
        self.assertAlmostEqual(e2e["work_per_s"], 50 / 10e-6)

    def test_learn_rate_is_rules_per_second_of_a_median_pass(self):
        rep = {"learn_columns": ["E-0001", "E-0002"], "variants": ["FMDV", "FMDV-V"],
               "call_ns": [[1e6, 2e6, 3e6, 4e6], [3e6, 2e6, 1e6, 6e6]], "pass_s": [0.01, 0.012]}
        e2e, detail = benchlib.learn_metrics(rep)
        self.assertAlmostEqual(e2e["work_per_s"], 4 / 0.011)
        # FMDV-V's per-column medians are 2 and 5 ms
        values = {d[0]: d[1] for d in detail}
        self.assertEqual((values["learn_fmdv_v_p50_ms"], values["learn_fmdv_v_p90_ms"]), (2.0, 5.0))


ENTRIES = [
    "C\x02a\x01F\x02digit\x024\t0.0\t12",
    "V\x02digit\t0.041666666666666664\t30",
    "F\x02upper\x022\t0.3333333333333333\t2",
    "C\x02x\\ty\t1.0\t5",
]


class IndexDigestTest(unittest.TestCase):
    def test_digest_ignores_partition_order(self):
        base = benchlib.index_digest(ENTRIES)
        rng = random.Random(1)
        for _ in range(10):
            shuffled = ENTRIES[:]
            rng.shuffle(shuffled)
            self.assertEqual(benchlib.index_digest(shuffled), base)

    def test_digest_ignores_last_ulp_of_fpr(self):
        # Spark's avg can differ in the last ulp with the summation order
        nudged = ENTRIES[:]
        nudged[1] = "V\x02digit\t0.04166666666666667\t30"
        self.assertEqual(benchlib.index_digest(nudged), benchlib.index_digest(ENTRIES))

    def test_digest_sees_changed_entries(self):
        base = benchlib.index_digest(ENTRIES)
        self.assertEqual(base[0], 4)
        changed_cov = ENTRIES[:2] + ["F\x02upper\x022\t0.3333333333333333\t3"] + ENTRIES[3:]
        changed_fpr = ENTRIES[:2] + ["F\x02upper\x022\t0.3333343333333333\t2"] + ENTRIES[3:]
        self.assertNotEqual(benchlib.index_digest(changed_cov), base)
        self.assertNotEqual(benchlib.index_digest(changed_fpr), base)
        self.assertNotEqual(benchlib.index_digest(ENTRIES[:3]), base)

    def test_json_digest_ignores_key_order(self):
        a = {"FMDV": {"E-0001": "k1", "E-0002": None}, "FMDV-H": {"E-0001": "k2"}}
        b = {"FMDV-H": {"E-0001": "k2"}, "FMDV": {"E-0002": None, "E-0001": "k1"}}
        self.assertEqual(benchlib.json_digest(a), benchlib.json_digest(b))
        b["FMDV"]["E-0002"] = "k3"
        self.assertNotEqual(benchlib.json_digest(a), benchlib.json_digest(b))


def learn_report(patterns, bad=(), changed=0, passes=2):
    return {
        "problems": [], "index_dumps": [{"file": "index-setup.tsv", "violations": 0, "build_s": None}],
        "learn_columns": ["E-0001", "E-0002"], "variants": list(patterns),
        "patterns": patterns, "bad_outputs": list(bad), "changed_outputs": changed,
        "call_ns": [[1, 2, 3, 4]] * passes,
    }


class CheckOutputsTest(unittest.TestCase):
    DIGEST = (4, "d")
    PATTERNS = {"FMDV": ["k1", None], "FMDV-V": ["k1", "k2"]}
    EXPECTED = {"index": {"entries": 4, "digest": "d"},
                "patterns": {"FMDV": {"E-0001": "k1", "E-0002": None},
                             "FMDV-V": {"E-0001": "k1", "E-0002": "k2"}}}

    def test_matching_outputs_pass(self):
        failed, problems, _ = benchlib.check_outputs(
            "learn-BE", learn_report(self.PATTERNS), [self.DIGEST], self.EXPECTED)
        self.assertEqual((failed, problems), (0, []))

    def test_a_wrong_pattern_fails_in_every_pass(self):
        wrong = {"FMDV": ["k1", "k9"], "FMDV-V": ["k1", "k2"]}
        failed, problems, _ = benchlib.check_outputs(
            "learn-BE", learn_report(wrong, passes=3), [self.DIGEST], self.EXPECTED)
        self.assertEqual(failed, 3)
        self.assertEqual(len(problems), 1)

    def test_broken_invariants_count_without_recorded_values(self):
        failed, _, _ = benchlib.check_outputs(
            "learn-BE", learn_report(self.PATTERNS, bad=[1], changed=1), [self.DIGEST], {})
        self.assertEqual(failed, 2 + 1)

    def test_fmdv_vh_must_answer_as_fmdv_h(self):
        # E-0001: FMDV-H has a rule and FMDV-VH returns another one, a
        # mismatching pair; E-0002: FMDV-H has none and FMDV-VH falls through
        patterns = {"FMDV-H": ["h1", None], "FMDV-VH": ["v1", "v2"]}
        failed, problems, _ = benchlib.check_outputs(
            "learn-BE", learn_report(patterns, passes=3), [self.DIGEST], {})
        self.assertEqual(failed, 3)
        self.assertEqual(problems, ["FMDV-VH on E-0001: differs from FMDV-H"])

    def test_fmdv_vh_with_no_rule_where_fmdv_h_has_one_fails(self):
        patterns = {"FMDV-H": ["h1", None], "FMDV-VH": [None, "v2"]}
        failed, _, _ = benchlib.check_outputs(
            "learn-BE", learn_report(patterns), [self.DIGEST], {})
        self.assertEqual(failed, 2)

    def test_fmdv_vh_equal_to_fmdv_h_passes(self):
        patterns = {"FMDV-H": ["h1", None], "FMDV-VH": ["h1", "v2"]}
        failed, problems, _ = benchlib.check_outputs(
            "learn-BE", learn_report(patterns), [self.DIGEST], {})
        self.assertEqual((failed, problems), (0, []))

    def test_a_different_index_fails(self):
        failed, problems, _ = benchlib.check_outputs(
            "learn-BE", learn_report(self.PATTERNS), [(4, "other")], self.EXPECTED)
        self.assertEqual(failed, 1)
        self.assertEqual(len(problems), 1)


class MergeForksTest(unittest.TestCase):
    SETUP = {"setup": {"index.setup_build_s": 10.0}, "layers": {}, "problems": [], "attempted": 1}

    def fork(self, patterns, passes):
        return {"variants": ["FMDV", "FMDV-V"], "patterns": patterns, "bad_outputs": [],
                "call_ns": [[1, 2, 3, 4]] * passes, "pass_s": [0.5] * passes,
                "changed_outputs": 0, "warmup_s": 0.7, "gc_s": 0.1, "problems": []}

    def test_passes_are_pooled(self):
        p = CheckOutputsTest.PATTERNS
        rep = benchlib.merge_forks(self.SETUP, [self.fork(p, 2), self.fork(p, 3)])
        self.assertEqual(len(rep["call_ns"]), 5)
        self.assertEqual(rep["attempted"], 1 + 5 * 4)
        self.assertEqual(rep["warmup_s"], 0.7)
        self.assertEqual(benchlib.setup_seconds(rep), 10.0)
        self.assertEqual(rep["changed_outputs"], 0)

    def test_a_jvm_that_disagrees_fails_its_calls(self):
        p = CheckOutputsTest.PATTERNS
        other = {"FMDV": ["k1", "k9"], "FMDV-V": ["k1", "k2"]}
        rep = benchlib.merge_forks(self.SETUP, [self.fork(p, 2), self.fork(other, 3)])
        self.assertEqual(rep["changed_outputs"], 3)
        self.assertEqual(len(rep["problems"]), 1)


if __name__ == "__main__":
    unittest.main()
