"""Tests of the benchmark's metric derivations (perfbench/derive.py).

    python3 -m unittest discover -s perfbench/tests
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import derive  # noqa: E402
from derive import BenchError  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertEqual(derive.min_samples(0.9), 100)
        self.assertEqual(derive.min_samples(0.5), 20)
        values = list(range(1, 101))
        self.assertEqual(derive.percentile(values, 0.9), 90)
        with self.assertRaises(BenchError):
            derive.percentile(values[:99], 0.9)

    def test_median_needs_ten_beyond_too(self):
        self.assertEqual(derive.percentile(list(range(20)), 0.5), 9)
        with self.assertRaises(BenchError):
            derive.percentile(list(range(19)), 0.5)

    def test_percentile_ignores_input_order(self):
        values = [float(v) for v in range(200)]
        shuffled = values[::-1]
        self.assertEqual(derive.percentile(values, 0.9),
                         derive.percentile(shuffled, 0.9))


class GoodputTest(unittest.TestCase):
    def test_failures_count_as_misses(self):
        outcomes = [(True, 0.1)] * 8 + [(False, None), (False, 0.05)]
        self.assertAlmostEqual(derive.goodput(outcomes, 1.0, 2.0), 4.0)

    def test_late_responses_miss_the_limit(self):
        outcomes = [(True, 0.5), (True, 1.0), (True, 1.5)]
        self.assertAlmostEqual(derive.goodput(outcomes, 1.0, 1.0), 2.0)

    def test_empty_span_is_an_error(self):
        with self.assertRaises(BenchError):
            derive.goodput([(True, 0.1)], 1.0, 0.0)


class SubtractionTest(unittest.TestCase):
    def test_queue_wait_is_request_minus_job_time_per_op(self):
        self.assertAlmostEqual(derive.queue_wait_seconds(3.0, 2.0, 4), 0.25)
        self.assertEqual(derive.queue_wait_seconds(1.0, 2.0, 4), 0.0)
        self.assertEqual(derive.queue_wait_seconds(1.0, 0.5, 0), 0.0)

    def test_frontdoor_is_client_minus_server_time(self):
        self.assertAlmostEqual(derive.frontdoor_seconds(0.030, 0.028), 0.002)
        self.assertEqual(derive.frontdoor_seconds(0.020, 0.021), 0.0)

    def test_response_fields(self):
        line = ("ok id=a kind=predict status=succeeded steps=2 "
                "mean_quality=0.5 seconds=0.0125 workers=3 cache_hits=1")
        self.assertEqual(derive.deterministic_prefix(line),
                         "ok id=a kind=predict status=succeeded steps=2 "
                         "mean_quality=0.5")
        self.assertAlmostEqual(derive.response_seconds(line), 0.0125)
        self.assertIsNone(derive.response_seconds("err id=a rejected"))

    def test_unattributed_share(self):
        self.assertAlmostEqual(derive.unattributed_share(10.0, [6.0, 3.0]), 0.1)
        self.assertEqual(derive.unattributed_share(0.0, [1.0]), 0.0)

    def test_scrape_deltas(self):
        before = {"counters": {"cache.hits": 5},
                  "histograms": {"sim.seconds": {"count": 2, "sum": 1.0}}}
        after = {"counters": {"cache.hits": 9, "cache.misses": 3},
                 "histograms": {"sim.seconds": {"count": 5, "sum": 2.5}}}
        self.assertEqual(derive.counter_delta(before, after, "cache.hits"), 4)
        self.assertEqual(derive.counter_delta(before, after, "cache.misses"), 3)
        self.assertEqual(derive.histogram_delta(before, after, "sim.seconds"),
                         (3, 1.5))
        self.assertEqual(derive.histogram_delta(None, None, "x"), (0, 0.0))

    def test_fold_batches(self):
        batches = [(0.0, 10.0), (20.0, 5.0), (30.0, 4.0)]
        sims = [(1.0, 4.0), (2.0, 6.0), (21.0, 3.0)]  # none inside the third
        folded = derive.fold_batches(batches, sims, workers=2)
        self.assertEqual(folded["tasks"], 3)
        # lanes 2 x 10 + 2 x 5 = 30, busy 13: idle 17 over 3 tasks.
        self.assertAlmostEqual(folded["idle_per_task_us"], 17.0 / 3)
        self.assertAlmostEqual(folded["busy_share"], 13.0 / 30)


class ScheduleTest(unittest.TestCase):
    FIRES = ["t0", "t1", "t2"]

    def test_seeded_schedule_is_identical_across_runs(self):
        first = derive.track_schedule(7, self.FIRES, 2, 3, 10.0)
        second = derive.track_schedule(7, self.FIRES, 2, 3, 10.0)
        self.assertEqual(first, second)
        self.assertNotEqual(first, derive.track_schedule(8, self.FIRES, 2, 3, 10.0))
        self.assertEqual(derive.campaign_order(3, [[0, 1, 2], [3, 4]]),
                         derive.campaign_order(3, [[0, 1, 2], [3, 4]]))

    def test_track_requests_are_the_same_multiset_for_every_seed(self):
        def requests(seed):
            return sorted((fire, steps, kind) for _, fire, steps, kind in
                          derive.track_schedule(seed, self.FIRES, 3, 4, 10.0))
        self.assertEqual(requests(1), requests(2))
        kinds = [kind for _, _, _, kind in
                 derive.track_schedule(1, self.FIRES, 3, 4, 10.0)]
        self.assertEqual(kinds.count("refresh"), 3 * kinds.count("extend"))

    def test_each_fire_refreshes_then_extends_in_order(self):
        schedule = derive.track_schedule(5, self.FIRES, 2, 3, 10.0)
        for fire in self.FIRES:
            ops = [(steps, kind) for _, f, steps, kind in schedule if f == fire]
            self.assertEqual(ops, [(3, "refresh")] * 3 + [(4, "extend")]
                             + [(4, "refresh")] * 3 + [(5, "extend")])

    def test_arrivals_keep_rate_and_length_for_every_seed(self):
        kinds = ["a"] * 60 + ["b"] * 20
        for seed in (1, 2, 3):
            times = derive.arrival_times(derive.rng_for(seed, "x"), kinds, 8.0)
            self.assertEqual(times, sorted(times))
            gaps = [b - a for a, b in zip(times, times[1:])]
            self.assertTrue(all(g > 0 for g in gaps))
        lengths = {round(derive.arrival_times(derive.rng_for(s, "x"), kinds,
                                              8.0)[-1], 9) for s in (1, 2)}
        # Same gaps, different order: the schedule length differs only by
        # which gap comes last.
        self.assertLess(max(lengths) - min(lengths), 1.0)
        quantiles = derive.exponential_quantiles(1000, 8.0)
        self.assertAlmostEqual(sum(quantiles) / 1000, 1 / 8.0, places=2)
        self.assertTrue(math.isfinite(max(quantiles)))

    def test_campaign_order_keeps_classes_in_order(self):
        order = derive.campaign_order(9, [[0, 1, 2, 3], [4, 5], [6]])
        self.assertEqual(sorted(order[:4]), [0, 1, 2, 3])
        self.assertEqual(sorted(order[4:6]), [4, 5])
        self.assertEqual(order[6], 6)


if __name__ == "__main__":
    unittest.main()
