import csv
import json

import pytest
from hypothesis import given, settings, strategies as st

from sentipipe.core import CANONICAL_AU_NAMES, AdLabel, AdSpec, Interval
from sentipipe.errors import (
    ConfigError,
    DegenerateComplement,
    EmptyScoreList,
    InsufficientAds,
    NoMoments,
    NoPredictions,
    UnknownAdId,
    ValidationError,
)
from sentipipe.metrics import (
    AdScore,
    KpiReport,
    chance_baseline,
    complement_intervals,
    curve_max,
    evaluate_kpis,
    kpi_roc_ad,
    kpi_roc_sent,
    read_kpi_report,
    roc_auc,
    single_au_baselines,
    write_kpi_report,
    write_kpi_table_csv,
)

from conftest import au_vec, curve_of, make_video


def brute_force_auc(pos, neg):
    wins = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return (2 * wins + ties) / (2 * len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8], [0.1, 0.2]) == 1.0

    def test_perfectly_wrong(self):
        assert roc_auc([0.1, 0.2], [0.9, 0.8]) == 0.0

    def test_all_tied(self):
        assert roc_auc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_hand_counted_ties(self):
        # wins: 4 of 6 pairs, ties: 2 -> (4 + 0.5 * 2) / 6
        assert roc_auc([0.8, 0.5, 0.5], [0.5, 0.2]) == 5 / 6

    def test_single_pair(self):
        assert roc_auc([0.7], [0.3]) == 1.0
        assert roc_auc([0.3], [0.7]) == 0.0
        assert roc_auc([0.3], [0.3]) == 0.5

    def test_empty_side(self):
        with pytest.raises(EmptyScoreList):
            roc_auc([], [0.5])
        with pytest.raises(EmptyScoreList):
            roc_auc([0.5], [])

    def test_non_finite(self):
        with pytest.raises(ValidationError):
            roc_auc([float("nan")], [0.5])
        with pytest.raises(ValidationError):
            roc_auc([0.5], [float("inf")])


# a coarse grid forces plenty of ties; fine floats exercise the generic path
grid_scores = st.lists(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=12)
fine_scores = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.one_of(grid_scores, fine_scores),
       st.one_of(grid_scores, fine_scores))
def test_roc_matches_brute_force_exactly(pos, neg):
    assert roc_auc(pos, neg) == brute_force_auc(pos, neg)


@settings(max_examples=150, deadline=None)
@given(st.one_of(grid_scores, fine_scores),
       st.one_of(grid_scores, fine_scores))
def test_roc_complement_identity(pos, neg):
    assert roc_auc(pos, neg) + roc_auc(neg, pos) == 1.0


@settings(max_examples=100, deadline=None)
@given(grid_scores, grid_scores)
def test_roc_invariant_under_order_preserving_transform(pos, neg):
    # 2x + 1 is exact on the grid and preserves order and ties
    assert roc_auc(pos, neg) == roc_auc(
        [2 * s + 1 for s in pos], [2 * s + 1 for s in neg])


class TestCurveMax:
    def test_max_of_bins(self):
        assert curve_max(curve_of([0.2, 0.9, 0.4])) == 0.9
        assert curve_max(curve_of([0.2])) == 0.2


class TestComplementIntervals:
    def test_no_moments_whole_domain(self):
        assert complement_intervals((), 10.0) == (Interval(0.0, 10.0),)

    def test_interior_moment(self):
        gaps = complement_intervals((Interval(2.0, 5.0),), 10.0)
        assert gaps == (Interval(0.0, 2.0), Interval(5.0, 10.0))

    def test_moment_at_domain_start(self):
        gaps = complement_intervals((Interval(0.0, 3.0),), 10.0)
        assert gaps == (Interval(3.0, 10.0),)

    def test_moment_at_domain_end(self):
        gaps = complement_intervals((Interval(7.0, 10.0),), 10.0)
        assert gaps == (Interval(0.0, 7.0),)

    def test_two_moments_three_gaps(self):
        gaps = complement_intervals(
            (Interval(2.0, 4.0), Interval(6.0, 8.0)), 10.0)
        assert gaps == (Interval(0.0, 2.0), Interval(4.0, 6.0),
                        Interval(8.0, 10.0))

    def test_touching_moments_leave_no_middle_gap(self):
        gaps = complement_intervals(
            (Interval(2.0, 5.0), Interval(5.0, 8.0)), 10.0)
        assert gaps == (Interval(0.0, 2.0), Interval(8.0, 10.0))

    def test_unsorted_input_is_sorted(self):
        gaps = complement_intervals(
            (Interval(6.0, 8.0), Interval(2.0, 4.0)), 10.0)
        assert gaps == (Interval(0.0, 2.0), Interval(4.0, 6.0),
                        Interval(8.0, 10.0))

    def test_guard_shrinks_edges_abutting_moments(self):
        gaps = complement_intervals((Interval(2.0, 5.0),), 10.0, guard_s=0.5)
        # domain edges are not guarded, moment edges are
        assert gaps == (Interval(0.0, 1.5), Interval(5.5, 10.0))

    def test_guard_drops_narrow_gaps(self):
        gaps = complement_intervals(
            (Interval(2.0, 5.0), Interval(5.5, 8.0)), 10.0, guard_s=0.3)
        assert gaps == (Interval(0.0, 1.7), Interval(8.3, 10.0))

    def test_full_coverage_leaves_nothing(self):
        assert complement_intervals((Interval(0.0, 10.0),), 10.0) == ()

    def test_bad_guard(self):
        with pytest.raises(ConfigError):
            complement_intervals((), 10.0, guard_s=-0.1)
        with pytest.raises(ConfigError):
            complement_intervals((), 10.0, guard_s=float("inf"))


def kpi_fixture():
    ads = {
        "s1": AdSpec(ad_id="s1", label=AdLabel.SENTIMENTAL, duration_s=2.0,
                     moments=(Interval(0.5, 1.0),)),
        "s2": AdSpec(ad_id="s2", label=AdLabel.SENTIMENTAL, duration_s=2.0,
                     moments=(Interval(1.0, 2.0),)),
        "n1": AdSpec(ad_id="n1", label=AdLabel.NON_SENTIMENTAL, duration_s=1.0),
        "n2": AdSpec(ad_id="n2", label=AdLabel.NON_SENTIMENTAL, duration_s=1.0),
    }
    curves = [
        curve_of([0.1, 0.9, 0.3, 0.2], ad_id="s1"),
        curve_of([0.4, 0.2, 0.6, 0.7], ad_id="s2"),
        curve_of([0.3, 0.3], ad_id="n1"),
        curve_of([0.85, 0.1], ad_id="n2"),
    ]
    return ads, curves


class TestKpiRocAd:
    def test_hand_case(self):
        ads, curves = kpi_fixture()
        # maxima: sentimental [0.9, 0.7] vs non-sentimental [0.3, 0.85]
        assert kpi_roc_ad(curves, ads) == 0.75

    def test_one_class_missing(self):
        ads, curves = kpi_fixture()
        with pytest.raises(InsufficientAds):
            kpi_roc_ad(curves[:2], ads)

    def test_unknown_ad(self):
        ads, _ = kpi_fixture()
        with pytest.raises(UnknownAdId):
            kpi_roc_ad([curve_of([0.5], ad_id="ghost")], ads)


class TestKpiRocSent:
    def test_hand_case(self):
        ads, curves = kpi_fixture()
        # per-ad moment max vs complement max: (0.9, 0.3) and (0.7, 0.4)
        assert kpi_roc_sent(curves[:2], ads) == 1.0

    def test_guard_can_flip_the_outcome(self):
        ads = {"s1": AdSpec(ad_id="s1", label=AdLabel.SENTIMENTAL,
                            duration_s=2.0, moments=(Interval(0.5, 1.0),))}
        curve = curve_of([0.1, 0.9, 0.95, 0.2], ad_id="s1")
        # ungated complement includes the 0.95 bin right after the moment
        assert kpi_roc_sent([curve], ads) == 0.0
        assert kpi_roc_sent([curve], ads, guard_s=0.5) == 1.0

    def test_no_curves(self):
        ads, _ = kpi_fixture()
        with pytest.raises(NoMoments):
            kpi_roc_sent([], ads)

    def test_moments_covering_everything(self):
        ads = {"s": AdSpec(ad_id="s", label=AdLabel.SENTIMENTAL,
                           duration_s=1.0, moments=(Interval(0.0, 1.0),))}
        with pytest.raises(DegenerateComplement):
            kpi_roc_sent([curve_of([0.5, 0.5], ad_id="s")], ads)


class TestEvaluateKpis:
    def test_report_contents(self):
        ads, curves = kpi_fixture()
        report = evaluate_kpis(curves, ads)
        assert report.roc_ad == 0.75
        assert report.roc_sent == 1.0
        assert report.avg == (0.75 + 1.0) / 2
        assert set(report.per_ad_scores) == {"s1", "s2", "n1", "n2"}
        s1 = report.per_ad_scores["s1"]
        assert s1 == AdScore(label="sentimental", curve_max=0.9,
                             moment_max=0.9, complement_max=0.3)
        n2 = report.per_ad_scores["n2"]
        assert n2 == AdScore(label="non_sentimental", curve_max=0.85)
        assert n2.moment_max is None and n2.complement_max is None


class TestKpiReportValidation:
    def test_avg_must_be_exact_mean(self):
        with pytest.raises(ValidationError, match="avg"):
            KpiReport(roc_ad=0.8, roc_sent=0.6, avg=0.71, per_ad_scores={})

    def test_rocs_must_be_probabilities(self):
        with pytest.raises(ValidationError):
            KpiReport(roc_ad=1.2, roc_sent=0.5, avg=0.85, per_ad_scores={})


def marker_fixture():
    """One sentimental and one non-sentimental ad, separable only via AU1."""
    ads = {
        "s": AdSpec(ad_id="s", label=AdLabel.SENTIMENTAL, duration_s=1.0,
                    moments=(Interval(0.0, 0.5),)),
        "n": AdSpec(ad_id="n", label=AdLabel.NON_SENTIMENTAL, duration_s=1.0),
    }
    videos_by_ad = {
        "s": [make_video("vs", "s", [(0.0, True, au_vec(i0=0.9)),
                                     (0.5, True, au_vec(i0=0.1))])],
        "n": [make_video("vn", "n", [(0.0, True, au_vec(i0=0.1)),
                                     (0.5, True, au_vec(i0=0.1))])],
    }
    return ads, videos_by_ad


class TestBaselines:
    def test_single_au_reports_isolate_the_marker(self):
        ads, videos_by_ad = marker_fixture()
        reports = single_au_baselines(videos_by_ad, ads)
        assert len(reports) == len(CANONICAL_AU_NAMES) == 20
        assert reports[0].roc_ad == 1.0
        assert reports[0].roc_sent == 1.0
        for k in range(1, 20):
            assert reports[k].roc_ad == 0.5  # constant zeros, all ties
            assert reports[k].roc_sent == 0.5

    def test_chance_is_exactly_half(self):
        ads, videos_by_ad = marker_fixture()
        report = chance_baseline(videos_by_ad, ads)
        assert report.roc_ad == 0.5
        assert report.roc_sent == 0.5
        assert report.avg == 0.5

    def test_chance_needs_a_scored_frame_per_ad(self):
        ads, videos_by_ad = marker_fixture()
        videos_by_ad["n"] = [make_video("vn", "n", [(0.0, False, None), (2.0, True, [0.5] * 20)])]
        with pytest.raises(NoPredictions, match=r"ad 'n': no scored frames fall inside \[0, 1.0\)"):
            chance_baseline(videos_by_ad, ads)


class TestReportFiles:
    def _report(self):
        ads, curves = kpi_fixture()
        return evaluate_kpis(curves, ads)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        write_kpi_report(self._report(), path)
        payload = read_kpi_report(path)
        assert payload["roc_ad"] == 0.75
        assert payload["roc_sent"] == 1.0
        assert payload["avg"] == 0.875
        assert [row["ad_id"] for row in payload["per_ad"]] == [
            "n1", "n2", "s1", "s2"]
        assert payload["per_ad"][2]["moment_max"] == 0.9
        assert payload["per_ad"][0]["moment_max"] is None
        assert "metadata" not in payload

    def test_metadata_passthrough(self, tmp_path):
        path = tmp_path / "report.json"
        write_kpi_report(self._report(), path, metadata={"step_s": 0.5})
        assert read_kpi_report(path)["metadata"] == {"step_s": 0.5}

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "report.json"
        write_kpi_report(self._report(), path)
        assert path.read_text().endswith("}\n")

    def test_table_layout(self, tmp_path):
        report = self._report()
        per_au = [report] * 20
        path = tmp_path / "table.csv"
        write_kpi_table_csv(report, per_au, report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "chance", *CANONICAL_AU_NAMES, "model"]
        assert [r[0] for r in rows[1:]] == ["ROC-Ad", "ROC-Sent", "Avg"]
        assert len(rows) == 4
        assert all(len(r) == 23 for r in rows)
        # repr round trip keeps exact values
        assert float(rows[1][1]) == report.roc_ad
        assert float(rows[3][22]) == report.avg

    def test_table_requires_twenty_au_reports(self, tmp_path):
        report = self._report()
        with pytest.raises(ValidationError):
            write_kpi_table_csv(report, [report] * 19, report,
                                tmp_path / "t.csv")

    def test_report_json_is_plain_data(self, tmp_path):
        path = tmp_path / "report.json"
        write_kpi_report(self._report(), path, metadata={"guard_s": 0.0})
        payload = json.loads(path.read_text())
        assert isinstance(payload["per_ad"], list)
        assert isinstance(payload["metadata"], dict)
