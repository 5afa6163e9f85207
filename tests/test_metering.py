import contextvars
import threading
from fractions import Fraction

import numpy as np
import pytest

from lhecnn.lhe import LheParams, SimulatorBackend
from lhecnn.metering import UNSCOPED, CostTable, OpMeter, build_report


def run_ops(backend, ctx, count=3):
    ct = backend.encrypt(ctx, np.ones(8))
    for _ in range(count):
        ct = backend.mul(ct, ct)
    return ct


class TestScopes:
    def test_scoped_attributes_to_label(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        with meter.scope("CL1"):
            run_ops(backend, ctx)
        per = meter.scope_totals()
        assert per["CL1"]["mul"] == 3
        assert per["CL1"]["encrypt"] == 1

    def test_empty_body_changes_nothing(self, meter):
        before = meter.checkpoint()
        with meter.scope("CL1"):
            pass
        assert meter.since(before) == {}

    def test_innermost_scope_wins(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        a = backend.encrypt(ctx, np.ones(8))
        with meter.scope("CL1"):
            b = backend.mul(a, a)
            with meter.scope("Square"):
                backend.mul(b, b)
        per = meter.scope_totals()
        assert per["CL1"]["mul"] == 1 and per["Square"]["mul"] == 1

    def test_label_must_be_nonempty(self, meter):
        with pytest.raises(ValueError):
            with meter.scope(""):
                pass

    def test_a_scope_yields_the_meter_and_can_be_entered_again(self, meter):
        # a scope keeps nothing per entry: one object nests in itself and is
        # entered again after it is left, also when its block raised
        outer = meter.scope("FL2")
        with outer as m:
            assert m is meter and meter.current_scope == "FL2"
            with meter.scope("FL1"):
                with pytest.raises(KeyError):
                    with meter.scope("Square3"):
                        assert meter.current_scope == "Square3"
                        raise KeyError("cell")
                assert meter.current_scope == "FL1"
                with outer:
                    assert meter.current_scope == "FL2"
                assert meter.current_scope == "FL1"
            assert meter.current_scope == "FL2"
        assert meter.current_scope == UNSCOPED
        with outer:
            assert meter.current_scope == "FL2"

    def test_unscoped_calls_still_counted(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        backend.encrypt(ctx, np.ones(8))
        assert meter.totals()["encrypt"] == 1

    def test_threads_on_one_meter_keep_their_own_scopes(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        ct = backend.encrypt(ctx, np.ones(8))
        both_open = threading.Barrier(2, timeout=10)

        def session(label, adds):
            with meter.scope(label):
                both_open.wait()   # the other thread's scope is open too
                for _ in range(adds):
                    backend.add(ct, ct)
                both_open.wait()   # neither scope closes while the other runs

        threads = [threading.Thread(target=session, args=("A", 3)),
                   threading.Thread(target=session, args=("B", 5))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        per = meter.scope_totals()
        assert (per["A"]["add"], per["B"]["add"]) == (3, 5)
        assert meter.current_scope == UNSCOPED

    @pytest.mark.parametrize("context", ["fresh", "copied"])
    def test_a_thread_started_in_a_scope_starts_unscoped(self, backend, meter, context):
        # a thread may start with a copy of its starter's context (as
        # free-threaded builds give it); neither kind sees the open scope
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        ct = backend.encrypt(ctx, np.ones(8))
        seen = []

        def server():
            seen.append(meter.current_scope)
            with meter.scope("server"):
                backend.add(ct, ct)
            backend.add(ct, ct)

        with meter.scope("session"):
            run = contextvars.copy_context().run if context == "copied" else None
            thread = (threading.Thread(target=run, args=(server,)) if run
                      else threading.Thread(target=server))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert meter.current_scope == "session"
            backend.add(ct, ct)
        per = meter.scope_totals()
        assert seen == [UNSCOPED]
        assert (per["server"]["add"], per[UNSCOPED]["add"], per["session"]["add"]) == (1, 1, 1)


class TestCounts:
    def test_mul_recorded_at_operand_level(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        ct = backend.encrypt(ctx, np.ones(8))
        ct = backend.mul(ct, ct)          # operands at 7
        backend.mul(ct, ct)               # operands at 6
        levels = meter.level_totals()
        assert levels[7]["mul"] == 1 and levels[6]["mul"] == 1

    def test_add_on_unrescaled_products_records_their_modulus_level(self, backend, meter):
        # products stay at their operands' modulus until the next rescale, so
        # sums of fresh products run one level above the remaining budget
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        a = backend.encrypt(ctx, np.ones(8))
        p1, p2 = backend.mul(a, a), backend.mul(a, a)
        assert p1.level == 6
        backend.add(p1, p2)
        backend.rot(p1, 1)
        levels = meter.level_totals()
        assert levels[7]["add"] == 1 and levels[7]["rot"] == 1

    def test_add_of_fresh_ciphertexts_records_their_level(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        a = backend.encrypt(ctx, np.ones(8))
        backend.add(a, a)
        assert meter.level_totals()[7]["add"] == 1

    def test_count_conservation_across_views(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        with meter.scope("A"):
            run_ops(backend, ctx, 2)
        with meter.scope("B"):
            run_ops(backend, ctx, 3)
        totals = meter.totals()
        by_scope = meter.scope_totals()
        by_level = meter.level_totals()
        for kind in ("add", "mul", "rot", "cmul", "encrypt"):
            assert sum(d[kind] for d in by_scope.values()) == totals[kind]
            assert sum(d[kind] for d in by_level.values()) == totals[kind]

    def test_record_many_adds_a_batch_under_the_current_scope(self, meter):
        with meter.scope("A"):
            meter.record_many("add", 4, 3)
            meter.record("add", 4)
            meter.record_many("rot", 4, 0)  # an empty batch leaves no entry
        assert meter.checkpoint() == {("A", "add", 4): 4}
        with pytest.raises(ValueError, match="unknown op kind"):
            meter.record_many("fma", 4, 1)
        with pytest.raises(ValueError, match="negative"):
            meter.record_many("add", 4, -1)

    def test_determinism_independent_of_slot_values(self):
        def profile(seed):
            meter = OpMeter()
            backend = SimulatorBackend(meter)
            ctx = backend.keygen(LheParams(8, 8), seed=1)
            rng = np.random.default_rng(seed)
            ct = backend.encrypt(ctx, rng.normal(size=8))
            with meter.scope("stage"):
                for _ in range(4):
                    ct = backend.add(ct, backend.rot(ct, 2))
            return meter.checkpoint()

        assert profile(1) == profile(2)


class TestCostTable:
    def test_measured_values_present(self):
        cost = CostTable.default()
        assert cost.lookup("add", 2) == 93
        assert cost.lookup("mul", 11) == 68374
        assert cost.lookup("rot", 6) == 20057
        assert cost.lookup("cmul", 9) == 7942

    def test_level_one_extrapolated_linearly_and_flagged(self):
        cost = CostTable.default()
        # linear continuation of the (level 2, level 3) segment
        assert cost.lookup("add", 1) == 2 * 93 - 127
        assert cost.lookup("mul", 1) == 2 * 6434 - 10106
        assert cost.lookup("rot", 1) == 2 * 4542 - 7311
        assert cost.lookup("cmul", 1) == 2 * 1645 - 2467
        for kind in ("add", "mul", "rot", "cmul"):
            assert (kind, 1) in cost.extrapolated

    def test_all_entries_positive(self):
        CostTable.default().validate()

    def test_levels_above_eleven_continue_the_last_segment_and_are_flagged(self):
        cost = CostTable.default(top_level=15)
        for kind, (at10, at11) in (("add", (443, 498)), ("mul", (57791, 68374)),
                                   ("rot", (47144, 56366)), ("cmul", (8731, 9895))):
            for level in range(12, 16):
                assert cost.lookup(kind, level) == at11 + (level - 11) * (at11 - at10)
                assert (kind, level) in cost.extrapolated
            assert cost.lookup(kind, 16) is None and (kind, 11) not in cost.extrapolated
        cost.validate()
        # a top level the measured rows cover adds nothing
        assert CostTable.default(top_level=5) == CostTable.default()


class TestReports:
    def test_empty_meter_zero_report(self, meter):
        report = build_report(meter, CostTable.default(), 4)
        assert report.total_tuple() == (0, 0, 0, 0)
        assert report.est_latency_us == 0
        assert report.gaps == []

    def test_empty_window_reports_no_ops(self, backend, meter):
        # an empty snapshot is a window in which nothing ran, not the whole run
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        a = backend.encrypt(ctx, np.ones(8))
        backend.mul(a, a)
        window = meter.since(meter.checkpoint())
        assert meter.totals(window) == {k: 0 for k in meter.totals()}
        report = build_report(meter, CostTable.default(), 1, counts=window)
        assert report.total_tuple() == (0, 0, 0, 0)
        assert report.per_scope == {} and report.per_level == {}
        assert report.est_latency_us == 0

    def test_latency_and_amortized(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        a = backend.encrypt(ctx, np.ones(8))
        b = backend.mul(a, a)       # mul at 7
        backend.mul(b, b)           # mul at 6
        report = build_report(meter, CostTable.default(), 2)
        assert report.totals["mul"] == 2
        assert report.amortized["mul"] == Fraction(1)
        assert report.est_latency_us == 33139 + 25931

    def test_missing_cost_entry_is_an_explicit_gap(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 13), seed=1)  # level 12 ops exceed the table
        a = backend.encrypt(ctx, np.ones(8))
        backend.mul(a, a)
        report = build_report(meter, CostTable.default(), 1)
        assert report.gaps == [("mul", 12, 1)]

    def test_a_report_with_gaps_says_its_total_is_a_lower_bound(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 14), seed=1)  # levels 12 and 13 exceed the table
        a = backend.encrypt(ctx, np.ones(8))
        b = backend.mul(a, a)     # mul at 13
        backend.mul(b, backend.rot(b, 1))  # rot at 13 (rescale pending), mul at 12
        backend.mul(backend.mul(b, b), b)  # mul at 12, mul at 11
        text = build_report(meter, CostTable.default(), 1).to_text()
        assert "estimated latency: 0.068 s (lower bound: 4 ops uncosted)" in text
        text = build_report(meter, CostTable.default(top_level=13), 1).to_text()
        assert "lower bound" not in text and "estimated latency: 0." in text

    def test_extrapolated_entries_surfaced(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 2), seed=1)
        a = backend.encrypt(ctx, np.ones(8))
        backend.mul(a, a)  # at level 1
        report = build_report(meter, CostTable.default(), 1)
        assert ("mul", 1) in report.extrapolated_used
        assert "extrapolated" in report.to_text()

    def test_csv_columns_and_rows(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        with meter.scope("FL1"):
            a = backend.encrypt(ctx, np.ones(8))
            backend.mul(a, a)
        csv_text = build_report(meter, CostTable.default(), 1).to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "scope,level,add,mul,rot,cmul"
        assert "FL1,7,0,1,0,0" in lines

    def test_amortized_full_precision_fractions(self, backend, meter):
        ctx = backend.keygen(LheParams(8, 8), seed=1)
        a = backend.encrypt(ctx, np.ones(8))
        for _ in range(3):
            backend.add(a, a)
        report = build_report(meter, CostTable.default(), 2)
        assert report.amortized["add"] == Fraction(3, 2)

    def test_n_inputs_must_be_positive(self, meter):
        with pytest.raises(ValueError):
            build_report(meter, CostTable.default(), 0)
