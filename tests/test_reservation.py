"""Unit tests for the reservation book: holdings, loans, earmarks, plans."""

import pytest

from repro.core.reservation import PlannedPreemption, ReservationBook
from repro.util.errors import InvariantViolation


def make_res(book, od_id=100, need=50, notice=0.0, arrival=1800.0, collecting=True):
    return book.create(
        od_job_id=od_id,
        need=need,
        notice_time=notice,
        estimated_arrival=arrival,
        collecting=collecting,
    )


class TestHoldings:
    def test_grab_free_caps_at_deficit(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        assert book.grab_free(res, 200) == 50
        assert res.held == 50
        assert res.deficit == 0
        assert book.total_held == 50

    def test_grab_free_limited_by_pool(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        assert book.grab_free(res, 30) == 30
        assert res.deficit == 20

    def test_duplicate_active_reservation_rejected(self):
        book = ReservationBook()
        make_res(book, od_id=7)
        with pytest.raises(InvariantViolation):
            make_res(book, od_id=7)

    @pytest.mark.parametrize("kind", ["earmark", "plan", "loan"])
    def test_recreate_after_deactivate(self, kind):
        book = ReservationBook()
        old = make_res(book, od_id=7)
        book.grab_free(old, 30)
        if kind == "earmark":
            book.add_earmark(old, 5, 10)
        elif kind == "plan":
            book.add_planned(old, PlannedPreemption(victim_job_id=5, pledge=10))
        else:
            book.loan_out(old, 5, 10)
        book.deactivate(7)
        assert len(book) == 0
        assert book.pledged_on(5) == 0
        assert book.loans_on(5) == 0
        res = make_res(book, od_id=7)  # allowed
        assert res.earmarks == {} and res.planned == {} and res.loans == {}
        assert res.held == 0
        assert book.pledged_on(5) == 0
        assert book.loans_on(5) == 0

    def test_deactivate_returns_held(self):
        book = ReservationBook()
        res = make_res(book)
        book.grab_free(res, 50)
        assert book.deactivate(res.od_job_id) == 50
        assert book.total_held == 0
        assert book.get(res.od_job_id) is None

    def test_deactivate_unknown_is_noop(self):
        assert ReservationBook().deactivate(123) == 0


class TestLoans:
    def test_loan_and_return(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        book.grab_free(res, 50)
        book.loan_out(res, borrower_job_id=5, nodes=20)
        assert res.held == 30
        assert res.secured == 50  # loans still count as secured
        assert book.total_held == 30
        # borrower releases 25 nodes (20 borrowed + 5 own)
        book.on_job_release(5, 25)
        assert res.held == 50
        assert res.loans == {}

    def test_loan_exceeding_held_rejected(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        book.grab_free(res, 10)
        with pytest.raises(InvariantViolation):
            book.loan_out(res, 5, 20)

    def test_release_smaller_than_loan_is_a_bug(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        book.grab_free(res, 50)
        book.loan_out(res, 5, 20)
        with pytest.raises(InvariantViolation):
            book.on_job_release(5, 10)

    def test_top_up_ignores_loans_grab_free_counts_them(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        book.grab_free(res, 30)
        book.loan_out(res, 5, 20)
        assert (res.held, res.secured) == (10, 30)
        # grab_free caps at the deficit (need - held - loans) ...
        assert book.grab_free(res, 100) == 20
        assert res.held == 30
        # ... top_up at need - held: a loan it cannot reclaim is forgiven
        other = make_res(book, od_id=101, need=50, notice=1.0)
        book.grab_free(other, 30)
        book.loan_out(other, 6, 20)
        assert book.top_up(other, 100) == 40
        assert other.held == 50
        assert book.total_held == 80

    def test_loans_on(self):
        book = ReservationBook()
        r1 = make_res(book, od_id=1, need=50)
        r2 = make_res(book, od_id=2, need=50, notice=1.0)
        book.grab_free(r1, 30)
        book.grab_free(r2, 30)
        book.loan_out(r1, 5, 10)
        book.loan_out(r2, 5, 7)
        assert book.loans_on(5) == 17


class TestTargetedClaims:
    def test_claim_for_caps_at_deficit(self):
        book = ReservationBook()
        res = make_res(book, need=50)
        book.grab_free(res, 20)
        claimed = book.on_job_release(99, 100, claim_for=res.od_job_id)
        assert claimed == 30
        assert res.held == 50

    def test_claim_for_inactive_reservation(self):
        book = ReservationBook()
        res = make_res(book)
        book.deactivate(res.od_job_id)
        assert book.on_job_release(99, 100, claim_for=res.od_job_id) == 0

    def test_loans_return_before_claim(self):
        book = ReservationBook()
        lender = make_res(book, od_id=1, need=30, notice=0.0)
        claimer = make_res(book, od_id=2, need=40, notice=1.0)
        book.grab_free(lender, 30)
        book.loan_out(lender, 5, 30)
        # job 5 releases 35 nodes; 30 go back to the lender's holding first
        claimed = book.on_job_release(5, 35, claim_for=2)
        assert lender.held == 30
        assert claimed == 5


class TestEarmarks:
    def test_earmark_honored_on_release(self):
        book = ReservationBook()
        res = make_res(book, need=50, collecting=False)
        book.add_earmark(res, job_id=5, pledge=40)
        book.on_job_release(5, 60)
        assert res.held == 40

    def test_earmark_capped_by_deficit(self):
        book = ReservationBook()
        res = make_res(book, need=50, collecting=False)
        book.grab_free(res, 30)
        book.add_earmark(res, 5, 40)
        book.on_job_release(5, 60)
        assert res.held == 50  # only 20 taken despite a 40 pledge

    def test_release_without_earmarks_leaves_reservations_unchanged(self):
        book = ReservationBook()
        r1 = make_res(book, od_id=1, need=50, collecting=False)
        r2 = make_res(book, od_id=2, need=50, notice=1.0, collecting=False)
        book.grab_free(r1, 10)
        book.add_earmark(r1, 5, 20)
        book.add_earmark(r2, 6, 30)
        book.add_planned(r2, PlannedPreemption(victim_job_id=7, pledge=5))
        before = [(r.held, dict(r.loans), dict(r.earmarks), dict(r.planned))
                  for r in (r1, r2)]
        assert book.on_job_release(9, 40) == 0
        after = [(r.held, dict(r.loans), dict(r.earmarks), dict(r.planned))
                 for r in (r1, r2)]
        assert after == before
        assert book.total_held == 10

    def test_earmark_priority_by_notice_time(self):
        book = ReservationBook()
        late = make_res(book, od_id=2, need=50, notice=10.0, collecting=False)
        early = make_res(book, od_id=1, need=50, notice=0.0, collecting=False)
        book.add_earmark(late, 5, 50)
        book.add_earmark(early, 5, 50)
        book.on_job_release(5, 60)
        assert early.held == 50
        assert late.held == 10

    @pytest.mark.parametrize("close", ["cancel_plans", "deactivate"])
    def test_pledged_on_counts_earmarks_and_plans(self, close):
        book = ReservationBook()
        res = make_res(book, collecting=False)
        book.add_earmark(res, 5, 10)
        book.add_planned(res, PlannedPreemption(victim_job_id=6, pledge=20))
        assert book.pledged_on(5) == 10
        assert book.pledged_on(6) == 20
        if close == "cancel_plans":
            book.cancel_plans(res)
        else:
            book.deactivate(res.od_job_id)
        assert book.pledged_on(5) == 0
        assert book.pledged_on(6) == 0

    def test_duplicate_plan_rejected(self):
        book = ReservationBook()
        res = make_res(book)
        book.add_planned(res, PlannedPreemption(6, 20))
        with pytest.raises(InvariantViolation):
            book.add_planned(res, PlannedPreemption(6, 10))


class TestAbsorb:
    def test_collecting_reservations_absorb_in_notice_order(self):
        book = ReservationBook()
        r2 = make_res(book, od_id=2, need=40, notice=5.0)
        r1 = make_res(book, od_id=1, need=40, notice=1.0)
        absorbed = book.absorb_free(50)
        assert absorbed == 50
        assert r1.held == 40
        assert r2.held == 10

    def test_non_collecting_ignored(self):
        book = ReservationBook()
        res = make_res(book, collecting=False)
        assert book.absorb_free(50) == 0
        assert res.held == 0

    def test_absorb_zero_budget(self):
        book = ReservationBook()
        make_res(book)
        assert book.absorb_free(0) == 0


class TestValidateAndIntegral:
    def test_validate_catches_drift(self):
        book = ReservationBook()
        res = make_res(book)
        book.grab_free(res, 20)
        book.validate(cluster_free=100)  # fine
        res.held += 1  # corrupt
        with pytest.raises(InvariantViolation):
            book.validate(cluster_free=100)

    def test_validate_catches_over_free(self):
        book = ReservationBook()
        res = make_res(book)
        book.grab_free(res, 50)
        with pytest.raises(InvariantViolation):
            book.validate(cluster_free=10)

    def test_held_node_seconds_integral(self):
        book = ReservationBook()
        res = make_res(book)
        book.advance(10.0)
        book.grab_free(res, 20)
        book.advance(30.0)
        assert book.held_node_seconds == pytest.approx(20 * 20.0)
