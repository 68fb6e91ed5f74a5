import pytest

from casverify import speclib as sl
from casverify.engine import RANDOM, AssertionSite, ExploreConfig, explore
from casverify.vacuity import (
    STATUS_FAIL,
    STATUS_PASS,
    STATUS_PASS_BUT_VACUOUS,
    VacuityFrameworkError,
    analyze,
    overall_status,
)


def exh(**kw):
    return ExploreConfig(**kw)


SITE_A = AssertionSite("a", group_key="g1")
SITE_B = AssertionSite("b", group_key="g1")
SITE_C = AssertionSite("c", group_key="g2")


def test_all_sites_hit_no_vacuity():
    def proof(ctx):
        ctx.sassert(SITE_A, True)
        ctx.sassert(SITE_C, True)

    report = explore(proof, exh(), sites=(SITE_A, SITE_C))
    vac = analyze(report, (SITE_A, SITE_C))
    assert not vac.vacuous_groups
    assert vac.authoritative
    assert overall_status(report, vac) == STATUS_PASS


def test_fully_unreached_group_is_vacuous():
    def proof(ctx):
        if False:
            ctx.sassert(SITE_A, True)
        ctx.sassert(SITE_C, True)

    report = explore(proof, exh(), sites=(SITE_A, SITE_C))
    vac = analyze(report, (SITE_A, SITE_C))
    assert vac.vacuous_groups == frozenset({"g1"})
    assert overall_status(report, vac) == STATUS_PASS_BUT_VACUOUS


def test_duplicate_sites_one_reachable_not_vacuous():
    # the same helper asserted from two call sites; only one is reachable
    def proof(ctx):
        ctx.sassert(SITE_B, True)
        if False:
            ctx.sassert(SITE_A, True)

    report = explore(proof, exh(), sites=(SITE_A, SITE_B))
    vac = analyze(report, (SITE_A, SITE_B))
    assert not vac.vacuous_groups
    assert vac.partially_hit_groups == frozenset({"g1"})


def test_assume_dead_assert_is_vacuous():
    # the site executes only behind an unsatisfiable assume: pruned paths
    # must not count as hits
    def proof(ctx):
        b = sl.nd_bool(ctx)
        ctx.assume(b and not b)
        ctx.sassert(SITE_A, True)

    report = explore(proof, exh(), sites=(SITE_A,))
    vac = analyze(report, (SITE_A,))
    assert vac.vacuous_groups == frozenset({"g1"})


def test_unknown_site_in_report_is_framework_error():
    def proof(ctx):
        ctx.sassert("undeclared", True)

    report = explore(proof, exh())
    with pytest.raises(VacuityFrameworkError):
        analyze(report, (SITE_A,))


def test_vacuity_monotone_in_explored_paths():
    # enlarging the explored space can only shrink the vacuous set
    def proof(ctx):
        n = sl.nd_size_t(ctx)
        if n >= 3:
            ctx.sassert(SITE_A, True)
        ctx.sassert(SITE_C, True)

    small = analyze(explore(proof, exh(size_bound=2), sites=(SITE_A, SITE_C)),
                    (SITE_A, SITE_C))
    large = analyze(explore(proof, exh(size_bound=4), sites=(SITE_A, SITE_C)),
                    (SITE_A, SITE_C))
    assert large.vacuous_groups <= small.vacuous_groups
    assert small.vacuous_groups == frozenset({"g1"})
    assert large.vacuous_groups == frozenset()


def test_fail_short_circuit_not_authoritative():
    def proof(ctx):
        ctx.sassert(SITE_C, False)
        ctx.sassert(SITE_A, True)

    report = explore(proof, exh(), sites=(SITE_A, SITE_C))
    vac = analyze(report, (SITE_A, SITE_C))
    assert not vac.authoritative
    assert "failure" in vac.caveat
    assert overall_status(report, vac) == STATUS_FAIL


def test_random_backend_carries_caveat():
    def proof(ctx):
        ctx.sassert(SITE_A, True)

    report = explore(proof, ExploreConfig(backend=RANDOM, random_budget=5),
                     sites=(SITE_A,))
    vac = analyze(report, (SITE_A,))
    assert not vac.authoritative
    assert "incomplete" in vac.caveat


def test_assertion_hits_count_every_declared_site():
    def proof(ctx):
        sl.nd_bool(ctx)
        ctx.sassert(SITE_A, True)

    report = explore(proof, exh(), sites=(SITE_A, SITE_C))
    assert report.assertion_hits == {"a": 2, "c": 0}
