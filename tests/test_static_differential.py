"""The static/empirical boundary: soundness of every certificate.

The analyzer is sound-but-incomplete: whenever it *certifies* a query
monotone, the randomized counterexample search must come up empty — on
the repo's own corpus and on Hypothesis-generated UCQ¬ / stratified /
FO programs.  (The converse direction is not required: UNKNOWN queries
may well be monotone.)
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import analyze_query, calm_verdict
from repro.analysis.static import Verdict
from repro.core.examples import ALL_EXAMPLES
from repro.db import Instance, schema
from repro.lang import FOQuery, StratifiedQuery, UCQNegQuery
from repro.lang.monotone import find_monotonicity_counterexample

SCH = schema(S=2, T=1)
DOMAIN = (1, 2, 3)
TRIALS = 40


def _assert_sound(query):
    report = analyze_query(query)
    # Monotonicity is undecidable: the analyzer must never *refute* it.
    assert report.verdict("monotone") is not Verdict.REFUTED
    if report.certifies("monotone"):
        witness = find_monotonicity_counterexample(
            query, DOMAIN, trials=TRIALS, seed=7
        )
        assert witness is None, (
            f"statically certified query refuted empirically: {query!r} "
            f"on {witness}"
        )


# ---------------------------------------------------------------------------
# Hypothesis program generators
# ---------------------------------------------------------------------------

_POSITIVE = ["S(x, y)", "S(y, x)", "T(x)", "T(y)"]
_CONSTRAINTS = [
    "x != y",
    "not S(y, x)",
    "not S(x, x)",
    "not T(x)",
    "not T(y)",
    "not Ans(x)",  # self-label: reads the input relation named Ans
]


@st.composite
def ucq_rules(draw):
    """1–3 safe UCQ¬ disjuncts over S/2, T/1 (head Ans/1)."""
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        # "S(x, y)" first keeps every template variable bound (safety).
        body = ["S(x, y)"] + draw(
            st.lists(st.sampled_from(_POSITIVE + _CONSTRAINTS), max_size=3)
        )
        rules.append(f"Ans(x) :- {', '.join(body)}.")
    return "\n".join(rules)


_STRAT_OPTIONAL = [
    "T(x, z) :- S(x, y), T(y, z).",
    "V(x) :- U(x), not T(x, x).",
    "W(x) :- V(x), U(x).",
    "C(x) :- S(x, y), not U(y).",
    "D(x) :- U(x), x != x.",
]


@st.composite
def stratified_programs(draw):
    """A stratifiable program over S/2 plus one of its IDB outputs."""
    text = "T(x, y) :- S(x, y).\nU(x) :- S(x, y).\n"
    chosen = set(
        draw(st.lists(st.sampled_from(_STRAT_OPTIONAL), unique=True, max_size=4))
    )
    if _STRAT_OPTIONAL[2] in chosen:  # W reads V: close the dependency
        chosen.add(_STRAT_OPTIONAL[1])
    # Keep definitions before uses (V before W); template order is stable.
    for rule in _STRAT_OPTIONAL:
        if rule in chosen:
            text += rule + "\n"
    outputs = ["T", "U"] + [r.split("(")[0] for r in chosen]
    output = draw(st.sampled_from(outputs))
    return text, output


@st.composite
def fo_formulas(draw):
    """A closed (boolean) FO formula over S/2, T/1 of bounded depth."""
    atoms = ["S(x, y)", "S(y, x)", "T(x)", "T(y)", "x = y", "x != y"]

    def formula(depth: int) -> str:
        kind = draw(
            st.sampled_from(
                ["atom"] if depth == 0 else ["atom", "and", "or", "not", "forall"]
            )
        )
        if kind == "atom":
            return draw(st.sampled_from(atoms))
        if kind == "not":
            return f"~({formula(depth - 1)})"
        if kind == "forall":
            return f"(forall z: S(z, z) -> ({formula(depth - 1)}))"
        op = " & " if kind == "and" else " | "
        return f"({formula(depth - 1)}{op}{formula(depth - 1)})"

    return f"exists x, y: {formula(draw(st.integers(1, 3)))}"


# ---------------------------------------------------------------------------
# Differential properties
# ---------------------------------------------------------------------------


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(ucq_rules())
    def test_ucqneg_certificates_sound(self, text):
        sch = schema(S=2, T=1, Ans=1)
        _assert_sound(UCQNegQuery.parse(text, sch))

    @settings(max_examples=30, deadline=None)
    @given(stratified_programs())
    def test_stratified_certificates_sound(self, program):
        text, output = program
        _assert_sound(StratifiedQuery.parse(text, output, schema(S=2)))

    @settings(max_examples=30, deadline=None)
    @given(fo_formulas())
    def test_fo_certificates_sound(self, text):
        _assert_sound(FOQuery.parse(text, "", SCH))


# ---------------------------------------------------------------------------
# Corpus soundness and static-first equality
# ---------------------------------------------------------------------------

_ZOO_INSTANCES = {
    "example2": {"S": [(1,), (2,)]},
    "example3": {"S": [(1, 2), (2, 3)]},
    "example4": {"S": [(1,), (2,)]},
    "section5_ab": {"A": [(1,)], "B": [(2,)]},
    "example10": {"S": [(1,)]},
    "example15": {"S": [(1,)]},
}


class TestCorpus:
    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_every_role_query_sound(self, name):
        t = ALL_EXAMPLES[name]()
        for role, query in t.all_queries():
            report = analyze_query(query)
            if report.certifies("monotone"):
                witness = find_monotonicity_counterexample(
                    query, DOMAIN, trials=25, seed=11
                )
                assert witness is None, (name, role, witness)

    @pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
    def test_static_first_verdict_identical(self, name):
        t_emp, t_sta = ALL_EXAMPLES[name](), ALL_EXAMPLES[name]()
        inst = Instance.from_dict(t_emp.schema.inputs, _ZOO_INSTANCES[name])
        v_emp = calm_verdict(t_emp, inst, monotonicity_trials=6)
        v_sta = calm_verdict(t_sta, inst, monotonicity_trials=6, static_first=True)
        assert v_emp == v_sta
        assert v_emp.verdict_source == "empirical"
        assert v_sta.verdict_source in ("static", "empirical")
        assert v_sta.sources["topology_independent"] == "empirical"
        assert v_sta.static_report is not None

    def test_certified_corner_goes_static(self):
        t = ALL_EXAMPLES["example3"]()
        inst = Instance.from_dict(t.schema.inputs, _ZOO_INSTANCES["example3"])
        v = calm_verdict(t, inst, monotonicity_trials=6, static_first=True)
        assert v.verdict_source == "static"
        assert v.sources["coordination_free"] == "static"
        assert v.sources["computed_query_monotone"] == "static"
        assert v.consistent_with_calm()

    def test_non_nti_never_short_circuits(self):
        # relay_identity is oblivious-certified but NOT NTI — the static
        # shortcut must not fire (Prop. 11 presupposes NTI).
        t = ALL_EXAMPLES["example4"]()
        inst = Instance.from_dict(t.schema.inputs, _ZOO_INSTANCES["example4"])
        v = calm_verdict(t, inst, monotonicity_trials=6, static_first=True)
        assert v.topology_independent is False
        assert v.verdict_source == "empirical"
        assert v.sources["coordination_free"] == "empirical"

    def test_fault_plan_disables_static_shortcut(self):
        from repro.net import FaultPlan, RunOptions

        t = ALL_EXAMPLES["example3"]()
        inst = Instance.from_dict(t.schema.inputs, _ZOO_INSTANCES["example3"])
        plan = FaultPlan(seed=3, duplication=0.2)
        v = calm_verdict(
            t, inst, monotonicity_trials=4, static_first=True,
            options=RunOptions(faults=plan),
        )
        assert v.sources["computed_query_monotone"] == "empirical"

    def test_explain_renders(self):
        t = ALL_EXAMPLES["example3"]()
        inst = Instance.from_dict(t.schema.inputs, _ZOO_INSTANCES["example3"])
        v = calm_verdict(t, inst, monotonicity_trials=4, static_first=True)
        text = v.explain()
        assert "verdict_source" in text
        assert "transducer" in text
