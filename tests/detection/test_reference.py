"""The detection gate: the engine against the literal Section 3 loop.

``detection_reference`` matches and projects every row on its own, with
no memo, pair groups or shards; the engine (:class:`ErrorDetector`, the
session's seed at any shard size) must report canonically the same
violations.  The paper's running examples run against both, and a
property test drives adversarial values — unicode, empty and long
strings — through every route.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.anmat.session import AnmatSession
from repro.constrained.constrained_pattern import (
    ConstrainedPattern,
    constrained_first_token,
    constrained_prefix,
)
from repro.dataset.table import Table
from repro.detection import ErrorDetector, IncrementalDetector
from repro.errors import DetectionError
from repro.patterns import parse_pattern
from repro.pfd.pfd import PFD
from repro.pfd.tableau import WILDCARD
from repro.sharding import ShardedTable, ShardOverlay

import detection_reference
from detection_reference import assert_matches_pairwise, violating_pairs

#: the two detectors every paper example runs against
DETECTORS = {
    "reference": detection_reference.detect,
    "engine": lambda table, pfds: ErrorDetector(table).detect_all(pfds),
}


@pytest.fixture(params=sorted(DETECTORS))
def detect(request):
    return DETECTORS[request.param]


@pytest.fixture
def lambda2():
    return PFD.constant(
        "name", "gender", [{"name": "Susan\\ \\A*", "gender": "F"}], name="lambda2"
    )


@pytest.fixture
def lambda3():
    return PFD.constant(
        "zip", "city", [{"zip": "900\\D{2}", "city": "Los Angeles"}], name="lambda3"
    )


@pytest.fixture
def lambda4():
    return PFD.variable("name", "gender", constrained_first_token(), name="lambda4")


@pytest.fixture
def lambda5():
    return PFD.variable(
        "zip",
        "city",
        constrained_prefix(3, parse_pattern("\\D{2}"), head=parse_pattern("\\D{3}")),
        name="lambda5",
    )


class TestPaperIntroduction:
    """λ2 detects r4[gender]; λ3 detects s4[city]; λ4/λ5 detect them
    against their equivalent siblings."""

    def test_lambda2_detects_r4_gender(self, detect, name_table, lambda2):
        report = detect(name_table, [lambda2])
        assert [(v.rows, v.observed_value, v.expected_value) for v in report] == [
            ((3,), "M", "F")
        ]

    def test_lambda3_detects_s4_city(self, detect, zip_table, lambda3):
        report = detect(zip_table, [lambda3])
        assert [v.suspect_cell for v in report] == [(3, "city")]
        assert len(report.suspect_rows()) / zip_table.n_rows == pytest.approx(0.25)

    def test_lambda4_detects_r4_via_r3_pair(self, detect, name_table, lambda4):
        report = detect(name_table, [lambda4])
        # the violation consists of the four cells of r3 and r4
        assert [set(v.rows) for v in report] == [{2, 3}]
        assert len(report.violations[0].cells) == 4
        assert_matches_pairwise(report, violating_pairs(name_table, lambda4))

    def test_lambda5_detects_s4_against_each_sibling(self, detect, zip_table, lambda5):
        pairs = violating_pairs(zip_table, lambda5)
        assert pairs == {frozenset((row, 3)) for row in range(3)}
        # one violation per minority row, its witness the first majority row
        report = detect(zip_table, [lambda5])
        assert [v.rows for v in report] == [(0, 3)]
        assert_matches_pairwise(report, pairs)

    def test_clean_tables_satisfy_all_lambdas(
        self, detect, name_dataset, zip_dataset, lambda2, lambda3, lambda4, lambda5
    ):
        assert detect(name_dataset.clean_table, [lambda2, lambda4]).is_empty()
        assert detect(zip_dataset.clean_table, [lambda3, lambda5]).is_empty()


class TestRuleShapes:
    def test_empty_table(self, detect, lambda3, lambda5):
        report = detect(Table.empty(["zip", "city"]), [lambda3, lambda5])
        assert report.is_empty()

    def test_constant_rule_ignores_non_matching_lhs(self, detect, lambda3):
        table = Table.from_rows(["zip", "city"], [["60601", "Chicago"]])
        assert detect(table, [lambda3]).is_empty()

    def test_string_lhs_variable_rule(self, detect):
        # a plain string cell (not pattern syntax) constrains the whole value
        pfd = PFD.constant("a", "b", name="string")
        pfd.tableau.add_row({"a": "k1", "b": WILDCARD})
        table = Table.from_rows(["a", "b"], [["k1", "x"], ["k1", "y"], ["k2", "z"]])
        report = detect(table, [pfd])
        # x/y tie: y wins, so row 0 is the suspect and row 1 its witness
        assert [v.rows for v in report] == [(1, 0)]
        assert_matches_pairwise(report, violating_pairs(table, pfd))

    def test_plain_pattern_lhs_means_whole_value_equality(self, detect):
        pfd = PFD.constant("zip", "city", name="plain")
        pfd.add_rule({"zip": parse_pattern("\\D{5}"), "city": WILDCARD})
        table = Table.from_rows(
            ["zip", "city"],
            [["90001", "LA"], ["90001", "NY"], ["90002", "SF"]],
        )
        report = detect(table, [pfd])
        assert [set(v.rows) for v in report] == [{0, 1}]
        assert_matches_pairwise(report, violating_pairs(table, pfd))


class TestWildcardLhsVariableRule:
    """A variable rule needs a projection to block on; ``⊥`` has none,
    and every route rejects it instead of comparing rows whose LHS
    values differ."""

    @pytest.fixture
    def table(self):
        return Table.from_rows(
            ["a", "b"], [["x", "1"], ["x", "2"], ["y", "3"], ["y", "3"]]
        )

    @pytest.fixture
    def pfd(self):
        pfd = PFD.constant("a", "b", name="wild")
        pfd.add_rule({"a": WILDCARD, "b": WILDCARD})
        return pfd

    def test_every_detector_rejects_it(self, detect, table, pfd):
        with pytest.raises(DetectionError, match="LHS"):
            detect(table, [pfd])
        with pytest.raises(DetectionError, match="LHS"):
            violating_pairs(table, pfd)

    def test_error_detector_detect_rejects_it(self, table, pfd):
        with pytest.raises(DetectionError, match="LHS"):
            ErrorDetector(table).detect(pfd)

    def test_session_detection_rejects_it(self, table, pfd):
        with AnmatSession(dataset_name="wild") as session:
            session.load_table(table)
            with pytest.raises(DetectionError, match="LHS"):
                session.run_detection([pfd])


# -- adversarial values: every route against the reference --------------------

#: prefixes shared across values, so projections collapse distinct values
PREFIXES = ["", "x", "é", "日本", "\U0001d518", " "]

VALUES = st.one_of(
    st.just(""),
    st.builds(lambda head, tail: head + tail, st.sampled_from(PREFIXES), st.text(max_size=4)),
    # long values from a short random stem, so the draw stays small
    st.builds(
        lambda stem, size: (stem * size)[:size],
        st.text(min_size=1, max_size=3),
        st.integers(min_value=100, max_value=400),
    ),
)


@st.composite
def tables_and_rules(draw):
    """A two-column table over small drawn value pools (1–40 rows) and
    rules of every cell shape over it, some built from its values."""
    lhs_pool = draw(st.lists(VALUES, min_size=1, max_size=6))
    rhs_pool = draw(st.lists(VALUES, min_size=1, max_size=4))
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(lhs_pool), st.sampled_from(rhs_pool)),
            min_size=1,
            max_size=40,
        )
    )
    table = Table.from_rows(["a", "b"], [list(row) for row in rows])
    first_char = ConstrainedPattern.parse("⟨\\A⟩\\A*")
    pfds = [
        PFD.variable("a", "b", first_char, name="first-char"),
        PFD.variable("a", "b", parse_pattern("\\A*"), name="whole-value"),
        PFD.variable("b", "a", first_char, name="reverse"),
        PFD.constant("a", "b", [{"a": "\\A*", "b": rhs_pool[0]}], name="any-lhs"),
    ]
    literal_variable = PFD.constant("a", "b", name="literal-variable")
    literal_variable.tableau.add_row({"a": lhs_pool[0], "b": WILDCARD})
    literal_constant = PFD.constant("a", "b", name="literal-constant")
    literal_constant.tableau.add_row({"a": lhs_pool[-1], "b": rhs_pool[-1]})
    literal_constant.tableau.add_row({"a": WILDCARD, "b": rhs_pool[0]})
    return table, pfds + [literal_variable, literal_constant]


@settings(max_examples=60, deadline=None)
@given(tables_and_rules())
def test_every_route_agrees_with_the_reference(case):
    table, pfds = case
    reference = detection_reference.detect(table, pfds)
    expected = reference.canonical_violations()
    assert ErrorDetector(table).detect_all(pfds).canonical_violations() == expected
    for shard_rows in sorted({1, 7, table.n_rows}):
        overlay = ShardOverlay(ShardedTable.from_table(table, shard_rows))
        seeded = IncrementalDetector(overlay, pfds).report()
        assert seeded.canonical_violations() == expected, f"shard_rows={shard_rows}"
    for pfd in pfds:
        if pfd.is_variable:
            violations = [v for v in reference if v.pfd_name == pfd.name]
            assert_matches_pairwise(violations, violating_pairs(table, pfd))
