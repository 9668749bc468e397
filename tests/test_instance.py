import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from gen import ancestor_bitsets, make_instance, psplib_text, random_psplib_instance, shuffled_ids
from test_heuristics import nominal_tails
from robust_rcpsp._graph import arc_graph, predecessors, successors
from robust_rcpsp.adversary import worst_case_makespan_dp
from robust_rcpsp.errors import ParseError
from robust_rcpsp.instance import (
    InstanceMeta,
    ProjectInstance,
    from_json,
    parse_psplib,
    robustify,
    to_json,
)
from robust_rcpsp.network import Selection

DATA = Path(__file__).parent / "data"


def test_parse_toy_fixture():
    inst = parse_psplib((DATA / "toy5.sm").read_text(), source_path="toy5.sm")
    assert inst.n_nodes == 5
    assert inst.n_activities == 3
    assert inst.nominal_duration == (0, 4, 3, 5, 0)
    assert inst.capacity == (3,)
    assert inst.requirement[1] == (2,)
    assert (0, 1) in inst.precedence and (3, 4) in inst.precedence
    assert inst.max_deviation == (0,) * 5
    assert inst.meta.name == "toy5"


def test_parse_minimal_single_activity_chain():
    inst = parse_psplib((DATA / "minimal3.sm").read_text())
    assert inst.n_nodes == 3
    assert inst.precedence == ((0, 1), (1, 2))
    assert inst.nominal_duration == (0, 5, 0)


def test_parse_j30_shaped_instance():
    inst = random_psplib_instance(random.Random(3))
    text = psplib_text(inst)
    parsed = parse_psplib(text)
    assert parsed.n_nodes == 32
    assert len(parsed.capacity) == 4
    assert parsed.nominal_duration[0] == 0
    assert parsed.nominal_duration == inst.nominal_duration
    assert parsed.precedence == inst.precedence


def test_parse_self_loop_is_cycle_error():
    text = (DATA / "minimal3.sm").read_text()
    broken = text.replace("   2        1          1           3",
                          "   2        1          1           2")
    with pytest.raises(ParseError, match="cyclic"):
        parse_psplib(broken)


def test_parse_dangling_successor():
    text = (DATA / "minimal3.sm").read_text()
    broken = text.replace("   2        1          1           3",
                          "   2        1          1           9")
    with pytest.raises(ParseError, match="unknown successor"):
        parse_psplib(broken)


def test_parse_non_integer_field_names_line():
    text = (DATA / "minimal3.sm").read_text()
    broken = text.replace("  2      1     5       1", "  2      1     x       1")
    with pytest.raises(ParseError) as err:
        parse_psplib(broken)
    assert err.value.line is not None
    assert "REQUESTS/DURATIONS" in str(err.value)


def test_parse_missing_section():
    text = (DATA / "minimal3.sm").read_text().replace("RESOURCEAVAILABILITIES:", "NOPE:")
    with pytest.raises(ParseError, match="RESOURCEAVAILABILITIES"):
        parse_psplib(text)


def test_parse_rejects_multi_mode():
    text = (DATA / "minimal3.sm").read_text()
    broken = text.replace("   2        1          1           3",
                          "   2        2          1           3")
    with pytest.raises(ParseError, match="single-mode"):
        parse_psplib(broken)


@pytest.mark.parametrize("lineno, text, section, line", [
    (6, "jobs (incl. supersource/sink ):  1", "header", None),
    (6, "jobs (incl. supersource/sink ):", "header", 6),
    (9, "  - renewable                 :  x   R", "header", 9),
    (23, None, "PRECEDENCE RELATIONS", None),
    (23, "   5        1", "PRECEDENCE RELATIONS", 23),
    (19, "   1        1          3           2   3", "PRECEDENCE RELATIONS", 19),
    (20, "   1        1          1           4", "PRECEDENCE RELATIONS", 20),
    (19, "   9        1          2           2   3", "PRECEDENCE RELATIONS", 19),
    (29, "  2      1     4       2   1", "REQUESTS/DURATIONS", 29),
    (29, "  1      1     4       2", "REQUESTS/DURATIONS", 29),
    (28, "  9      1     0       0", "REQUESTS/DURATIONS", 28),
    (29, "  2      2     4       2", "REQUESTS/DURATIONS", 29),
    (36, "    3   4", "RESOURCEAVAILABILITIES", 36),
    (36, None, "RESOURCEAVAILABILITIES", None),
], ids=["one-job", "header-no-value", "header-not-int", "precedence-too-few-rows",
        "precedence-short-row", "successor-count", "precedence-duplicate-job",
        "precedence-unknown-job", "request-width", "requests-duplicate-job",
        "requests-unknown-job", "requests-mode", "capacity-count", "capacity-missing"])
def test_parse_error_names_section_and_line(lineno, text, section, line):
    # one edit of toy5.sm: line ``lineno`` replaced by ``text``, or deleted
    lines = (DATA / "toy5.sm").read_text().splitlines()
    lines[lineno - 1:lineno] = [] if text is None else [text]
    with pytest.raises(ParseError) as err:
        parse_psplib("\n".join(lines))
    assert err.value.section == section
    assert err.value.line == line


@pytest.mark.parametrize("lineno, text, section", [
    (29, "  2      1     x       2", "REQUESTS/DURATIONS"),
    (30, "  3      1     3       2   x", "REQUESTS/DURATIONS"),
    (19, "   2        1          1           x", "PRECEDENCE RELATIONS"),
], ids=["requests-mid-row", "requests-last-field", "precedence-successor"])
def test_a_non_integer_table_field_is_named_with_its_line_and_section(lineno, text, section):
    """A table row whose first field is an int is read whole: a field
    that ``int`` rejects after it is named, with its line and section."""
    lines = (DATA / "toy5.sm").read_text().splitlines()
    lines[lineno - 1] = text
    with pytest.raises(ParseError) as err:
        parse_psplib("\n".join(lines))
    assert str(err.value) == f"non-integer field 'x' (section {section!r}, line {lineno})"
    assert (err.value.section, err.value.line) == (section, lineno)


def test_a_table_header_row_is_skipped():
    """Rows whose first field is not an int are column headers, wherever
    they stand in the table."""
    lines = (DATA / "toy5.sm").read_text().splitlines()
    lines[27:27] = ["jobnr. mode duration  R 1"]
    lines[18:18] = ["jobnr.    #modes  #successors   successors"]
    assert parse_psplib("\n".join(lines)) == parse_psplib((DATA / "toy5.sm").read_text())


PRECEDENCE_TABLE = ["PRECEDENCE RELATIONS:","jobnr.    #modes  #successors   successors",
                    "   1        1          1           5"]


@pytest.mark.parametrize("lineno, text, error", [
    (6, [], ("missing header entry 'jobs' (section 'header')", "header", None)),
    (9, [], ("missing header entry '- renewable' (section 'header')", "header", None)),
    (6, ["jobs (incl. supersource/sink ):  five"],
     ("non-integer value for 'jobs': 'five' (section 'header', line 6)", "header", 6)),
    (25, ["REQUESTS:"], ("missing section header 'REQUESTS/DURATIONS' "
                         "(section 'REQUESTS/DURATIONS')", "REQUESTS/DURATIONS", None)),
    (7, ["jobs in the project file        :  9", "horizon : 12"], None),
    (38, PRECEDENCE_TABLE, None),
    (13, ["PRECEDENCE RELATIONS: below", "PROJECT INFORMATION:"],
     ("expected 5 rows, found 1 (section 'PRECEDENCE RELATIONS')",
      "PRECEDENCE RELATIONS", None)),
], ids=["missing-jobs", "missing-renewable", "jobs-not-int", "missing-section",
        "repeated-header", "repeated-section-after", "repeated-section-before"])
def test_parse_reads_the_first_line_of_each_header_and_section(lineno, text, error):
    """One edit of toy5.sm, line ``lineno`` replaced by the lines ``text``:
    a header entry or a section title that is missing raises its
    ParseError, and one that is repeated is read at its first line, so
    the file parses as toy5.sm when the repeat comes after the original
    and fails on the repeat when it comes first."""
    lines = (DATA / "toy5.sm").read_text().splitlines()
    lines[lineno - 1:lineno] = text
    if error is None:
        assert parse_psplib("\n".join(lines)) == parse_psplib((DATA / "toy5.sm").read_text())
        return
    with pytest.raises(ParseError) as err:
        parse_psplib("\n".join(lines))
    assert (str(err.value), err.value.section, err.value.line) == error


def test_robustify_rule_and_flag():
    inst = parse_psplib((DATA / "toy5.sm").read_text())
    robust = robustify(inst)
    # ceil(4/2)=2, ceil(3/2)=2, ceil(5/2)=3; dummies stay 0
    assert robust.max_deviation == (0, 2, 2, 3, 0)
    # the worst-case durations are derived again by the copy
    assert (inst.worst_case_duration, robust.worst_case_duration) == ((0, 4, 3, 5, 0),
                                                                      (0, 6, 5, 8, 0))
    with pytest.raises(ValueError, match="already robustified"):
        robustify(robust)


@pytest.mark.parametrize("nominal,expected", [(5, 3), (0, 0), (4, 2)])
def test_robustify_examples(nominal, expected):
    inst = make_instance([0, nominal, 0], [(0, 1), (1, 2)])
    assert robustify(inst).max_deviation[1] == expected


def test_json_round_trip_identity():
    inst = robustify(parse_psplib((DATA / "toy5.sm").read_text(), source_path="toy5.sm"))
    again = from_json(to_json(inst))
    assert again == inst
    # canonical serialization is stable
    assert to_json(again) == to_json(inst)


def test_a_zero_duration_instance_round_trips_and_robustifies_again():
    """A robustified all-zero-duration instance used to read back with its
    flag off, so ``robustify`` accepted the copy and refused the original."""
    robust = robustify(make_instance([0, 0, 0, 0], [(0, 1), (0, 2), (1, 3), (2, 3)]))
    again = from_json(to_json(robust))
    assert again == robust
    assert robustify(robust) == robustify(again) == robust


def test_json_keys_are_canonical():
    import json

    inst = parse_psplib((DATA / "minimal3.sm").read_text())
    payload = json.loads(to_json(inst))
    assert list(payload) == ["activities", "nominal", "deviation", "requirements",
                             "capacities", "arcs", "meta"]


def test_from_json_cyclic_arcs_is_parse_error():
    payload = {"nominal": [0, 1, 1, 0], "deviation": [0, 0, 0, 0],
               "requirements": [[0], [1], [1], [0]], "capacities": [1],
               "arcs": [[1, 2], [2, 1]]}
    with pytest.raises(ParseError, match="cyclic precedence relations"):
        from_json(json.dumps(payload))


@pytest.mark.parametrize("key, index, value", [
    ("nominal", 1, 2.7), ("deviation", 1, 1.5), ("requirements", 1, [1.9]),
    ("capacities", 0, 2.5), ("arcs", 0, [0, 1.9]), ("nominal", 1, float("inf")),
    ("nominal", 1, True), ("arcs", 0, [0, True]),
])
def test_from_json_rejects_non_integers(key, index, value):
    # int() would truncate each finite one of these to a valid toy5 instance,
    # and a boolean would pass as 0 or 1
    payload = json.loads(to_json(robustify(parse_psplib((DATA / "toy5.sm").read_text()))))
    payload[key][index] = value
    with pytest.raises(ParseError, match="integer") as err:
        from_json(json.dumps(payload))
    assert err.value.section == "json"


def test_from_json_names_an_arc_that_is_no_pair():
    """Such an arc used to be passed on as Python's unpacking error."""
    payload = json.loads(to_json(parse_psplib((DATA / "toy5.sm").read_text())))
    payload["arcs"][0] = [0, 1, 2]
    with pytest.raises(ParseError, match=r"^invalid instance payload: arc \(0, 1, 2\) "
                                         "is not a pair") as err:
        from_json(json.dumps(payload))
    assert err.value.section == "json"


def test_from_json_of_text_that_is_no_json_is_a_parse_error():
    with pytest.raises(ParseError, match="invalid JSON") as err:
        from_json("{")
    assert err.value.section == "json"


def test_from_json_rejects_a_repeated_key():
    """``json`` keeps the last value of a repeated key, so this text used
    to build capacity (8,) where it first said (3,)."""
    text = to_json(parse_psplib((DATA / "toy5.sm").read_text()))
    text = text.replace('"capacities": [3], ', '"capacities": [3], "capacities": [8], ')
    with pytest.raises(ParseError, match="repeated key 'capacities'") as err:
        from_json(text)
    assert err.value.section == "json"


@pytest.mark.parametrize("meta", [None, [], "toy5", {"name": "toy5", "author": "x"},
                                  {"name": 5}, {"resource_strength": "high"},
                                  {"network_complexity": True}],
                         ids=["null", "list", "string", "unknown_key", "int_name",
                              "string_strength", "boolean_complexity"])
def test_from_json_rejects_a_meta_that_is_no_instance_meta(meta):
    """A null meta used to end in an AttributeError traceback, and an
    unknown key was dropped."""
    payload = json.loads(to_json(parse_psplib((DATA / "toy5.sm").read_text())))
    payload["meta"] = meta
    with pytest.raises(ParseError, match="invalid instance payload") as err:
        from_json(json.dumps(payload))
    assert err.value.section == "json"


def _toy5_json_with(**keys):
    """toy5's JSON form with ``keys`` added or replaced."""
    payload = json.loads(to_json(parse_psplib((DATA / "toy5.sm").read_text())))
    return json.dumps({**payload, **keys})


@pytest.mark.parametrize("text", ["[1]", "5", "null", '"x"',
    pytest.param(_toy5_json_with(robustified=True), id="robustified_key"),
    pytest.param(_toy5_json_with(deviations=[9, 0, 0, 0, 0]), id="deviations_key"),
    pytest.param(_toy5_json_with(activities=[0, 1]), id="short_activities"),
    pytest.param(_toy5_json_with(activities=[0, 1, 2, 3, 5]), id="wrong_activities"),
    pytest.param(_toy5_json_with(activities=[0, True, 2, 3, 4]), id="boolean_activity"),
])
def test_from_json_rejects_a_value_that_is_no_object(text):
    with pytest.raises(ParseError, match="invalid instance payload") as err:
        from_json(text)
    assert err.value.section == "json"


def test_from_json_meta_keys_are_optional():
    payload = json.loads(to_json(parse_psplib((DATA / "toy5.sm").read_text())))
    payload["meta"] = {"name": "toy5"}
    assert from_json(json.dumps(payload)).meta == InstanceMeta(name="toy5")
    del payload["meta"]
    assert from_json(json.dumps(payload)).meta == InstanceMeta()


# A valid chain 0 -> 1 -> 2 -> 3 with one resource, as ProjectInstance's
# keyword arguments; each case below breaks one rule of it.
CHAIN = dict(nominal_duration=(0, 2, 3, 0), max_deviation=(0, 1, 1, 0),
             requirement=((0,), (1,), (2,), (0,)), capacity=(2,),
             precedence=((0, 1), (1, 2), (2, 3)))


@pytest.mark.parametrize("change, message", [
    pytest.param(dict(nominal_duration=(0,), max_deviation=(0,), requirement=((0,),),
                      precedence=()),
                 "an instance needs at least the two dummy activities", id="one_node"),
    pytest.param(dict(max_deviation=(0, 1, 0)),
                 "max_deviation must have one entry per activity", id="short_deviations"),
    pytest.param(dict(nominal_duration=(0, 2, 3, 1, 0)),
                 "max_deviation must have one entry per activity", id="long_durations"),
    pytest.param(dict(nominal_duration=(0, -2, 3, 0)),
                 "nominal_duration entries must be nonnegative", id="negative_duration"),
    pytest.param(dict(max_deviation=(0, 1, -1, 0)),
                 "max_deviation entries must be nonnegative", id="negative_deviation"),
    pytest.param(dict(requirement=((0,), (1,), (2,))),
                 "requirement must have one row per activity", id="missing_row"),
    pytest.param(dict(requirement=((0,), (1, 0), (2,), (0,))),
                 "requirement row 1 must have 1 entries", id="long_row"),
    pytest.param(dict(requirement=((0,), (1,), (-1,), (0,))),
                 "requirement row 2 has a negative entry", id="negative_requirement"),
    pytest.param(dict(requirement=((0,), (5,), (2,), (0,))),
                 "activity 1 needs 5 of resource 0 but only 2 is available",
                 id="over_capacity"),
    pytest.param(dict(requirement=((0,),) * 4, capacity=(0,)),
                 "resource capacities must be positive", id="zero_capacity"),
    pytest.param(dict(nominal_duration=(1, 2, 3, 0)),
                 "dummy activity 0 must have zero duration", id="source_duration"),
    pytest.param(dict(requirement=((1,), (1,), (2,), (0,))),
                 "dummy activity 0 must not use resources", id="source_demand"),
    pytest.param(dict(requirement=((0,), (1,), (2,), (1,))),
                 "dummy activity 3 must not use resources", id="sink_demand"),
    pytest.param(dict(precedence=((0, 1), (1, 2), (2, 3), (2, 9))),
                 r"arc \(2, 9\) references an unknown activity", id="unknown_head"),
    pytest.param(dict(precedence=((0, 1), (1, 2), (2, 3), (-1, 2))),
                 r"arc \(-1, 2\) references an unknown activity", id="unknown_tail"),
    pytest.param(dict(precedence=((0, 1), (1, 2), (2, 3), (2, 3, 1))),
                 r"arc \(2, 3, 1\) is not a pair", id="triple_arc"),
    pytest.param(dict(precedence=((0, 1), (1, 2), (2,), (2, 3))),
                 r"arc \(2,\) is not a pair", id="single_arc"),
    pytest.param(dict(precedence=((0, 1), (1, 2), (2, 3), (2, 1))),
                 "cyclic precedence relations: .*", id="cycle"),
    pytest.param(dict(precedence=((0, 2), (1, 2), (2, 3))),
                 "activity 1 is not reachable from the source", id="unreachable"),
    pytest.param(dict(precedence=((0, 1), (1, 2), (1, 3))),
                 "activity 2 does not reach the sink", id="dead_end"),
])
def test_construction_rejects_each_broken_rule(change, message):
    ProjectInstance(**CHAIN)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ProjectInstance(**{**CHAIN, **change})


def test_a_selection_arc_naming_an_unknown_activity_is_rejected():
    inst = ProjectInstance(**CHAIN)
    for arc in ((1, 99), (-1, 2)):
        with pytest.raises(ValueError, match=rf"^selection arc \({arc[0]}, {arc[1]}\) "
                                             "references an unknown activity$"):
            worst_case_makespan_dp(inst, Selection(frozenset({arc})), 1)


def test_budget_validation():
    inst = make_instance([0, 1, 0], [(0, 1), (1, 2)], deviations=[0, 1, 0])
    assert worst_case_makespan_dp(inst, Selection(), 0).value == 1
    with pytest.raises(ValueError, match="nonnegative"):
        worst_case_makespan_dp(inst, Selection(), -1)


def test_instances_are_hashable_and_immutable():
    inst = parse_psplib((DATA / "minimal3.sm").read_text())
    assert hash(inst) == hash(from_json(to_json(inst)))
    with pytest.raises(AttributeError):
        inst.capacity = (9,)


def _built_each_way(rng):
    """One seeded instance as the generator, ``parse_psplib``,
    ``robustify``, ``from_json`` and ``dataclasses.replace`` build it; the
    replaced copy gains an arc between two activities taken in topological
    order."""
    generated = shuffled_ids(rng, random_psplib_instance(rng, rng.randint(2, 20), 3))
    parsed = parse_psplib(psplib_text(generated))
    robust = robustify(parsed)
    a, b = sorted(rng.sample(range(1, robust.sink), 2), key=robust.order.index)
    extended = dataclasses.replace(robust, precedence=robust.precedence + ((a, b),))
    return (generated, from_json(to_json(generated)), parsed, from_json(to_json(parsed)),
            robust, from_json(to_json(robust)), extended)


def assert_derived_from_scratch(inst):
    """The derived ``order``, ``closure``, ``nominal_tail``, ``pred``,
    ``succ`` and ``ancestors`` equal the referees run on the instance's own
    arcs and durations, as tuples."""
    n_nodes, arcs = inst.n_nodes, inst.precedence
    order, closure, _, _ = arc_graph(n_nodes, arcs)
    assert inst.order == tuple(order)
    assert inst.closure == tuple(closure)
    assert inst.nominal_tail == nominal_tails(inst)
    assert inst.pred == tuple(map(tuple, predecessors(n_nodes, arcs)))
    assert inst.succ == tuple(map(tuple, successors(n_nodes, arcs)))
    assert inst.ancestors == tuple(ancestor_bitsets(n_nodes, arcs))


def test_order_and_closure_are_those_of_the_arcs():
    """The derived ``order``, ``closure`` and ``nominal_tail`` equal
    the order and closure of ``arc_graph`` and the plain successor
    recursion, and ``pred``, ``succ`` and ``ancestors`` their referees, as
    tuples, however the instance was built; the ids are shuffled, so the
    order is not the id order."""
    rng = random.Random(28)
    for _ in range(30):
        for inst in _built_each_way(rng):
            assert_derived_from_scratch(inst)


def test_robustify_shares_the_derived_fields():
    """The derivation is a function of the durations and the arcs alone,
    and the packing of the requirements and capacities alone, which
    ``robustify`` keeps, so the copy holds the same tuples."""
    inst = parse_psplib((DATA / "toy5.sm").read_text())
    robust = robustify(inst)
    assert robust.order is inst.order
    assert robust.closure is inst.closure
    assert robust.nominal_tail is inst.nominal_tail
    assert robust.pred is inst.pred and robust.succ is inst.succ
    assert robust.ancestors is inst.ancestors
    assert robust.resource_fields is inst.resource_fields


def test_another_instance_between_leaves_the_derived_fields_right():
    """Build A, then B with other arcs, then robustify A: the copy's
    derived fields are A's, not B's."""
    rng = random.Random(38)
    for _ in range(10):
        first, second = (random_psplib_instance(rng, rng.randint(3, 15), 2) for _ in range(2))
        robust = robustify(first)
        assert (robust.order, robust.closure, robust.nominal_tail, robust.resource_fields) == \
            (first.order, first.closure, first.nominal_tail, first.resource_fields)
        assert_derived_from_scratch(robust)
        assert_derived_from_scratch(second)


def test_a_rejected_construction_leaves_the_next_one_right():
    """A construction that raises caches nothing: the next one derives
    its own fields, and the rejected input is rejected again."""
    inst = ProjectInstance(**CHAIN)
    for _ in range(2):
        with pytest.raises(ValueError, match="^cyclic precedence relations"):
            ProjectInstance(**{**CHAIN, "precedence": CHAIN["precedence"] + ((2, 1),)})
    again = dataclasses.replace(inst, max_deviation=(0, 0, 0, 0))
    assert again.closure is inst.closure
    assert_derived_from_scratch(again)


def test_a_changed_arc_set_or_duration_is_derived_again():
    """``dataclasses.replace`` with other arcs or other durations derives
    its fields again instead of reusing those of the instance it copies."""
    rng = random.Random(39)
    for _ in range(20):
        inst = random_psplib_instance(rng, rng.randint(3, 15), 2)
        # an arc between unrelated activities changes the closure
        for a, b in [(a, b) for a in range(1, inst.sink) for b in range(a + 1, inst.sink)
                     if not ((inst.closure[a] >> b) | (inst.closure[b] >> a)) & 1][:1]:
            extended = dataclasses.replace(inst, precedence=inst.precedence + ((a, b),))
            assert extended.closure != inst.closure
            assert_derived_from_scratch(extended)
        longer = dataclasses.replace(inst, nominal_duration=tuple(
            d + (0 < v < inst.sink) for v, d in enumerate(inst.nominal_duration)))
        assert longer.nominal_tail[0] > inst.nominal_tail[0]
        assert_derived_from_scratch(longer)


def test_order_and_closure_stay_out_of_equality_hash_repr_and_json():
    """Equality and the hash read the six declared fields only; ``repr``
    and ``to_json`` name none of the derived arc fields (``order``,
    ``closure``, ``pred``, ``succ`` and ``ancestors``) nor the packed
    ``resource_fields``, and their text is that of the code before the
    fields were held (the digest below)."""
    rng = random.Random(28)
    insts = [robustify(dataclasses.replace(
        parse_psplib(psplib_text(random_psplib_instance(rng, 12, 4))),
        meta=InstanceMeta(name=f"r{k}"))) for k in range(5)]
    text = "".join(repr(inst) + to_json(inst) for inst in insts)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "27eb64d4fab6b9b550c2ec7261ebb2b138cae8c9858edc4b07efa2a5630110b8"
    derived = ("order", "closure", "pred", "succ", "ancestors", "resource_fields")
    for inst in insts:
        assert not [name for name in derived if name in repr(inst) + to_json(inst)]
        declared = ("nominal_duration", "max_deviation", "requirement", "capacity",
                    "precedence", "meta")
        assert hash(inst) == hash(tuple(getattr(inst, name) for name in declared))
        other = from_json(to_json(inst))
        for name in derived:
            object.__setattr__(other, name, ())
        assert other == inst and hash(other) == hash(inst)
        assert to_json(other) == to_json(inst)
