import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from gen import make_instance, psplib_text, random_psplib_instance, shuffled_ids
from robust_rcpsp._graph import closure_bitsets, topological_order
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
    payload = json.loads(to_json(parse_psplib((DATA / "toy5.sm").read_text(), name="toy5")))
    payload["meta"] = {"name": "toy5"}
    assert from_json(json.dumps(payload)).meta == InstanceMeta(name="toy5")
    del payload["meta"]
    assert from_json(json.dumps(payload)).meta == InstanceMeta()


def test_validation_rejects_bad_instances():
    with pytest.raises(ValueError, match="available"):
        make_instance([0, 1, 0], [(0, 1), (1, 2)], [(0,), (5,), (0,)], (3,))
    with pytest.raises(ValueError, match="zero duration"):
        ProjectInstance((1, 1, 0), (0, 0, 0), ((), (), ()), (), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="reachable"):
        make_instance([0, 1, 1, 0], [(0, 1), (1, 3), (2, 3)])
    with pytest.raises(ValueError, match="reach the sink"):
        make_instance([0, 1, 1, 0], [(0, 1), (0, 2), (1, 3)])


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
    """One seeded instance as ``parse_psplib``, ``from_json``, ``robustify``
    and ``dataclasses.replace`` build it; the replaced copy gains an arc
    between two activities taken in topological order."""
    parsed = parse_psplib(psplib_text(shuffled_ids(rng, random_psplib_instance(
        rng, rng.randint(2, 20), 3))))
    robust = robustify(parsed)
    a, b = sorted(rng.sample(range(1, robust.sink), 2), key=robust.order.index)
    extended = dataclasses.replace(robust, precedence=robust.precedence + ((a, b),))
    return parsed, from_json(to_json(parsed)), robust, from_json(to_json(robust)), extended


def test_order_and_closure_are_those_of_the_arcs():
    """The derived ``order`` and ``closure`` equal ``topological_order`` and
    ``closure_bitsets`` of the arcs, as tuples, however the instance was
    built; the ids are shuffled, so the order is not the id order."""
    rng = random.Random(28)
    for _ in range(30):
        for inst in _built_each_way(rng):
            assert inst.order == tuple(topological_order(inst.n_nodes, inst.precedence))
            assert inst.closure == tuple(closure_bitsets(inst.n_nodes, inst.precedence))


def test_order_and_closure_stay_out_of_equality_hash_repr_and_json():
    """Equality and the hash read the six declared fields only; ``repr``
    and ``to_json`` name neither derived field, and their text is that of
    the code before the fields were held (the digest below)."""
    rng = random.Random(28)
    insts = [robustify(parse_psplib(psplib_text(random_psplib_instance(rng, 12, 4)),
                                    name=f"r{k}")) for k in range(5)]
    text = "".join(repr(inst) + to_json(inst) for inst in insts)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "27eb64d4fab6b9b550c2ec7261ebb2b138cae8c9858edc4b07efa2a5630110b8"
    for inst in insts:
        assert "order" not in repr(inst) and "closure" not in repr(inst)
        declared = ("nominal_duration", "max_deviation", "requirement", "capacity",
                    "precedence", "meta")
        assert hash(inst) == hash(tuple(getattr(inst, name) for name in declared))
        other = from_json(to_json(inst))
        object.__setattr__(other, "order", ())
        object.__setattr__(other, "closure", ())
        assert other == inst and hash(other) == hash(inst)
        assert to_json(other) == to_json(inst)
