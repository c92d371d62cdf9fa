import pytest

from mlmt.errors import DuplicateDeclaration, ParseError, UnresolvedReference
from mlmt.rules import (
    expand_cardinalities,
    parse_rule_module,
    print_rule_module,
    type_chain,
    validate_rule,
)


CREATE_PART = """
rules Demo {
  rule CreatePart {
    meta {
      P1 : Part mm1
      M1 : Machine mm1
      creates : creates mm1
      creates = M1 -> P1
    }
    from {
      m1 : M1
    }
    to {
      m1 : M1
      p1 : P1
      c1 : creates
      c1 = m1 -> p1
    }
  }
}
"""


class TestParsing:
    def test_create_part_structure(self):
        module = parse_rule_module(CREATE_PART)
        assert module.name == "Demo"
        (rule,) = module.rules
        assert rule.name == "CreatePart"
        named = {e.name: e for e in rule.meta_elements}
        assert named["P1"].level == 2 and named["P1"].type_name == "Part"
        assert named["M1"].type_level == 1
        creates = named["creates"]
        assert creates.kind == "arrow"
        assert (creates.source, creates.target) == ("M1", "P1")
        assert {e.name for e in rule.from_pattern.nodes()} == {"m1"}
        c1 = rule.to_pattern.by_name()["c1"]
        assert (c1.source, c1.target) == ("m1", "p1")
        assert c1.type_name == "creates"

    def test_implicit_constants_are_synthesized(self):
        module = parse_rule_module(CREATE_PART)
        rule = module.rules[0]
        implicit = {e.name for e in rule.implicit_elements}
        # Part, Machine and creates live at level 1 as implied constants
        assert implicit == {"Part", "Machine", "creates"}
        part = rule.meta_element("Part", level=1)
        assert part.constant and part.type_name is None

    def test_empty_module(self):
        module = parse_rule_module("rules Empty { }")
        assert module.name == "Empty" and module.rules == ()

    def test_undeclared_type_in_pattern(self):
        bad = CREATE_PART.replace("m1 : M1", "m1 : Mystery", 1)
        with pytest.raises(UnresolvedReference):
            parse_rule_module(bad)

    def test_duplicate_meta_declaration(self):
        bad = CREATE_PART.replace(
            "M1 : Machine mm1", "M1 : Machine mm1\n      M1 : Machine mm1"
        )
        with pytest.raises(DuplicateDeclaration):
            parse_rule_module(bad)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_rule_module("rules Broken {\n  rule {\n}")
        assert err.value.line == 2
        assert err.value.column > 0

    @pytest.mark.parametrize("suffix", ["@١", "@1-٢"])
    def test_potency_digits_are_ascii(self, suffix):
        assert parse_rule_module(CREATE_PART.replace("Part mm1", "Part mm1 @1-2"))
        with pytest.raises(ParseError) as err:
            parse_rule_module(CREATE_PART.replace("Part mm1", f"Part mm1 {suffix}"))
        assert (err.value.line, err.value.column) == (5, 20 + len(suffix))

    def test_from_to_shared_names_must_agree(self):
        bad = CREATE_PART.replace(
            "      m1 : M1\n      p1 : P1", "      m1 : P1\n      p1 : P1"
        )
        with pytest.raises(DuplicateDeclaration):
            parse_rule_module(bad)


class TestPrinting:
    def test_fixture_round_trip_is_byte_identical(self, pls_paths):
        text = open(pls_paths[1]).read()
        module = parse_rule_module(text)
        assert print_rule_module(module) == text

    def test_print_parse_print_is_stable(self):
        module = parse_rule_module(CREATE_PART)
        printed = print_rule_module(module)
        assert print_rule_module(parse_rule_module(printed)) == printed


class TestValidation:
    def test_fixture_rules_are_valid(self, pls_module, pls):
        root_graph = pls.model(pls.root).graph
        for rule in pls_module.rules:
            assert validate_rule(rule, root_graph) == []

    def test_empty_meta_reported(self, pls):
        module = parse_rule_module(
            "rules R { rule NoMeta { meta { } from { } to { } } }"
        )
        issues = validate_rule(module.rules[0], pls.model("root").graph)
        assert any("MetaEmpty" in i for i in issues)

    def test_root_level_types_must_exist(self, pls):
        text = """
rules R {
  rule Bad {
    meta {
      X : Bogus mm0
    }
    from { }
    to { }
  }
}
"""
        module = parse_rule_module(text)
        issues = validate_rule(module.rules[0], pls.model("root").graph)
        assert any("unknown root" in i for i in issues)

    def test_type_chain_descends_to_the_implicit_constant(self):
        rule = parse_rule_module(CREATE_PART).rules[0]
        declared = rule.meta_element("creates", level=2)
        chain = type_chain(rule, declared)
        assert [(e.name, e.level) for e in chain] == [("creates", 2), ("creates", 1)]
        assert chain[-1].implicit


ASSEMBLY = """
rules Demo {
  rule Pick {
    meta {
      C1 : Container mm1
      P1 : Part mm1
      contains : contains mm1
      contains = C1 -> P1
    }
    from {
      c : C1
      p1 : P1
      k1 : contains
      k1 = c -> p1
    }
    to {
      c : C1
    }
  }
}
"""


class TestCardinalityExpansion:
    def test_unbounded_multiplicities_do_not_expand(self, pls_rules):
        rule = pls_rules["CreatePart"]
        copies = expand_cardinalities(rule, {(2, "creates"): (0, None)})
        assert len(copies) == 1 and copies[0].name == rule.name

    def test_fixed_bound_replicates_arrow_targets(self):
        rule = parse_rule_module(ASSEMBLY).rules[0]
        (expanded,) = expand_cardinalities(rule, {(2, "contains"): (3, 3)})
        names = {e.name for e in expanded.from_pattern.nodes()}
        assert names == {"c", "p1", "p1$1", "p1$2"}
        arrows = {(a.source, a.target) for a in expanded.from_pattern.arrows()}
        assert arrows == {("c", "p1"), ("c", "p1$1"), ("c", "p1$2")}

    def test_range_yields_one_copy_per_value(self):
        rule = parse_rule_module(ASSEMBLY).rules[0]
        copies = expand_cardinalities(rule, {(2, "contains"): (1, 2)})
        assert len(copies) == 2
        sizes = sorted(len(list(c.from_pattern.nodes())) for c in copies)
        assert sizes == [2, 3]

    def test_expansion_count_is_product_of_ranges(self, pls_rules):
        rule = pls_rules["Assemble"]
        copies = expand_cardinalities(
            rule, {(1, "contains"): (1, 2), (1, "in"): (0, None)}
        )
        assert len(copies) == 2
