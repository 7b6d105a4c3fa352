import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdict import (
    GeneratorConfig,
    InstanceError,
    NegativeWeight,
    ParseError,
    UpgradeBelowBase,
    format_instance,
    parse_instance,
    random_tree,
)
from interdict.instances import scaled_integer
from conftest import NUMBER_TOKENS


EX1_TEXT = """\
# golden ten-node instance
10 1
2 1 6 10
3 2 7 10
4 2 4 10
5 1 1 10
6 5 8 10
7 1 4 10
8 7 3 10
9 7 4 10
10 9 5 10
"""


def test_parse_basic():
    tree = parse_instance(EX1_TEXT)
    assert tree.node_count == 10
    assert tree.root == 1
    assert tree.w[6] == 8 and tree.u[6] == 10


def test_comments_and_blanks_ignored():
    text = "# c\n\n2 1\n# another\n2 1 3 4\n\n"
    tree = parse_instance(text)
    assert tree.node_count == 2


def test_round_trip_canonical():
    tree = parse_instance(EX1_TEXT)
    text = format_instance(tree)
    assert parse_instance(text).parent == tree.parent
    assert format_instance(parse_instance(text)) == text


def test_gen_round_trip_byte_identical():
    tree = random_tree(GeneratorConfig(n=40, seed=9))
    text = format_instance(tree)
    assert format_instance(parse_instance(text)) == text


def test_malformed_token_cites_line():
    text = "3 1\n2 1 1 2\n3 2 x 10\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_wrong_arity():
    with pytest.raises(ParseError) as err:
        parse_instance("2 1\n2 1 3\n")
    assert err.value.line == 2


def test_missing_edges():
    with pytest.raises(ParseError):
        parse_instance("3 1\n2 1 1 1\n")


def test_extra_lines():
    with pytest.raises(ParseError) as err:
        parse_instance("2 1\n2 1 1 1\n3 1 1 1\n")
    assert err.value.line == 3


def test_empty():
    with pytest.raises(ParseError):
        parse_instance("# nothing\n")


def test_skipped_lines_keep_physical_line_numbers():
    # Comment, blank and whitespace-only lines before the header and
    # between edges still count.
    with pytest.raises(ParseError, match="line 7:") as err:
        parse_instance("# c\n\n  \n3 1\n2 1 1 2\n# mid\n3 2 x 10\n")
    assert err.value.line == 7


def test_extra_line_reported_before_its_tokens():
    with pytest.raises(ParseError, match="unexpected extra line") as err:
        parse_instance("2 1\n2 1 1 1\nfoo bar\n")
    assert err.value.line == 3


def test_malformed_edge_reported_before_extra_line():
    with pytest.raises(ParseError, match="expected integer child id") as err:
        parse_instance("2 1\nx 1 1 1\n3 1 1 1\n")
    assert err.value.line == 2


def test_header_only():
    with pytest.raises(ParseError) as err:
        parse_instance("3 1\n")
    assert str(err.value) == "line 1: expected 2 edge lines, found 0"


@pytest.mark.parametrize("text, line", [
    ("# h\n3 1\n", 2), ("3 1\n2 1 1 1\n", 2), ("3 1\n2 1 1 1\n\n# end\n", 4)])
def test_missing_edges_cite_where_input_ended(text, line):
    with pytest.raises(ParseError, match="expected 2 edge lines") as err:
        parse_instance(text)
    assert err.value.line == line


def test_semantic_error_propagates():
    with pytest.raises(UpgradeBelowBase):
        parse_instance("2 1\n2 1 5 4\n")


def test_decimals_rejected_without_scale():
    with pytest.raises(ParseError):
        parse_instance("2 1\n2 1 1.5 2.5\n")


def test_fixed_point_scale():
    tree = parse_instance("2 1\n2 1 1.25 2.5\n", scale=100)
    assert tree.w[2] == 125 and tree.u[2] == 250


def test_scale_requires_integral_result():
    with pytest.raises(ParseError):
        parse_instance("2 1\n2 1 1.25 2.5\n", scale=10)


@pytest.mark.parametrize("scale", [0, -1])
def test_scale_below_one_rejected(scale):
    # Scale 0 would zero every weight, and -1 would report a negative one.
    with pytest.raises(ValueError, match=f"scale must be >= 1, got {scale}"):
        scaled_integer("3", scale, "target")
    with pytest.raises(ValueError, match="scale must be >= 1"):
        parse_instance("3 1\n2 1 5 7\n3 1 4 9\n", scale=scale)


@pytest.mark.parametrize("edge, error", [
    ("2 1 1e4299 1", UpgradeBelowBase), ("2 1 -1e4299 1", NegativeWeight),
    ("2 1 1 -1e4299", NegativeWeight)])
def test_weight_past_str_digit_limit_is_instance_error(edge, error):
    # Scaled, the weight has more digits than Python will print.
    with pytest.raises(error, match="w of 4301 digits|u of 4301 digits"):
        parse_instance(f"2 1\n{edge}\n", scale=10)


WEIGHTS = st.one_of(st.integers(0, 9).map(str), NUMBER_TOKENS)
TOKENS = st.one_of(NUMBER_TOKENS, st.text(max_size=5))
IDS = st.integers(0, 7).map(str)


@st.composite
def instance_lines(draw):
    """A header and edge lines of the right shape, mostly with small ids so
    that many reach build_tree, with arbitrary token lines spliced in."""
    edges = draw(st.lists(st.tuples(IDS, IDS, WEIGHTS, WEIGHTS), max_size=6))
    lines = [f"{len(edges) + 1} {draw(IDS)}"] + [" ".join(e) for e in edges]
    noise = draw(st.lists(st.lists(TOKENS, max_size=5).map(" ".join),
                          max_size=1))
    for line in noise:
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


@given(lines=instance_lines(), scale=st.sampled_from([None, 1, 10]))
@settings(max_examples=300, deadline=None)
def test_fuzz_parse_raises_only_instance_error(lines, scale):
    text = "\n".join(lines)
    try:
        tree = parse_instance(text, scale=scale)
    except InstanceError:
        return
    # A parsed tree has exactly the header's node count.
    header = next(line.split() for line in text.splitlines()
                  if line.split() and not line.split()[0].startswith("#"))
    assert tree.node_count == int(header[0])
