import io
import json
from contextlib import redirect_stdout
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from genocchi.admissible import (
    AdmissibleSequence,
    GammaGraph,
    _elems,
    count_closed_column_graded,
    is_closed_in_gamma,
    iter_admissible,
)
from genocchi.cli import run
from genocchi.errors import ResourceLimitError
from genocchi.seidel import normalized_h


def sequences(n):
    return [AdmissibleSequence(n, masks) for masks in iter_admissible(n)]


def subsets_of(seq):
    """I_1..I_{n-1} of the sequence, each as its ascending elements."""
    return tuple(map(_elems, seq.masks))


def test_n1_is_the_empty_sequence():
    seqs = sequences(1)
    assert len(seqs) == 1
    assert subsets_of(seqs[0]) == ()


def test_n2_lists_both_singletons():
    seqs = sequences(2)
    assert sorted(subsets_of(s) for s in seqs) == [((1,),), ((2,),)]


def test_n3_count():
    assert sum(1 for _ in iter_admissible(3)) == 7


@pytest.mark.parametrize("n", range(1, 7))
def test_counts_match_the_triangle(n):
    assert sum(1 for _ in iter_admissible(n)) == normalized_h(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_subset_count_agrees(n):
    assert count_closed_column_graded(n) == sum(1 for _ in iter_admissible(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_closed_subset_count_matches_brute_force(n):
    # every column-graded subset, tested for closure vertex by vertex
    graph = GammaGraph(n)
    columns = [combinations(range(1, n + 1), l) for l in range(1, n)]
    closed = sum(
        1
        for choice in product(*columns)
        if is_closed_in_gamma(
            [(l, j) for l, col in enumerate(choice, start=1) for j in col], graph
        )
    )
    assert count_closed_column_graded(n) == closed


def test_closed_subset_golden_values():
    assert count_closed_column_graded(3) == 7
    assert count_closed_column_graded(1) == 1
    assert count_closed_column_graded(4) == 38


def test_validation_enforces_sizes_and_containment():
    AdmissibleSequence(3, (0b0010, 0b0110))  # I1={1}, I2={1,2}
    with pytest.raises(ValueError):
        AdmissibleSequence(3, (0b0110, 0b0010))  # |I1| = 2
    with pytest.raises(ValueError):
        # I1={2} but I2 ∪ {2} = {1,3} ∪ {2} contains 2, so pick a real violation:
        # I1={4} is outside {1..3}
        AdmissibleSequence(3, (0b10000, 0b0110))
    with pytest.raises(ValueError):
        # I1={3}, I2={1,2}: 3 not in I2 ∪ {2}
        AdmissibleSequence(3, (0b1000, 0b0110))


def test_containment_condition_on_the_visited_stream():
    for seq in sequences(5):
        sets = [set(s) for s in subsets_of(seq)]
        for l in range(len(sets) - 1):
            assert sets[l] <= sets[l + 1] | {l + 2}


def test_visit_order_is_deterministic():
    a = [subsets_of(s) for s in sequences(5)]
    b = [subsets_of(s) for s in sequences(5)]
    assert a == b


def test_subset_map_is_injective_and_lands_on_closed_sets():
    n = 5
    graph = GammaGraph(n)
    images = set()
    for seq in sequences(n):
        vertices = frozenset(
            (l, j) for l, s in enumerate(subsets_of(seq), start=1) for j in s
        )
        assert is_closed_in_gamma(vertices, graph)
        images.add(vertices)
    assert len(images) == normalized_h(n)


def test_is_closed_golden_cases():
    g = GammaGraph(5)
    assert is_closed_in_gamma(set(), g)
    assert is_closed_in_gamma({(l, j) for l in range(1, 5) for j in range(1, 6)}, g)
    assert not is_closed_in_gamma({(1, 5)}, g)  # (1,5) -> (2,5) leaves the set
    assert is_closed_in_gamma({(1, 2)}, g)  # arrow to (2,2) does not exist
    with pytest.raises(ValueError):
        is_closed_in_gamma({(9, 9)}, g)


def test_gamma_graph_arrows_match_the_rule():
    g = GammaGraph(5)
    grid = [(l, j) for l in range(1, 5) for j in range(1, 6)]
    arrows = {(v, t) for v in grid if (t := g.arrow_target(v)) is not None}
    assert ((1, 1), (2, 1)) in arrows
    assert all(t == (v[0] + 1, v[1]) for v, t in arrows)
    assert not any(v[0] + 1 == v[1] for v, _ in arrows)
    # out-degree: 1 unless the next column equals the row or is off the grid
    for l, j in grid:
        expected = 1 if (l + 1 <= 4 and l + 1 != j) else 0
        assert (g.arrow_target((l, j)) is not None) == bool(expected)


def test_resource_limit_and_domain_errors():
    # the enumeration's checks fire at the call, before anything is iterated
    with pytest.raises(ResourceLimitError):
        iter_admissible(9)
    with pytest.raises(ValueError):
        iter_admissible(0)
    with pytest.raises(ResourceLimitError):
        count_closed_column_graded(9)
    with pytest.raises(ValueError):
        count_closed_column_graded(0)


@pytest.mark.parametrize("n, masks", [(True, ()), (2, (True,)), (3, (0b0010, 6.0)), (3, [0b0010, 0b0110])])
def test_non_integer_fields_are_rejected(n, masks):
    # AdmissibleSequence(True, ()) would print "n":True, which no JSON reader
    # accepts; a list of masks would not hash
    with pytest.raises(TypeError, match="^n and masks must be integers$"):
        AdmissibleSequence(n, masks)


def streamed(n, as_json):
    """The output of enumerate admissible for n, text or JSON."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["enumerate", "admissible", "--n", str(n)] + ["--json"] * as_json) == 0
    return out.getvalue()


def test_json_shape():
    # the sequence I_1 = {1}, I_2 = {1,3} in the n = 3 stream
    assert '{"n":3,"sets":[[1],[1,3]]}' in streamed(3, True).splitlines()
    assert "1 | 1,3" in streamed(3, False).splitlines()


@pytest.mark.parametrize("n", range(1, 6))
def test_json_line_and_render_match_the_fields(n):
    seqs = sequences(n)
    lines = [
        json.dumps({"n": s.n, "sets": [list(x) for x in subsets_of(s)]}, separators=(",", ":"))
        for s in seqs
    ]
    assert streamed(n, True) == "".join(line + "\n" for line in lines) + f'{{"total":"{len(seqs)}"}}\n'
    texts = [" | ".join(",".join(map(str, x)) for x in subsets_of(s)) or "()" for s in seqs]
    assert streamed(n, False) == "".join(text + "\n" for text in texts) + f"total {len(seqs)}\n"


def elements(mask):
    return {j for j in range(mask.bit_length()) if mask >> j & 1}


def naive_fault(n, masks):
    """The first fault of a sequence, on sets of elements, or None if it is valid."""
    if len(masks) != n - 1:
        return f"expected {n - 1} subsets, got {len(masks)}"
    sets = [elements(m) for m in masks]
    for l, s in enumerate(sets, start=1):
        if not s <= set(range(1, n + 1)):
            return f"I_{l} contains elements outside 1..{n}"
        if len(s) != l:
            return f"I_{l} must have exactly {l} elements"
    for l in range(1, n - 1):
        if not sets[l - 1] <= sets[l] | {l + 1}:
            return f"I_{l} exceeds I_{l + 1} plus {{{l + 1}}}"
    return None


@st.composite
def mask_tuples(draw):
    # mostly invalid: a walked sequence with one subset redrawn, or subsets
    # drawn at random (elements 0 and n + 1 included), sometimes one too many
    # or too few
    n = draw(st.integers(1, 6))
    mask = st.integers(0, (1 << (n + 2)) - 1)
    if n > 1 and draw(st.booleans()):
        masks = list(draw(st.sampled_from(list(iter_admissible(n)))))
        masks[draw(st.integers(0, n - 2))] = draw(mask)
    else:
        size = draw(st.sampled_from([n - 1, n - 1, n - 1, n - 2, n]).filter(lambda k: k >= 0))
        masks = draw(st.lists(mask, min_size=size, max_size=size))
    if draw(st.integers(0, 4)) == 0:
        # sometimes n or one mask a bool or a float
        fields = [n] + masks
        at = draw(st.integers(0, len(fields) - 1))
        fields[at] = draw(st.sampled_from([bool(fields[at]), float(fields[at])]))
        n, masks = fields[0], fields[1:]
    return n, tuple(masks)


@settings(max_examples=400, deadline=None)
@given(mask_tuples())
def test_constructor_rejects_what_the_set_check_rejects(drawn):
    n, masks = drawn
    if {type(n)} | set(map(type, masks)) != {int}:
        # a field that is not an int comes before any fault of the values
        with pytest.raises(TypeError, match="^n and masks must be integers$"):
            AdmissibleSequence(n, masks)
        return
    fault = naive_fault(n, masks)
    if fault is None:
        assert AdmissibleSequence(n, masks).masks == masks
    else:
        with pytest.raises(ValueError) as exc:
            AdmissibleSequence(n, masks)
        assert str(exc.value) == fault
