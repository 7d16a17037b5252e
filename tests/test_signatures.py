import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streakcount.core import score
from streakcount.oracle import word_to_bits
from streakcount.signatures import (
    complement,
    generate_sequences,
    min_length,
    min_length_sequence,
    sequence_count,
    signature_of,
    signature_score,
)

from reference_values import descending_compositions

marks = st.text(alphabet="+-", min_size=1, max_size=6)
heady_marks = marks
taily_marks = marks.filter(lambda s: not s.endswith("+"))


def all_signatures(max_marks):
    for length in range(1, max_marks + 1):
        for combo in itertools.product("+-", repeat=length):
            yield "".join(combo)


def test_signature_of_examples():
    assert signature_of((0, 0, 1, 1, 1, 0, 0, 1)) == "++-"
    assert signature_of((0, 1, 0, 1, 0, 0, 1, 1)) == "--+"
    assert signature_of((0, 0, 0)) == ""
    assert signature_of((0, 0, 1)) == ""
    assert signature_of((1,)) == ""


@given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
def test_signature_score_matches_sequence_score(bits):
    seq = tuple(bits)
    assert signature_score(signature_of(seq)) == score(seq)


def test_complement_swaps_marks():
    assert complement("++-") == "--+"
    assert complement("+-+-+") == "-+-+-"
    assert complement("") == ""


@given(marks)
def test_complement_is_an_involution_negating_the_score(sig):
    assert complement(complement(sig)) == sig
    assert signature_score(complement(sig)) == -signature_score(sig)


def test_min_length_spot_values():
    assert min_length("++-", "heady") == 5
    assert min_length("--+", "heady") == 6
    assert min_length("+-+-+", "heady") == 8
    assert min_length("-+-+-", "heady") == 9
    assert min_length("-", "taily") == 2
    assert min_length("-", "heady") == 3
    assert min_length("+", "heady") == 2


def test_min_length_depends_only_on_mark_counts_and_mode():
    seen = {}
    for sig in all_signatures(8):
        key = (sig.count("+"), sig.count("-"))
        length = min_length(sig, "heady")
        assert seen.setdefault(("heady", key), length) == length
        if not sig.endswith("+"):
            length = min_length(sig, "taily")
            assert seen.setdefault(("taily", key), length) == length


def test_min_length_sequence_realizes_the_signature():
    assert min_length_sequence("--+", "heady") == (1, 0, 1, 0, 1, 1)
    assert min_length_sequence("++-", "heady") == (1, 1, 1, 0, 1)
    assert min_length_sequence("-", "taily") == (1, 0)
    for sig in all_signatures(7):
        for mode in ("heady", "taily"):
            if mode == "taily" and sig.endswith("+"):
                continue
            mu = min_length_sequence(sig, mode)
            assert len(mu) == min_length(sig, mode)
            assert signature_of(mu) == sig
            assert mu[-1] == (1 if mode == "heady" else 0)


def test_min_length_sequence_is_unique_at_its_length():
    # below the minimum nothing realizes the signature; at it, one thing does
    for sig in ("++-", "--+", "+", "--"):
        for mode in ("heady", "taily"):
            if mode == "taily" and sig.endswith("+"):
                continue
            length = min_length(sig, mode)
            wanted_last = 1 if mode == "heady" else 0
            for n in (length - 1, length):
                hits = [
                    word_to_bits(w, n)
                    for w in range(1 << n)
                    if signature_of(word_to_bits(w, n)) == sig
                    and word_to_bits(w, n)[-1] == wanted_last
                ]
                assert len(hits) == (0 if n < length else 1)
                if n == length:
                    assert hits[0] == min_length_sequence(sig, mode)


def test_signature_validation():
    with pytest.raises(ValueError, match="only '\\+' and '-'"):
        min_length("+x-")
    with pytest.raises(ValueError, match="mode"):
        min_length("+", "sideways")
    with pytest.raises(ValueError, match="null signature"):
        min_length("")
    with pytest.raises(ValueError, match="ending in '\\+'"):
        min_length("-+", "taily")
    with pytest.raises(ValueError, match="null signature"):
        list(generate_sequences("", 4, "taily"))


def test_compositions_order_and_census():
    assert list(descending_compositions(3, 2)) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert list(descending_compositions(0, 3)) == [(0, 0, 0)]
    assert list(descending_compositions(4, 1)) == [(4,)]
    fives = list(descending_compositions(5, 3))
    assert len(fives) == 21
    assert len(set(fives)) == 21
    assert all(sum(c) == 5 for c in fives)
    assert fives == sorted(fives, reverse=True)
    assert fives[:4] == [(5, 0, 0), (4, 1, 0), (4, 0, 1), (3, 2, 0)]
    assert fives[-1] == (0, 0, 5)


def test_deep_signature_generates_without_recursion():
    # 1201 insertion slots: far beyond the interpreter's recursion limit
    sig, n = "-" * 1200, 3700
    outputs = list(itertools.islice(generate_sequences(sig, n, "taily"), 50))
    assert len(outputs) == 50
    assert len(set(outputs)) == 50
    for bits in outputs:
        assert len(bits) == n
        assert bits[-1] == 0
        assert score(bits) == -1200
        assert signature_of(bits) == sig


@given(st.integers(0, 8), st.integers(1, 5))
def test_compositions_count_is_stars_and_bars(total, bins):
    found = list(descending_compositions(total, bins))
    assert len(found) == comb(total + bins - 1, bins - 1)
    assert len(set(found)) == len(found)
    # a pinned taily run of bins '-' marks has one insertion slot per mark
    sig = "-" * bins
    n = min_length(sig, "taily") + total
    outputs = list(generate_sequences(sig, n, "taily", fixed_leading_one=True))
    assert len(outputs) == sequence_count(sig, n, "taily", fixed_leading_one=True) == len(found)
    assert len(set(outputs)) == len(outputs)


def test_generate_short_signature():
    assert list(generate_sequences("+", 2, "heady")) == [(1, 1)]
    assert sequence_count("+", 2, "heady") == 1


def test_generate_walks_compositions_in_order():
    outputs = ["".join(map(str, b)) for b in generate_sequences("++-", 8, "heady")]
    assert outputs == ["00011101", "00111001", "01110001", "11100001"]
    assert sequence_count("++-", 8, "heady") == 4


def test_generate_rejects_short_lengths_eagerly():
    with pytest.raises(ValueError, match="minimum feasible length is 5"):
        generate_sequences("++-", 4, "heady")
    with pytest.raises(ValueError, match="minimum feasible length"):
        sequence_count("--+", 5, "heady")


def test_fixed_leading_one_drops_the_front_slot():
    free = list(generate_sequences("++-", 9, "heady"))
    pinned = list(generate_sequences("++-", 9, "heady", fixed_leading_one=True))
    assert [b for b in free if b[0] == 1] == pinned
    assert sequence_count("++-", 9, "heady", fixed_leading_one=True) == len(pinned)
    with pytest.raises(ValueError, match="fixing the leading head"):
        generate_sequences("+", 3, "heady", fixed_leading_one=True)


@given(heady_marks, st.integers(0, 4))
def test_generated_heady_sequences_are_sound_and_distinct(sig, spare):
    n = min_length(sig, "heady") + spare
    outputs = list(generate_sequences(sig, n, "heady"))
    assert len(outputs) == sequence_count(sig, n, "heady")
    assert len(set(outputs)) == len(outputs)
    for bits in outputs:
        assert len(bits) == n
        assert bits[-1] == 1
        assert signature_of(bits) == sig


@given(taily_marks, st.integers(0, 4))
def test_generated_taily_sequences_are_sound_and_distinct(sig, spare):
    n = min_length(sig, "taily") + spare
    outputs = list(generate_sequences(sig, n, "taily"))
    assert len(outputs) == sequence_count(sig, n, "taily")
    assert len(set(outputs)) == len(outputs)
    for bits in outputs:
        assert len(bits) == n
        assert bits[-1] == 0
        assert signature_of(bits) == sig


def test_generation_is_complete_against_enumeration():
    for n in range(1, 9):
        by_group = {}
        for word in range(1 << n):
            bits = word_to_bits(word, n)
            sig = signature_of(bits)
            if not sig:
                continue
            mode = "heady" if bits[-1] == 1 else "taily"
            by_group.setdefault((sig, mode), set()).add(bits)
        for (sig, mode), expected in by_group.items():
            assert set(generate_sequences(sig, n, mode)) == expected


def slot_by_slot(sig, n, mode, fixed_leading_one):
    # the plain construction: one insertion slot in front of each heads run
    # of the shortest sequence (plus the end slot for taily sequences), and
    # every output rebuilt from nothing, slot by slot, for each composition
    mu = min_length_sequence(sig, mode)
    slots = [i for i, b in enumerate(mu) if b == 1 and (i == 0 or mu[i - 1] == 0)]
    if mode == "taily":
        slots.append(len(mu))
    if fixed_leading_one:
        slots = slots[1:]
    spare = n - len(mu)
    if not slots:
        if spare:
            raise ValueError("no slot for the spare tails")
        yield mu
        return
    ends = slots[1:] + [len(mu)]
    for comp in descending_compositions(spare, len(slots)):
        out = list(mu[:slots[0]])
        for c, a, b in zip(comp, slots, ends):
            out += [0] * c
            out += mu[a:b]
        yield tuple(out)


@st.composite
def generation_requests(draw):
    mode = draw(st.sampled_from(["heady", "taily"]))
    sig = draw(st.text(alphabet="+-", min_size=1, max_size=10))
    if mode == "taily" and sig.endswith("+"):
        sig = sig[:-1] + "-"
    spare = draw(st.integers(0, 8))
    return sig, min_length(sig, mode) + spare, mode, draw(st.booleans())


@given(generation_requests())
@settings(max_examples=150)
def test_generation_equals_the_slot_by_slot_construction(request):
    sig, n, mode, pinned = request
    try:
        want = list(slot_by_slot(sig, n, mode, pinned))
    except ValueError:
        with pytest.raises(ValueError, match="fixing the leading head"):
            generate_sequences(sig, n, mode, pinned)
        return
    got = list(generate_sequences(sig, n, mode, pinned))
    assert got == want


@pytest.mark.parametrize("sig, spare, mode", [
    ("-" * 150, 40, "taily"),
    ("+--" * 80, 25, "heady"),
], ids=["dashes-taily", "mixed-heady"])
@pytest.mark.parametrize("pinned", [False, True])
def test_deep_generation_equals_the_slot_by_slot_construction(sig, spare, mode, pinned):
    # 151 and 161 insertion slots; over the first 300 outputs one tail
    # walks from the first slot to the last, the next step takes it out of
    # the last slot again, with one more tail from the first, into the
    # second, and a tail walks on from there, so the edits reach every part
    # of the sequence
    n = min_length(sig, mode) + spare
    assert sequence_count(sig, n, mode) >= comb(spare + 150, 150)
    want = list(itertools.islice(slot_by_slot(sig, n, mode, pinned), 300))
    assert len(set(want)) == 300
    got = list(itertools.islice(generate_sequences(sig, n, mode, pinned), 300))
    assert got == want


def test_one_slot_and_spare_free_generation():
    # one slot: every spare tail goes in front of the only heads run, or,
    # for a pinned taily sequence, behind the last toss
    assert list(generate_sequences("++", 6, "heady")) == [(0, 0, 0, 1, 1, 1)]
    assert list(generate_sequences("-", 5, "taily", fixed_leading_one=True)) == [
        (1, 0, 0, 0, 0)]
    # no spare tails: the shortest sequence alone, however many slots
    for sig, mode in (("+-+-", "heady"), ("--+-", "taily"), ("-" * 40, "taily")):
        mu = min_length_sequence(sig, mode)
        for pinned in (False, True):
            assert list(generate_sequences(sig, len(mu), mode, pinned)) == [mu]


@pytest.mark.parametrize("sig, mode, pinned, slots, spare", [
    ("++-", "heady", False, 2, 40),
    ("-+-", "taily", True, 2, 37),
    ("-++-", "taily", False, 3, 40),
    ("+---+", "heady", True, 3, 33),
    ("+--+-", "heady", False, 4, 40),
    ("--+--", "taily", True, 4, 29),
    ("+-+---", "heady", False, 5, 25),
    ("+-+----", "taily", True, 5, 22),
    ("+-+----", "taily", False, 6, 21),
    ("--+----", "heady", True, 6, 20),
])
def test_long_runs_equal_the_slot_by_slot_construction(sig, mode, pinned, slots, spare):
    # a few slots and many spare tails, the benchmark's shallow shape: the
    # tails of the slot next to the last cross into the last in runs of up
    # to spare outputs, where the other tests' runs stop at 8, and with
    # three slots or more an earlier slot steps while the last slot holds
    # tails, which all move back with it.  Every output is held to the
    # construction, in order
    n = min_length(sig, mode) + spare
    count = sequence_count(sig, n, mode, pinned)
    assert count == comb(spare + slots - 1, slots - 1)
    pairs = itertools.zip_longest(generate_sequences(sig, n, mode, pinned),
                                  slot_by_slot(sig, n, mode, pinned))
    for k, (got, want) in enumerate(pairs):
        assert got == want, k
    assert k + 1 == count
