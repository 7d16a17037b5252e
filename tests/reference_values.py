"""Frozen reference counts shared by the unit and acceptance tests.

Every row of CLOSE_CALL_ROWS was recomputed by exhaustive enumeration of
all 2**n sequences before being frozen here.  WIN_GAP_AT_100 lies far
beyond enumeration; it was frozen from the closed form only after the
three analytic computation paths agreed with each other and with the
enumeration oracle on every length where enumeration is feasible.

descending_compositions is the plain reference order the generator tests
hold signatures.generate_sequences to; it shares no code with the
generator's in-place step.
"""

# n -> (heady count at score +1, win-count gap)
CLOSE_CALL_ROWS = {
    2: (1, 0),
    3: (1, 1),
    4: (1, 2),
    5: (4, 3),
    6: (7, 7),
    7: (10, 14),
    8: (23, 24),
    9: (46, 47),
    10: (79, 93),
    11: (157, 172),
    12: (315, 329),
    13: (588, 644),
    14: (1137, 1232),
    15: (2249, 2369),
    16: (4337, 4618),
    17: (8402, 8955),
    18: (16495, 17357),
    19: (32179, 33852),
    20: (62707, 66031),
    21: (122916, 128738),
    22: (240837, 251654),
    23: (471456, 492491),
    24: (925061, 963947),
    25: (1816610, 1889008),
}

WIN_GAP_AT_100 = 35738289179539587978601128016


def descending_compositions(total, bins, head=()):
    """Weak compositions of total into bins parts, descending lexicographic.

    Recursive and lazy: the first part runs from total down to 0, and each
    value is followed by every composition of the rest into one part fewer.
    The recursion is bins deep.
    """
    if bins == 1:
        yield head + (total,)
        return
    for first in range(total, -1, -1):
        yield from descending_compositions(total - first, bins - 1, head + (first,))
