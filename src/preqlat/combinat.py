"""Index-tuple combinatorics shared by the exterior-algebra layers.

Monomials of an exterior algebra are keyed by strictly increasing index
tuples.  Multiplying two monomials amounts to merging their index tuples
and counting the transpositions needed to sort the concatenation.
"""

from itertools import combinations


def sort_sign(seq):
    """Sign of the permutation sorting ``seq``, or 0 on a repeated entry.

    >>> sort_sign((3, 1, 2))
    1
    >>> sort_sign((2, 1))
    -1
    >>> sort_sign((1, 1))
    0
    """
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def merge_tuples(a, b):
    """Merge two strictly increasing tuples into one, with the shuffle sign.

    Returns ``(merged, sign)``, or ``None`` if the tuples share an index.
    The sign is the parity of moving the entries of ``b`` past those of
    ``a`` into sorted position.

    >>> merge_tuples((0, 2), (1,))
    ((0, 1, 2), -1)
    >>> merge_tuples((0,), (0,)) is None
    True
    """
    if set(a) & set(b):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
            # b[j] jumped over the len(a)-i remaining entries of a
            if (len(a) - i) % 2:
                sign = -sign
    merged.extend(a[i:])
    merged.extend(b[j:])
    return tuple(merged), sign


def remove_index(idx, tup):
    """Remove ``idx`` from the increasing tuple ``tup``.

    Returns ``(new_tuple, sign)`` where sign = (-1)**position; ``idx``
    must occur in ``tup``.  This is the interior-product sign.
    """
    pos = tup.index(idx)
    return tup[:pos] + tup[pos + 1:], -1 if pos % 2 else 1


def degree_tuples(m, k):
    """All strictly increasing k-tuples from range(m), in lexicographic order."""
    return list(combinations(range(m), k))
