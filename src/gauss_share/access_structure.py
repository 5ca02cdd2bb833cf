"""Monotone access structures over participant sets.

An access structure is an upward-closed family of subsets of {1..l} (whoever
contains an authorized set is authorized).  The complement family (everything
else, including the empty set) is the collusion family that must learn
nothing.  Subsets are bitmasks internally (participant p <-> bit p-1) and
sorted tuples of 1-based indices in the public API.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    DomainError,
    EmptyGenerator,
    IndexOutOfRange,
    ThresholdOutOfRange,
    TooManyParticipants,
    _check_count,
    _check_members,
)
from .source_model import SourceSpec, subset_snr

__all__ = [
    "AccessStructure",
    "ExtremalSets",
    "extremal_sets",
    "monotone_closure",
    "threshold_extremal_chain",
    "threshold_structure",
]

MAX_PARTICIPANTS = 20


def _mask_of(subset: Iterable[int]) -> int:
    mask = 0
    for p in subset:
        mask |= 1 << (p - 1)
    return mask


def _subset_of(mask: int) -> tuple[int, ...]:
    out = []
    p = 1
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return tuple(out)


@dataclass(frozen=True, eq=False)
class AccessStructure:
    """Monotone family of authorized subsets, stored as its bitmasks.

    `authorized_masks` and `unauthorized_masks` are sorted, read-only and
    partition all 2^l bitmasks; they are the whole structure.  Everything
    else is read from them: `minimal_sets` (the generators, in (size,
    members) order) once, on first read, and the tuple-of-tuples views on
    every read (they can be large for l near the cap).  Two structures are
    equal, and hash equal, when l and the authorized masks agree, whichever
    builder made them.
    """

    l: int
    authorized_masks: np.ndarray
    unauthorized_masks: np.ndarray

    def _key(self) -> tuple[int, bytes]:
        return self.l, self.authorized_masks.tobytes()

    def __eq__(self, other):
        if not isinstance(other, AccessStructure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @functools.cached_property
    def minimal_sets(self) -> tuple[tuple[int, ...], ...]:
        # authorized masks that lose authorization when any one member leaves
        masks = self.authorized_masks
        member = np.zeros(2**self.l, dtype=bool)
        member[masks] = True
        minimal = np.ones(masks.shape, dtype=bool)
        for b in range(self.l):
            bit = np.uint32(1 << b)
            minimal &= ((masks & bit) == 0) | ~member[masks ^ bit]
        subsets = map(_subset_of, masks[minimal].tolist())
        return tuple(sorted(subsets, key=lambda s: (len(s), s)))

    @property
    def authorized(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_subset_of(int(m)) for m in self.authorized_masks)

    @property
    def unauthorized(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_subset_of(int(m)) for m in self.unauthorized_masks)

    def is_authorized(self, subset: Iterable[int]) -> bool:
        mask = _mask_of(_check_members(subset, self.l, "participants"))
        i = int(np.searchsorted(self.authorized_masks, mask))
        return i < self.authorized_masks.size and int(self.authorized_masks[i]) == mask


def _validate_l(l: int) -> int:
    l = _check_count(l, "l", DomainError)
    if l < 1:
        raise DomainError("need at least one participant")
    if l > MAX_PARTICIPANTS:
        raise TooManyParticipants(
            f"l={l} exceeds the enumeration cap of {MAX_PARTICIPANTS}"
        )
    return l


def _build(l: int, member: np.ndarray) -> AccessStructure:
    """The structure whose authorized masks are where `member` (over all
    2^l masks) is True."""
    authorized = np.flatnonzero(member).astype(np.uint32)
    unauthorized = np.flatnonzero(~member).astype(np.uint32)
    authorized.flags.writeable = False
    unauthorized.flags.writeable = False
    return AccessStructure(
        l=l, authorized_masks=authorized, unauthorized_masks=unauthorized
    )


def monotone_closure(l: int, generator_sets: Iterable[Iterable[int]]) -> AccessStructure:
    """Upward closure of the given generator subsets.

    Generators must be nonempty subsets of 1..l; supersets of other
    generators add nothing, so `minimal_sets` is their antichain.
    """
    l = _validate_l(l)
    gen_masks: set[int] = set()
    for gen in generator_sets:
        members = _check_members(gen, l, "generator members")
        if not members:
            raise EmptyGenerator("generator sets must be nonempty")
        gen_masks.add(_mask_of(members))
    if not gen_masks:
        raise EmptyGenerator("at least one generator set is required")

    all_masks = np.arange(2**l, dtype=np.uint32)
    member = np.zeros(all_masks.shape, dtype=bool)
    for g in map(np.uint32, gen_masks):
        member |= (all_masks & g) == g
    return _build(l, member)


def threshold_structure(l: int, t: int) -> AccessStructure:
    """All subsets of size >= t are authorized."""
    l = _validate_l(l)
    t = _check_count(t, "t", ThresholdOutOfRange)
    if t < 1 or t > l:
        raise ThresholdOutOfRange(f"t={t} outside 1..{l}")
    # popcount of every mask: setting bit b adds one to every lower mask
    sizes = np.zeros(2**l, dtype=np.int8)
    for b in range(l):
        sizes[2**b : 2 ** (b + 1)] = sizes[: 2**b] + 1
    return _build(l, sizes >= t)


@dataclass(frozen=True)
class ExtremalSets:
    """The two subsets that determine capacity.

    min_authorized: authorized set with the least effective SNR (weakest
    coalition that must still reconstruct).  max_unauthorized: unauthorized
    set with the greatest effective SNR (strongest coalition that must stay
    ignorant).  Ties are broken by smaller cardinality, then lexicographic
    order, so results are deterministic.
    """

    min_authorized: tuple[int, ...]
    max_unauthorized: tuple[int, ...]
    snr_authorized: float
    snr_unauthorized: float


def _snr_table(spec: SourceSpec) -> np.ndarray:
    """subset_snr of every bitmask, indexed by mask.  In gains mode bit b
    adds its squared gain to every lower mask: subset_snr's left-to-right
    sum in ascending member order, so each entry equals it bit for bit."""
    if spec.mode == "covariance":
        return np.array([subset_snr(spec, _subset_of(m)) for m in range(2**spec.l)])
    table = np.zeros(2**spec.l)
    for b, g in enumerate(spec.gains):
        table[2**b : 2 ** (b + 1)] = table[: 2**b] + g * g
    return table


def extremal_sets(structure: AccessStructure, spec: SourceSpec) -> ExtremalSets:
    """Exhaustive argmin/argmax of the effective SNR over both families,
    read from _snr_table.  Its entries are subset_snr exactly, so there is
    no tolerance window: only exact ties, broken by least (size, members)."""
    return _extremal_from_table(structure, _snr_table(spec))


def _extremal_from_table(structure: AccessStructure, table: np.ndarray) -> ExtremalSets:
    """extremal_sets read from a source's _snr_table, for callers that keep it."""
    l = structure.l
    if table.size != 2**l:
        raise IndexOutOfRange(
            f"source has {table.size.bit_length() - 1} participants, structure has {l}"
        )

    def least_key(masks: np.ndarray, sign: float) -> tuple:
        values = sign * table[masks]
        best = values.min()
        ties = map(_subset_of, masks[values == best].tolist())
        return float(sign * best), min(ties, key=lambda s: (len(s), s))

    snr_a, min_a = least_key(structure.authorized_masks, 1.0)
    snr_u, max_u = least_key(structure.unauthorized_masks, -1.0)
    return ExtremalSets(min_a, max_u, snr_a, snr_u)


def threshold_extremal_chain(spec: SourceSpec) -> list[ExtremalSets]:
    """Extremal sets of every threshold structure t = 1..l, as nested chains,
    for the source's l participants.

    Sorting participants by absolute gain makes the extremal sets explicit:
    for threshold t the weakest authorized coalition is the t participants of
    smallest absolute gain, and the strongest excluded coalition is the t-1
    participants of largest absolute gain.  Consecutive entries are nested,
    which is what makes threshold capacities comparable by a single ratio
    test.  No subset is enumerated, so the participant cap of the structure
    builders does not apply.  Requires gains mode (per-participant
    observations).
    """
    if spec.mode != "gains":
        raise DomainError("threshold chains require a gains-mode source")
    l = spec.l
    order = sorted(range(1, l + 1), key=lambda p: (abs(float(spec.gains[p - 1])), p))
    chain = []
    for t in range(1, l + 1):
        a_members = tuple(sorted(order[:t]))
        u_members = tuple(sorted(order[l - (t - 1):])) if t > 1 else ()
        chain.append(
            ExtremalSets(
                min_authorized=a_members,
                max_unauthorized=u_members,
                snr_authorized=subset_snr(spec, a_members),
                snr_unauthorized=subset_snr(spec, u_members),
            )
        )
    return chain
