"""Group-valued invariants of classical, virtual, and welded links
presented as braid closures."""

from .freegroup import (
    Ambient,
    Automorphism,
    Endomorphism,
    Word,
    YID,
    abelianized_matrix,
    compose,
    format_word,
    is_identity,
    parse_word,
)
from .braid import BraidLetter, BraidWord, parse, serialize
from .reps import artin, check_relations, project_y, virtual, wada, welded
from .present import (
    AbelianInvariants,
    Presentation,
    abelian_invariants,
    closure_group,
    free_rank_certificate,
    group_of_classical_link,
    group_of_virtual_link,
    group_of_welded_link,
    quotient_y,
    smith_normal_form,
    tietze_simplify,
    wada_group,
)
from .homcount import builtin_group, count_homs, default_battery, fingerprint
from .markov import fuzz

__all__ = [
    "Ambient",
    "Automorphism",
    "AbelianInvariants",
    "BraidLetter",
    "BraidWord",
    "Endomorphism",
    "Presentation",
    "Word",
    "YID",
    "abelian_invariants",
    "abelianized_matrix",
    "artin",
    "builtin_group",
    "check_relations",
    "closure_group",
    "compose",
    "count_homs",
    "default_battery",
    "fingerprint",
    "format_word",
    "free_rank_certificate",
    "fuzz",
    "group_of_classical_link",
    "group_of_virtual_link",
    "group_of_welded_link",
    "is_identity",
    "parse",
    "parse_word",
    "project_y",
    "quotient_y",
    "serialize",
    "smith_normal_form",
    "tietze_simplify",
    "virtual",
    "wada",
    "wada_group",
    "welded",
]
