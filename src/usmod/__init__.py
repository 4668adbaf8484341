"""Exact deciders and a law-checking harness for uniform S-relative module
notions (torsion, essential submodules, injectivity and envelopes) over
finite commutative rings."""

__version__ = "0.1.0"

from .caps import Caps, DEFAULT_CAPS, caps_from_env
from .rings import (
    FiniteRing,
    Ideal,
    MultiplicativeSet,
    all_ideals,
    complement_of_prime,
    make_product,
    make_trivial_extension,
    make_zmod,
    mult_set_closure,
    quotient_ring,
    spectrum,
)
from .modules import (
    FiniteModule,
    Homomorphism,
    Submodule,
    all_submodules,
    annihilator,
    cyclic_submodule,
    direct_sum,
    hom_enumerate,
    quotient_module,
    regular_module,
    submodule,
    submodule_as_module,
)
from .storsion import (
    find_u_S_isomorphism,
    is_u_S_epi,
    is_u_S_iso,
    is_u_S_mono,
    is_u_S_split,
    is_u_S_torsion,
    s_torsion_submodule,
)
from .essential import (
    EssentialVerdict,
    is_essential,
    is_u_S_essential_fast,
    is_u_S_essential_oracle,
    u_S_complement,
)
from .injective import (
    EnvelopeCandidate,
    InjectivityReport,
    certify_u_S_injective,
    check_u_S_envelope,
    check_u_S_preenvelope,
    construct_u_S_envelope,
    injective_envelope_zmod,
    is_injective_baer,
    u_S_injectivity_certificate,
)
from .corpus import Bounds, Instance, build_instance, corpus_stream, generate_corpus
from .laws import LawResult, REGISTRY, run_laws
from .search import search_counterexamples
