"""Proximity frames, round ideals, stable compactifications, and the
two comonads they generate, with decision procedures at desk scale."""

from .chain import (
    ChainLikeFrame,
    El,
    Segment,
    Seq,
    build_chain_frame,
    lim,
    succ,
)
from .errors import ProxkitError
from .finite import (
    FiniteFrame,
    build_finite_frame,
    downset_frame,
    hasse_dot,
    open_set_frame,
    product,
)
from .proximity import (
    ChainProximity,
    FiniteProximity,
    Proximity,
    certify_finite_collapse,
    chain_proximity,
    order_proximity,
    product_proximity,
    validate_proximity,
    way_below_proximity,
)
from .roundideal import (
    BelowLim,
    Prin,
    RFrameData,
    dir_sup,
    ideal_frame,
    is_stably_compact,
    kappa,
    member,
    rframe,
    sigma,
    subideal,
    way_below_ideals,
)
from .morphisms import (
    ChainMap,
    FiniteMap,
    Morphism,
    alpha_map,
    block_map,
    compose,
    enumerate_proxhoms,
    identity_map,
    is_proper,
    kappa_map,
    rho,
    rmap_map,
    sigma_map,
    star_compose,
    theta,
    validate_pframemap,
    validate_proxhom,
)
from .comonads import (
    adjunction_checks,
    beta_map,
    c_map,
    check_coalgebra_morphism,
    cmap_of,
    coalgebra_laws,
    coalgebra_structure,
    comonad_laws,
    describe_instance,
    doubled_membership_lemma,
    epsilon_map,
    kleisli_compose,
    kleisli_lift,
    kz_check,
    m_map,
    max_proximity_agreement,
    maxrel_contains_wb,
    naturality_suite,
    r_map,
    retag_map,
    subcomonad_check,
)
from .catalog import (
    CATALOG_NAMES,
    catalog_instances,
    catalog_morphisms,
    load_instance,
    parse_element,
    parse_instance,
    parse_morphism,
)
from .reports import AxiomReport, LawReport, Verdict

__version__ = "0.1.0"
