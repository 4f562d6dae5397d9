"""Beyond-birthday PRF domain extension via cuckoo-hashing combiners.

The package provides k-wise independent polynomial hash families over
binary fields, the pp and adw hash-and-XOR combiners, the tree PRF
built from a length-doubling generator, four transformation builders
(domain extension, adaptive security from nonadaptive, generator to
PRF), and a distinguisher-game harness that measures what the naive
hash-then-query construction loses to the birthday attack and the
combiners do not.
"""

from .batch import PPTupleSampler, batch_answers, batch_eval_kwise, run_nonadaptive_game_batched
from .bits import BitString, derive_seed, mix64, truncate
from .combine import (
    ADWKey,
    ADWOracle,
    PPKey,
    PPOracle,
    adw_eval,
    adw_inner_eval,
    count_underlying_calls,
    pp_eval,
)
from .errors import ConfigurationError, ProtocolViolation
from .games import (
    AdaptiveDistinguisher,
    Distinguisher,
    GameResult,
    InvolutionOracle,
    MultiOracleNonAdaptiveDistinguisher,
    NonAdaptiveDistinguisher,
    UniformityResult,
    UniformTupleSampler,
    birthday_closed_form,
    birthday_distinguisher,
    exact_sd,
    expected_fixed_points,
    hybrid_wrap,
    involution_distinguisher,
    involution_game,
    involution_nonadaptive_distinguisher,
    involution_samplers,
    run_game,
    run_multi_game,
    sample_involution,
    tuple_uniformity_sd,
)
from .gf import (
    DEFAULT_REDUCTION,
    SUPPORTED_WIDTHS,
    FieldSpec,
    default_spec,
)
from .hashfam import (
    IndependenceReport,
    KWiseHashKey,
    RandomTable,
    RangeRestriction,
    RestrictedHash,
    eval_kwise,
    exhaustive_independence_check,
    restrict_to_table,
    sample_kwise,
    sample_table,
    width_for,
)
from .prfcore import (
    FunctionOracle,
    GgmKey,
    GgmOracle,
    InstrumentedOracle,
    LazyRandomOracle,
    LevinOracle,
    Oracle,
    PrgSpec,
    ggm_eval,
    lazy_answer,
    levin_eval,
    prg_expand,
)
from .transform import (
    ExtensionParams,
    PaddedPrfMap,
    adw_z,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    build_adw_domain_extension,
    build_pp_domain_extension,
    build_prg_prf,
    lazy_random_sampler,
)

__all__ = [
    "ADWKey", "ADWOracle", "AdaptiveDistinguisher", "BitString", "ConfigurationError",
    "DEFAULT_REDUCTION", "Distinguisher", "ExtensionParams", "FieldSpec",
    "FunctionOracle", "GameResult", "GgmKey", "GgmOracle", "IndependenceReport",
    "InstrumentedOracle", "InvolutionOracle", "KWiseHashKey", "LazyRandomOracle",
    "LevinOracle", "MultiOracleNonAdaptiveDistinguisher", "NonAdaptiveDistinguisher",
    "Oracle", "PPKey", "PPOracle", "PPTupleSampler", "PaddedPrfMap", "PrgSpec",
    "ProtocolViolation", "RandomTable", "RangeRestriction", "RestrictedHash",
    "SUPPORTED_WIDTHS", "UniformTupleSampler", "UniformityResult", "adw_eval",
    "adw_inner_eval", "adw_z", "batch_answers", "batch_eval_kwise",
    "birthday_closed_form", "birthday_distinguisher", "build_adaptive_from_nonadaptive",
    "build_adw_adaptive_from_nonadaptive", "build_adw_domain_extension",
    "build_pp_domain_extension", "build_prg_prf", "count_underlying_calls",
    "default_spec", "derive_seed",
    "eval_kwise", "exact_sd", "exhaustive_independence_check", "expected_fixed_points",
    "ggm_eval", "hybrid_wrap",
    "involution_distinguisher", "involution_game", "involution_nonadaptive_distinguisher",
    "involution_samplers", "lazy_answer", "lazy_random_sampler", "levin_eval", "mix64",
    "pp_eval", "prg_expand", "restrict_to_table", "run_game", "run_multi_game",
    "run_nonadaptive_game_batched", "sample_involution", "sample_kwise", "sample_table",
    "truncate", "tuple_uniformity_sd", "width_for",
]
