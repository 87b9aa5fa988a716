"""syzex: exact workbench for finite-dimensional path algebras over GF(p).

Builds kQ/I from a quiver with admissible relations, computes syzygies and
Ext^1 data exactly, closes finite windows of indecomposables, evaluates the
bullet operation and its layers, and derives certified intervals for the
extension dimensions of syzygy module categories.
"""

from .algebra import AlgebraSpec, PathAlgebra, build_algebra, parse_algebra_spec
from .corpus import corpus_algebra, corpus_ids, load_corpus
from .errors import (
    AlgebraMismatch,
    BudgetExceeded,
    ContradictoryFacts,
    NonHomogeneousRelation,
    NonParallelRelation,
    NotFiniteDimensional,
    SpecError,
    UnknownCorpusId,
)
from .extdim import (
    UniverseParams,
    bounded_containment,
    bullet,
    ed_report,
    generate_universe,
    layer,
    rep_type_certificate,
    syzygy_category,
    syzygy_finiteness_probe,
    tits_classification,
)
from .homology import (
    cosyzygy,
    duality,
    ext1_space,
    extension_middle,
    gldim_bounded,
    pd_bounded,
    projective_cover,
    syzygy,
    tilting_check,
)
from .rep import Representation, decompose, direct_sum, hom_space, is_iso

__version__ = "0.1.0"
