"""quivergrass: exact kernels on quiver torus charts, twisted shuffle
products, shifted-diagonal locality, and loop-space fixed-point counts,
with independent computation paths cross-validating each other."""

from .fgl import Character, FormalGroupLaw, fgl_verify
from .quiver import (
    Arrow,
    DilationTorus,
    QuiverSpec,
    default_nakajima,
    incidence_form,
    load_quiver,
    stock_quiver,
    validate_dilation,
)
from .symalg import (
    MultiPoly,
    PoleError,
    RationalFunction,
    VarRegistry,
    Variable,
    rat_equal,
    symmetrize,
)
from .thom import KernelContext, ThomKernel, crosscheck
from .shuffle import (
    ShuffleElement,
    generator,
    shuffle_product,
    weight_space,
    word_product,
)
from .locality import (
    PointConfig,
    is_m_tau_disjoint,
    pair_blocks,
    tau_point,
    verify_m_locality,
    verify_trivialization,
)
from .fixedpoints import (
    carell_chart,
    gaussian_binomial,
    quiver_grass_poincare,
    sl2_enumerate,
)
from .zastava import ColoredDivisor, Poset, ind_fiber, ind_rank

__version__ = "0.1.0"
