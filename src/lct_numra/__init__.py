"""Linear canonical transform engine and nonuniform multiresolution toolkit."""

from .canonical import (
    CanonicalMatrix,
    MatrixError,
    compose,
    fourier,
    frft,
    fresnel,
    identity,
    kernel,
    special,
    validate,
)
from .filters import (
    FilterConditionError,
    PeriodicFilterPair,
    TranslationSet,
    check_m0_period,
    check_orthonormality,
    check_scaling_conditions,
    complete_filters,
    filter_eval,
    m0,
    omega_enumerate,
)
from .lct import LctSpectrum, ilct, induced_omega_grid, lct_direct, lct_fast, parseval_residual
from .packets import (
    PacketBasis,
    PacketIndex,
    PacketNode,
    digits,
    generate_packets,
    packet_analyze,
    packet_gram,
    packet_hat,
    packet_synthesize,
    reconstruct,
)
from .sampling import (
    Grid,
    GridMismatchError,
    OffGridError,
    SampledSignal,
    dilate_chirp,
    gaussian,
    indicator,
    inner_product,
    norm,
    numra_grid,
    translate_chirp,
)
from .wavelets import (
    ConvergenceError,
    HatEngine,
    HatFunction,
    WaveletFamily,
    cascade,
    classical_haar_wavelet,
    gram,
    haar_family,
    haar_filter_bank,
    haar_filters,
    haar_scaling,
    project,
    two_scale_residual,
    wavelet_from_filters,
)

__version__ = "0.1.0"
