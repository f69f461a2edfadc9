"""cubiclass: prime-order automorphisms of smooth cubic hypersurfaces.

Exact-arithmetic library deciding which primes occur as automorphism orders
of smooth cubic n-folds, classifying the invariant families up to signature
equivalence with certified smooth witnesses, and computing the induced
character on Jacobian-ring graded pieces for the Klein hypersurfaces.
"""

from .admissibility import (
    admissible_primes,
    is_admissible,
    is_prime,
    max_admissible_prime,
)
from .signatures import (
    AffinePermAction,
    Signature,
    act,
    canonicalize,
    enumerate_orbits,
    equivalent,
)
from .forms import (
    CubicForm,
    EigenspaceBasis,
    coordinate_subspace_obstruction,
    eigenspace_basis,
    fermat,
    form_from_json,
    form_to_json,
    invertible_member,
    klein,
    klein_signature,
    lemma_base_feasible,
    partials,
    weight_of,
)
from .smoothness import (
    DEFAULT_MODULI,
    SingularWitness,
    SmoothnessCertificate,
    certify_smooth_over_Q,
    find_smooth_member,
    is_smooth_mod_q,
    singular_point_from_lemma_base,
)
from .classify import (
    FamilyRecord,
    classify,
    classify_all,
    classify_with_audit,
    fermat_membership,
    normalizer_dim,
)
from .hodge import (
    SpectrumSet,
    is_stable_under,
    jacobian_ring_character,
    klein_tangent_spectrum,
)

__version__ = "0.1.0"
