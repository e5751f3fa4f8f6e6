"""Exact Kauffman-bracket evaluation and SO(3) surgery invariants.

The package is layered: ``algebra`` (Laurent polynomials, rational
functions, cyclotomic numbers), ``diagrams`` (planar diagrams, links,
one-pass cabling, where colour 0 deletes a component, and the one
integer form of a diagram that the bracket sweeps; ``splice``, which
joins the chords of a matching at a site, and ``canonical_form`` serve
only the tests, kept in ``diagrams`` because the benchmark's
``diagrams.splice`` and ``diagrams.canonical_form`` spans look them up
there and refuse to start without them), ``tl``
(Temperley-Lieb elements, projectors and the strand walk), ``bracket``
(state sum, one box sweep for plain and cabled diagrams, colored brackets
of a ``FramedLink`` and one color per component), ``recoupling`` (closed-form
colored-unknot data), ``wrt`` (surgery invariants and d-sweeps), with
``verify``/``cli`` on top.  ``bracket.bracket``, the unmemoized sweep
that the ``bracket`` command calls, is not re-exported, so
``skeinlab.bracket`` is the submodule.
"""

from .algebra import (
    CycloNum,
    EvalPoint,
    LaurentPoly,
    RatFunc,
    delta_color,
    evaluate_at,
    quantum_integer,
)
from .bracket import bracket_state_sum, bracket_tangle_sweep, colored_bracket
from .diagrams import (
    FramedLink,
    PlanarDiagram,
    SurgeryPresentation,
    attach_meridian,
    borromean_fixture,
    braid_closure,
    hopf_fixture,
    unknot_fixture,
)
from .recoupling import (
    OmegaData,
    dim_v_torus,
    hopf_eval,
    meridian_eigenvalue,
    meridian_series,
    omega_data,
    twist_coefficient,
)
from .tl import TLDiagram, TLElement, jones_wenzl
from .wrt import (
    GammaFunction,
    f_mobius,
    gamma_tabulate,
    independence_certificate,
    recolor_check,
    torus_invariant,
    wrt_invariant,
)

__version__ = "0.1.0"
