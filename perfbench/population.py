"""The benchmark's inputs: ROADMAP's clone-family population, built from a seed.

80% of the functions come in families of 2-4 near-clones (divergence 0.07,
template bodies of 30-130 instructions); the rest are standalone functions.
The *shape* of the population -- how many families, how large each one is,
how large its bodies are -- is always the draw of ``SHAPE_SEED``; the
benchmark's ``--seed`` drives everything inside the functions.  Alignment is
quadratic in body length, so a seeded shape would make compile time track
how many 130-instruction families a seed happened to draw rather than the
compiler; holding the shape fixed keeps workloads comparable across seeds.
At seed ``SHAPE_SEED`` the module is exactly the ROADMAP's re-anchor module.
"""

from __future__ import annotations

import random
from typing import List

from repro.ir.module import Module
from repro.transforms.simplify import simplify_module
from repro.workloads import FamilySpec, ProgramSpec, \
    generate_program_in_batches

SHAPE_SEED = 7
FAMILY_FRACTION = 0.8
FAMILY_SIZES = (2, 4)
BODY_SIZES = (30, 45, 65, 95, 130)
DIVERGENCE = 0.07
STANDALONE_SIZE = 60


def family_shape(num_functions: int) -> List[FamilySpec]:
    rng = random.Random(SHAPE_SEED)
    families: List[FamilySpec] = []
    remaining = int(num_functions * FAMILY_FRACTION)
    while remaining >= 2:
        size = min(rng.randint(*FAMILY_SIZES), remaining)
        families.append(FamilySpec(size=size, divergence=DIVERGENCE,
                                   function_size=rng.choice(BODY_SIZES)))
        remaining -= size
    return families


def build_module(num_functions: int, seed: int) -> Module:
    """A fresh, simplified module of ``num_functions`` functions."""
    families = family_shape(num_functions)
    spec = ProgramSpec(
        # The ROADMAP module's name: generated function names derive from it.
        name=f"parallel{num_functions}", seed=seed, families=families,
        standalone_functions=num_functions - sum(f.size for f in families),
        standalone_size=STANDALONE_SIZE, with_main=False)
    module = generate_program_in_batches(spec)
    simplify_module(module)
    return module
