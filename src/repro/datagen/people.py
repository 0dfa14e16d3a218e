"""Full-name / gender dataset (the paper's D2).

Values have the shape ``"Lastname, Firstname M."`` used in Table 3
("Holloway, Donald E.").  The first name deterministically implies the
gender in the clean data; a configurable fraction of gender cells is then
swapped, which is exactly the error family λ2/λ4 detect.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.datagen.corruption import CorruptionSpec, ErrorInjector, GeneratedDataset
from repro.dataset.table import Table

#: First name → gender, mirroring the names that appear in the paper.
FIRST_NAMES: Dict[str, str] = {
    "Donald": "M",
    "David": "M",
    "Jerry": "M",
    "Alan": "M",
    "John": "M",
    "Michael": "M",
    "Robert": "M",
    "James": "M",
    "Richard": "M",
    "Thomas": "M",
    "Steven": "M",
    "Brian": "M",
    "Stacey": "F",
    "Susan": "F",
    "Mary": "F",
    "Linda": "F",
    "Barbara": "F",
    "Patricia": "F",
    "Jennifer": "F",
    "Elizabeth": "F",
    "Karen": "F",
    "Nancy": "F",
    "Laura": "F",
    "Sarah": "F",
}

LAST_NAMES: List[str] = [
    "Holloway", "Jones", "Kimbell", "Mallack", "Otillio", "Smith", "Johnson",
    "Williams", "Brown", "Davis", "Miller", "Wilson", "Moore", "Taylor",
    "Anderson", "Thompson", "Martin", "Garcia", "Martinez", "Robinson",
    "Clark", "Lewis", "Walker", "Hall", "Allen", "Young", "King", "Wright",
]

MIDDLE_INITIALS = "ABCDEFGHJKLMNPRSTW"


def generate_fullname_gender(
    n_rows: int = 2000,
    seed: int = 7,
    error_rate: float = 0.02,
    middle_initial_probability: float = 0.7,
) -> GeneratedDataset:
    """Generate the full-name → gender dataset with injected gender errors."""
    rng = random.Random(seed)
    first_names = sorted(FIRST_NAMES)
    rows: List[Tuple[str, str]] = []
    for _ in range(n_rows):
        first = rng.choice(first_names)
        last = rng.choice(LAST_NAMES)
        if rng.random() < middle_initial_probability:
            full = f"{last}, {first} {rng.choice(MIDDLE_INITIALS)}."
        else:
            full = f"{last}, {first}"
        rows.append((full, FIRST_NAMES[first]))
    clean = Table.from_rows(["full_name", "gender"], rows)
    injector = ErrorInjector(seed=seed + 1)
    dirty, error_cells = injector.corrupt(
        clean,
        [
            CorruptionSpec(
                attribute="gender",
                error_rate=error_rate,
                kind="swap",
                alternatives=["M", "F"],
            )
        ],
    )
    return GeneratedDataset(
        name="fullname_gender",
        table=dirty,
        clean_table=clean,
        error_cells=error_cells,
        description=(
            "Full Name → Gender (paper dataset D2): 'Lastname, Firstname M.' "
            "values whose first name determines the gender; a fraction of "
            "gender cells is swapped."
        ),
    )
