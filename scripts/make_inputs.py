#!/usr/bin/env python3
"""Write example input files (ensembles and POVMs) for the CLI into ./data.

Files of the same names already in ./data are overwritten.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from gentleleak.measurements import gentle_povm, povm_to_json, projective_povm
from gentleleak.simulate import default_gentle_probe
from gentleleak.states import CqEnsemble, bb84_ensemble, ensemble_to_json, pure_state


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    out = Path("data")
    out.mkdir(exist_ok=True)

    files = {
        "bb84.json": ensemble_to_json(bb84_ensemble()),
        "identical.json": ensemble_to_json(
            CqEnsemble(np.array([0.5, 0.5]), (pure_state([1, 0]), pure_state([1, 0])))
        ),
        "commuting.json": ensemble_to_json(
            CqEnsemble(np.array([0.5, 0.5]), (np.diag([1.0, 0.0]), np.diag([0.25, 0.75])))
        ),
        "z_basis_povm.json": povm_to_json(projective_povm(np.eye(2))),
        "x_basis_povm.json": povm_to_json(
            projective_povm(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
        ),
        "gentle_probe_povm.json": povm_to_json(gentle_povm(default_gentle_probe(), 0.05)),
    }
    for name, doc in files.items():
        path = out / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print("wrote", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
