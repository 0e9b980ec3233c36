"""Known-defect probe: defects kept visible outside the timed workloads.

Three are the boundary defects ROADMAP item 5 confirms, fed to the CLI.
The fourth was found by this benchmark: ``proportionality`` in the
flat-cone verifier draws its candidate coefficients from points supported
on x1..x4 and from matching term keys, so when the reference field vanishes
on all those points it returns None although the residual is exactly the
expected multiple.  ``verify_case("v", 6, 4, ...)`` with the seed monomial
x5^3 * x6 then reports a valid case as failed.

Each defect runs once per benchmark invocation, outside the timed passes
and outside ``fail_ratio``: a defect that is still present is reported, not
counted as a failed operation, so today's baseline stays green and a fix
shows as ``known_defects`` going from 4 to 0.
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Dict, List

from gen import monomial_index

_GOOD_LINK = {
    "dim_cone": 6,
    "name": "probe link",
    "scalar": {
        "entries": [{"value": 0, "multiplicity": 1}, {"value": "12", "multiplicity": None}],
        "complete_below": "12",
        "mode": "exact",
    },
    "coclosed_one_form": {"entries": [{"value": 4, "multiplicity": None}], "complete_below": 4, "mode": "exact"},
    "tt_einstein": {"entries": [{"value": 12, "multiplicity": None}], "complete_below": 12, "mode": "exact"},
    "has_killing_fields": True,
    "ends": [{"kind": "AC"}],
}


def _nan_kappa() -> str:
    doc = json.loads(json.dumps(_GOOD_LINK))
    doc["tt_einstein"]["entries"] = [{"value": float("nan"), "multiplicity": None}]
    return json.dumps(doc)


def _dim_cone_3() -> str:
    doc = json.loads(json.dumps(_GOOD_LINK))
    doc["dim_cone"] = 3
    doc["scalar"]["entries"][1]["value"] = "2"
    doc["scalar"]["complete_below"] = "2"
    doc["coclosed_one_form"] = {"entries": [{"value": 1, "multiplicity": None}], "complete_below": 1, "mode": "exact"}
    return json.dumps(doc)


_OFF_AXIS_CASE = (
    "import sys\n"
    "from conifold_spectra.flatcone import verify_case\n"
    f"sys.exit(0 if verify_case('v', 6, 4, {monomial_index(6, 4, 4, 5)}).passed else 1)\n"
)

CLI = ["-m", "conifold_spectra.cli"]

# name -> (input file (name, text maker) or None, interpreter arguments,
#          exit codes that mean "fixed")
DEFECTS = {
    "nan-kappa": (("probe-nan.json", _nan_kappa), CLI + ["report", "--input", "probe-nan.json"], {3}),
    "negative-max-roots": (None, CLI + ["report", "--builtin", "sphere", "--n", "6", "--max-roots", "-1"], {1, 2, 3}),
    "dim-cone-3": (("probe-dim3.json", _dim_cone_3), CLI + ["report", "--input", "probe-dim3.json"], {0, 3}),
    "flat-proportionality-off-axis": (None, ["-c", _OFF_AXIS_CASE], {0}),
}


def run_probe(python: str, env: Dict[str, str], workdir: str) -> List[Dict]:
    """Run each defect once; ``present`` is True while the defect remains."""
    outcomes = []
    for name, (document, argv, fixed_codes) in DEFECTS.items():
        if document is not None:
            fname, make = document
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(make())
        proc = subprocess.run(
            [python, *argv],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        outcomes.append(
            {
                "defect": name,
                "exit": proc.returncode,
                "present": proc.returncode not in fixed_codes,
                "stderr": proc.stderr.strip()[-200:],
            }
        )
    return outcomes
