"""Rewrites tests/fingerprints.json from the runs of tests/test_fingerprints.py.

Run it only for a change that alters recovery results on purpose:

    PYTHONPATH=src python tests/regen_fingerprints.py
"""
import json

from test_fingerprints import FINGERPRINTS_JSON, RUNS, fingerprint

if __name__ == "__main__":
    runs = []
    for name in RUNS:
        fields = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                            for k, v in fingerprint(name).items())
        runs.append(f" {json.dumps(name)}: {{\n{fields}\n }}")
    FINGERPRINTS_JSON.write_text("{\n" + ",\n".join(runs) + "\n}\n")
    print(f"wrote {len(runs)} fingerprints to {FINGERPRINTS_JSON}")
