"""Rewrites tests/fingerprints.json from the runs of tests/test_fingerprints.py.

Run it only for a change that alters recovery results on purpose, naming
the runs whose results it changes; the other entries are kept as they are.
With no name it rewrites every run:

    PYTHONPATH=src python tests/regen_fingerprints.py [NAME ...]
"""
import json
import sys

from test_fingerprints import FINGERPRINTS_JSON, RUNS, fingerprint

if __name__ == "__main__":
    names = sys.argv[1:] or list(RUNS)
    unknown = sorted(set(names) - set(RUNS))
    if unknown:
        sys.exit(f"no such run: {', '.join(unknown)}; the runs are {', '.join(RUNS)}")
    kept = json.loads(FINGERPRINTS_JSON.read_text()) if FINGERPRINTS_JSON.exists() else {}
    entries = {name: fingerprint(name) if name in names else kept[name] for name in RUNS}
    runs = []
    for name, entry in entries.items():
        fields = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entry.items())
        runs.append(f" {json.dumps(name)}: {{\n{fields}\n }}")
    FINGERPRINTS_JSON.write_text("{\n" + ",\n".join(runs) + "\n}\n")
    print(f"wrote {len(names)} of {len(runs)} fingerprints to {FINGERPRINTS_JSON}")
