"""Time one cold set-up in a fresh interpreter and print it as JSON.

Usage: python3 setup_probe.py SRC_DIR SPEC_JSON

SPEC_JSON is `workloads.setup_spec(...)`.  Set-up is everything a user of
the workload pays before its first trial: importing coopcode (and numpy),
building the fields, the simulator's numpy tables, and the certified codes
(construction includes the exhaustive certification).
"""

import json
import sys
from time import perf_counter


def main(src_dir: str, spec: dict) -> dict:
    t0 = perf_counter()
    sys.path.insert(0, src_dir)
    import coopcode.cli  # noqa: F401  (pulls in numpy and every layer)
    from coopcode import field_new, netcode
    t_import = perf_counter() - t0

    fields = {q: field_new(q.bit_length() - 1) for q in spec["fields"]}
    t1 = perf_counter()
    for q in spec["np_fields"]:
        fields[q].np_tables()
    t_np = perf_counter() - t1
    build = {"vandermonde": netcode.build_vandermonde, "cauchy": netcode.build_cauchy}
    for kind, n, m, q in spec["codes"]:
        build[kind](n, m, fields[q])
    return {"setup_s": perf_counter() - t0, "import_s": t_import, "np_tables_s": t_np}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], json.loads(sys.argv[2]))))
