"""Rewrite digests.json: the records digest of every workload's trial set.

    python3 perfbench/update_digests.py 1 2 3

For each workload and each seed given, runs the trial set once through
sim_cli.run_single_trial (the records run_sweep would write) and stores the
digest run.py reports, so that a later change can show its records are
unchanged.  Digests of seeds not given are kept.
"""

import json
import sys
from pathlib import Path

import benchenv

if __name__ == "__main__":
    benchenv.prepare()
    from rmaccess import sim_cli

    import checks
    import workloads

    path = Path(__file__).resolve().parent / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    for seed in (int(arg) for arg in sys.argv[1:]):
        for workload in workloads.WORKLOADS.values():
            spec = workloads.spec_for(workload, seed)
            tasks = workloads.trial_set(workload, spec)
            records = [sim_cli.run_single_trial(spec, point, trial) for point, trial in tasks]
            digest = checks.records_digest(records)
            digests.setdefault(workload.name, {})[str(seed)] = digest
            print(f"{workload.name} seed {seed}: {digest}", flush=True)
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
