"""Row-by-row store writers: the oracle for ``iorisk.store``.

These are the ``csv.writer`` loops the package shipped before the store
tables were formatted in bulk, kept unchanged: one ``writerow`` with a
``.tolist()`` per table row. The bulk writers must produce the same bytes
for every table whose keys hold no lone carriage return; such a key the
bulk writers quote and these loops do not.
"""
from __future__ import annotations

import csv

from iorisk.store import (JOB_USAGE_HEADER, JOB_USAGE_NAME,
                          NODE_USAGE_HEADER, NODE_USAGE_NAME, store_dir)


def write_node_usage(out_dir, usage) -> None:
    path = store_dir(out_dir) / NODE_USAGE_NAME
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(NODE_USAGE_HEADER)
        nodes, filesystems = usage.names["node"], usage.names["fs"]
        for i in range(len(usage)):
            w.writerow([nodes[usage.codes["node"][i]],
                        filesystems[usage.codes["fs"][i]],
                        int(usage.bin_start[i])]
                       + usage.deltas[i].tolist())


def write_job_usage(out_dir, ju) -> None:
    path = store_dir(out_dir) / JOB_USAGE_NAME
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(JOB_USAGE_HEADER)
        job_ids, filesystems = ju.names["job_id"], ju.names["fs"]
        for i in range(len(ju)):
            w.writerow([job_ids[ju.codes["job_id"][i]],
                        filesystems[ju.codes["fs"][i]],
                        int(ju.bin_start[i])]
                       + ju.deltas[i].tolist())
