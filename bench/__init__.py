"""The end-to-end benchmark: five workloads, one ruler.

Run one workload the way the driver does::

    python3 -m bench --workload net_echo_small --seed 1 --seconds 10 --trace 0

or every workload, untraced then traced, into one file::

    python3 -m bench --seed 1 --out bench-a.json
    python3 -m bench compare bench-a.json bench-b.json

``bench/README.md`` has the workloads, the metrics and how the layer
metrics map onto the end-to-end ones.  Nothing here imports
``benchmarks/_util.py``, ``repro.net.load`` or
``repro.compose.backends.run_transfer``: later changes edit those, and a
claim may not edit its own instrument.
"""
