#!/usr/bin/env python3
"""CI gate over BENCH_transport.json (bench_transport --smoke).

Gates on the STRUCTURAL invariants of the transport plane rather than raw
speed (CI machines are noisy): zero send-side payload copies on every
zero-copy path, sharded aggregates bit-identical to the serial Network,
and a loose floor on the zero-copy speedup over the seed router.

Usage: check_transport_regression.py BENCH_transport.json transport_tolerance.json
"""
import sys

from check_common import Gate


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    gate = Gate(sys.argv[1], sys.argv[2])
    tol = gate.tolerance

    gate.require_max("fanout", "zero_copy_payload_copies",
                     tol["max_send_side_payload_copies"])
    gate.require_min("fanout", "zero_copy_speedup",
                     tol["min_zero_copy_speedup"])
    gate.require_min("multi_session", "bit_identical", 1)
    gate.require_max("multi_session", "send_side_payload_copies",
                     tol["max_send_side_payload_copies"])
    return gate.finish("transport-plane")


if __name__ == "__main__":
    sys.exit(main())
