#!/usr/bin/env python3
"""CI gate over BENCH_async.json (bench_async_server --smoke).

Gates on the STRUCTURAL invariants of the unified session runtime rather
than raw speed (CI machines are noisy): async aggregates bit-identical to
the legacy single-threaded drive, zero send-side payload copies, and the
survivor-set decode-plan cache actually hit on repeated cycles. A loose
cycles/s floor catches order-of-magnitude throughput collapses.

Usage: check_async_regression.py BENCH_async.json async_tolerance.json
"""
import sys

from check_common import Gate


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    gate = Gate(sys.argv[1], sys.argv[2])
    tol = gate.tolerance

    gate.require_min("async_cycles", "bit_identical", 1)
    gate.require_max("async_cycles", "send_side_payload_copies",
                     tol["max_send_side_payload_copies"])
    gate.require_min("async_cycles", "decode_plan_reuses",
                     tol["min_decode_plan_reuses"])
    gate.require_min("async_cycles", "sharded_cycles_per_s",
                     tol["min_sharded_cycles_per_s"])
    gate.require_min("mixed_drive", "bit_identical", 1)
    gate.require_max("mixed_drive", "send_side_payload_copies",
                     tol["max_send_side_payload_copies"])
    # Steady-state persistent cohorts ([4]): zero-setup invariant — the
    # offline encode runs once per user per cohort epoch and the
    # survivor-set plan is built once (builds track epochs, not rounds),
    # with aggregates bit-identical to the per-round protocol.
    gate.require_min("steady_state", "bit_identical", 1)
    gate.require_max("steady_state", "offline_encodes_per_user",
                     tol["max_steady_state_offline_encodes_per_user"])
    gate.require_max("steady_state", "plan_builds",
                     tol["max_steady_state_plan_builds"])
    return gate.finish("async session-runtime")


if __name__ == "__main__":
    sys.exit(main())
