"""The chaos matrix: every fault kind against one standard workload.

The core invariant of the whole PR, asserted per fault kind: **under
any injected fault, a caller gets either the bit-identical fault-free
result or a typed retryable error -- never a silently wrong number,
and never a hang past the deadline.** Plus the explicit degradation
ladder (engine -> scalar) and the Oracle outage path.
"""

from __future__ import annotations

import time

import pytest

from repro.core.parameters import SwapParameters
from repro.core.solver import solve_swap_game
from repro.faults import FAULT_KINDS, FaultSpec, InjectionPlan
from repro.service.api import SwapService
from repro.service.requests import SolveRequest
from tests.faults.conftest import counter_value

PSTARS = [1.8, 2.0, 2.2]
# pairwise-distinct params keep every batch solve a group of one, which
# the answer chain sends to the scalar rung -- through the worker pool
# and the cache, where the service fault kinds strike
PARAMS = {
    pstar: SwapParameters.default().replace(sigma=0.1 + 0.01 * i)
    for i, pstar in enumerate(PSTARS)
}
WALL_BUDGET = 60.0  # generous; a hang would blow far past this

# every fault kind the service layer can meet on the batch path; the
# HTTP kinds live in test_http_faults / test_drain_hang, the oracle
# kind below -- together the matrix covers all of FAULT_KINDS
SERVICE_KINDS = (
    "worker_crash",
    "worker_hang",
    "cache_corrupt",
    "cache_io_error",
    "disk_slow",
)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free success rates, from the scalar solver the pool runs."""
    return {
        pstar: solve_swap_game(PARAMS[pstar], pstar).success_rate
        for pstar in PSTARS
    }


def solve_requests():
    return [SolveRequest(pstar=p, params=PARAMS[p]) for p in PSTARS]


def assert_invariant(items, baseline):
    """Correct result or typed retryable error; nothing else."""
    for pstar, item in zip(PSTARS, items):
        if item.ok:
            assert item.value.success_rate == baseline[pstar]
        else:
            assert item.error.code
            assert item.error.retryable, (
                f"fault produced a non-retryable error: {item.error}"
            )


class TestServiceMatrix:
    @pytest.mark.parametrize("kind", SERVICE_KINDS)
    def test_invariant_under_each_fault(self, kind, tmp_path, registry, baseline):
        plan = InjectionPlan(
            faults=(FaultSpec(kind=kind, count=2, delay=0.05),), seed=11
        )
        service = SwapService(
            max_workers=1, cache_dir=str(tmp_path), faults=plan
        )
        started = time.perf_counter()
        # two passes: the second must heal anything the first broke
        first = service.run_batch(solve_requests())
        second = service.run_batch(solve_requests())
        assert time.perf_counter() - started < WALL_BUDGET
        assert_invariant(first, baseline)
        assert_invariant(second, baseline)
        # the second pass, injector exhausted, answers everything
        assert all(item.ok for item in second)

    @pytest.mark.parametrize("kind", SERVICE_KINDS)
    def test_injections_are_counted(self, kind, tmp_path, registry):
        plan = InjectionPlan(
            faults=(FaultSpec(kind=kind, count=1, delay=0.01),), seed=2
        )
        service = SwapService(
            max_workers=1, cache_dir=str(tmp_path), faults=plan
        )
        service.run_batch(solve_requests())
        assert service.faults.injected_total(kind) == 1
        assert (
            counter_value(registry, "repro_fault_injected_total", kind=kind) == 1
        )

    def test_matrix_plus_siblings_covers_every_kind(self):
        http_kinds = {"http_drop", "http_slow"}
        # the surface kinds are exercised in tests/surface/test_faults.py
        surface_kinds = {"surface_corrupt", "surface_io_error"}
        # replica_down is router-side chaos: tests/server/test_router.py;
        # the control-plane kinds live in tests/server/test_supervisor.py
        # (replica_crash_loop) and tests/server/test_admin.py
        # (admin_partition)
        router_kinds = {"replica_down", "replica_crash_loop", "admin_partition"}
        # swap-graph hooks are exercised in tests/swapgraph/test_service.py
        swapgraph_kinds = {"swapgraph_error", "swapgraph_slow"}
        covered = (
            set(SERVICE_KINDS)
            | http_kinds
            | surface_kinds
            | router_kinds
            | swapgraph_kinds
            | {"engine_error", "oracle_outage"}
        )
        assert covered == set(FAULT_KINDS)


class TestDegradationLadder:
    def test_engine_error_falls_back_to_scalar_with_metrics(self, registry):
        plan = InjectionPlan(
            faults=(FaultSpec(kind="engine_error", count=1),), seed=0
        )
        service = SwapService(max_workers=1, faults=plan)
        items = service.sweep(PSTARS)
        # the degraded path answers everything, scalar-exact
        assert all(item.ok and item.source == "scalar" for item in items)
        params = SwapParameters.default()
        for pstar, item in zip(PSTARS, items):
            assert (
                item.value.success_rate
                == solve_swap_game(params, pstar).success_rate
            )
        assert (
            counter_value(
                registry, "repro_degraded_total", path="engine_to_scalar"
            )
            == 1
        )
        assert service.faults.injected_total("engine_error") == 1
        # next sweep runs the engine again (served from cache here)
        again = service.sweep(PSTARS)
        assert all(item.ok and item.cached for item in again)

    def test_sweep_without_faults_does_not_degrade(self, registry):
        service = SwapService(max_workers=1)
        items = service.sweep(PSTARS)
        assert all(item.ok for item in items)
        assert counter_value(registry, "repro_degraded_total") == 0


class TestOracleOutage:
    @pytest.fixture()
    def settlement(self):
        from repro.chain.chain import Blockchain
        from repro.chain.events import SimulationClock
        from repro.chain.oracle import CollateralEscrow, DepositOp, Oracle

        def _build(faults=None):
            clock = SimulationClock()
            chain = Blockchain(
                "a", "TOK", clock, confirmation_time=3.0, mempool_delay=1.0
            )
            chain.open_account("alice", 5.0)
            chain.open_account("bob", 5.0)
            escrow = CollateralEscrow(alice="alice", bob="bob", amount=1.0)
            oracle = Oracle(chain, escrow, faults=faults)
            chain.submit("alice", DepositOp(escrow, "alice"))
            chain.submit("bob", DepositOp(escrow, "bob"))
            clock.advance_to(3.0)
            return chain, escrow, oracle

        return _build

    def test_outage_is_typed_and_leaves_escrow_retryable(
        self, registry, settlement
    ):
        from repro.chain.errors import ChainError, OracleUnavailableError
        from repro.chain.oracle import EscrowState

        plan = InjectionPlan(
            faults=(FaultSpec(kind="oracle_outage", count=1),), seed=0
        )
        chain, escrow, oracle = settlement(faults=plan)
        with pytest.raises(OracleUnavailableError) as excinfo:
            oracle.release_bob_deposit()
        assert isinstance(excinfo.value, ChainError)  # typed, catchable
        # the outage left no partial settlement behind
        assert escrow.state is EscrowState.ACTIVE
        assert escrow.released == {}
        # the identical retried call settles once the outage ends
        oracle.release_bob_deposit()
        oracle.release_alice_deposit()
        chain.clock.run_until_idle(20.0)
        assert escrow.state is EscrowState.SETTLED
        assert chain.balance("alice") == 5.0
        assert chain.balance("bob") == 5.0

    def test_outage_can_target_one_settlement_action(self, registry, settlement):
        from repro.chain.errors import OracleUnavailableError

        plan = InjectionPlan(
            faults=(
                FaultSpec(kind="oracle_outage", match="release_alice_deposit"),
            ),
            seed=0,
        )
        _chain, _escrow, oracle = settlement(faults=plan)
        oracle.release_bob_deposit()  # unmatched action: unaffected
        with pytest.raises(OracleUnavailableError):
            oracle.release_alice_deposit()
