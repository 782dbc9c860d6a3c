"""The controller's lease scan with no deadline gate: every record is
tested on every call, the way :meth:`FleetController._scan_leases` ran
before it learned to skip scans that cannot change anything."""

from typing import List, Tuple

from repro.mgmt.controller import ENT_AVAILABLE, ENT_DEPARTED, ENT_EXPIRED
from repro.mgmt.discovery import lease_expired


def _lapsed(controller, rec, now) -> bool:
    valid = rec.valid_time or controller.default_valid_time
    return rec.state == ENT_AVAILABLE and lease_expired(
        now, rec.last_seen, valid
    )


def _prunable(controller, state, rec, now) -> bool:
    return (
        controller.prune_after is not None
        and state in (ENT_DEPARTED, ENT_EXPIRED)
        and now - rec.last_seen > controller.prune_after
    )


def lease_changes(controller, now: float) -> Tuple[List[int], List[int]]:
    """Entity ids an ungated scan at ``now`` would expire and prune,
    without touching the registry."""
    expire, prune = [], []
    for rec in controller.entities.values():
        state = rec.state
        if _lapsed(controller, rec, now):
            expire.append(rec.entity_id)
            state = ENT_EXPIRED
        if _prunable(controller, state, rec, now):
            prune.append(rec.entity_id)
    return expire, prune


def ungated_scan(controller) -> None:
    """The full scan body, run unconditionally."""
    now = controller.sim.now
    dead: List[int] = []
    for rec in controller.entities.values():
        if _lapsed(controller, rec, now):
            rec.state = ENT_EXPIRED
            rec.expired_at = now
            controller.stats.expiries += 1
            if controller.supervisor is not None:
                controller.supervisor.notify_lease_expired(rec.name)
            if controller.on_expired is not None:
                controller.on_expired(rec)
        if _prunable(controller, rec.state, rec, now):
            dead.append(rec.entity_id)
    for entity_id in dead:
        del controller.entities[entity_id]
        controller.stats.pruned += 1
