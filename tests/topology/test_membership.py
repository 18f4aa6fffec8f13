"""Membership-only derivation vs full materialization.

``derive_membership`` replays the prefix of a slot's RNG stream that
fixes its addresses and open/reachable flags, stopping before the
engine-ID/agent draws.  That prefix must stay draw-for-draw identical to
``derive_device`` forever: these properties hold the two paths equal for
every slot, across seeds, churn rolls and reboot epochs, so any future
edit to the generator's draw order fails loudly here.
"""

from __future__ import annotations

import ipaddress
import random

from hypothesis import given, settings, strategies as st

from repro.topology import timeline
from repro.topology.config import TopologyConfig
from repro.topology.lazy import (
    LazyTopology,
    derive_churn_rotation,
    derive_device,
    derive_membership,
    membership_of_device,
)
from repro.topology.model import DeviceType

#: Same adversarial-rich sizing as the lazy identity suite.
DIVISOR = 4000.0

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def make_config(seed: int) -> TopologyConfig:
    return TopologyConfig(seed=seed, scale_divisor=DIVISOR, layout="streamed")


def membership_tuple(record) -> tuple:
    """Every membership fact, as one comparable tuple."""
    return (
        record.device_id,
        record.device_type,
        record.snmp_open,
        record.dhcp_pool,
        tuple(
            (str(interface.address), interface.version, interface.snmp_reachable)
            for interface in record.interfaces
        ),
    )


def full_membership(world: LazyTopology, slot) -> tuple:
    """Ground truth: fully materialize the slot, project the record."""
    device = derive_device(world.config, world.registry, world.plan, slot,
                           world.shared, world.ases)
    return membership_tuple(membership_of_device(device))


def binding_state(device) -> "tuple | None":
    if device is None:
        return None
    return (device.device_id, device.agent.engine_boots, device.agent.boot_time)


# -- every slot, across seeds ----------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_membership_matches_full_derivation_for_every_slot(seed):
    world = LazyTopology(config=make_config(seed))
    lbs = 0
    for slot in world.plan.iter_slots():
        record = derive_membership(world.config, world.registry, world.plan,
                                   slot, world.ases[slot.asn])
        if slot.device_type is DeviceType.LOAD_BALANCER:
            # No cheap prefix exists for LBs; the cached path must fall
            # back to full materialization and still agree.
            assert record is None
            record = world.membership_at(slot)
            lbs += 1
        assert membership_tuple(record) == full_membership(world, slot)
    # The world sizing really exercises the fallback arm.
    assert lbs >= 1


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_cached_membership_agrees_before_and_after_materialization(seed):
    """membership_at must agree with itself whether the record was derived
    standalone, projected from a live device, or served from cache."""
    world = LazyTopology(config=make_config(seed))
    fresh = [world.membership_at(slot) for slot in world.plan.iter_slots()]
    for slot, record in zip(world.plan.iter_slots(), fresh):
        world.device_at(slot)  # materialize, then re-ask
        again = LazyTopology(config=make_config(seed))
        again.device_at(slot)
        assert membership_tuple(world.membership_at(slot)) == membership_tuple(record)
        assert membership_tuple(again.membership_at(slot)) == membership_tuple(record)


# -- churn rolls -----------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, version=st.sampled_from([4, 6]))
def test_churn_rotation_from_membership_matches_full_devices(seed, version):
    world = LazyTopology(config=make_config(seed))
    rotations = 0
    for as_plan in world.plan.plans:
        slots = [world.plan._slot(as_plan, i) for i in range(as_plan.n_devices)]
        via_devices = derive_churn_rotation(
            world.seed, version,
            [derive_device(world.config, world.registry, world.plan, slot,
                           world.shared, world.ases) for slot in slots],
        )
        via_membership = derive_churn_rotation(
            world.seed, version,
            (world.membership_at(slot) for slot in slots),
        )
        assert via_membership == via_devices
        rotations += len(via_membership)
    # At least one AS must actually rotate for the property to bite; the
    # v4 churn probability (0.6) makes an empty world-wide rotation a
    # sizing bug, not chance.
    if version == 4:
        assert rotations >= 2


# -- reboot epochs ---------------------------------------------------------------


EPOCHS = st.sampled_from([
    timeline.REFERENCE_TIME,
    timeline.SCAN1_V6_START + 1.0,
    timeline.SCAN2_V4_START,
    timeline.SCAN2_V4_START + timeline.SCAN2_V4_DURATION + 10.0,
])


#: Addresses no AS owns, one per family.
OUTSIDE = [ipaddress.ip_address("192.0.2.1"), ipaddress.ip_address("2001:db8::1")]


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, epoch=EPOCHS, churned=st.booleans(), batch=st.booleans())
def test_binding_agrees_with_eager_materialization_across_epochs(
    seed, epoch, churned, batch
):
    """Fast-rejecting through membership must not change what a probe
    observes at any clock epoch: a view that materializes every device
    *before* the clock advances and a view that materializes lazily
    (after membership fast-rejection) bind every address identically,
    including agent reboot state, and both follow the eager binding
    rules over the pinned devices.  The lazy view answers either one
    address at a time or through one ``resolve_window`` pass over the
    shuffled list, as the executor resolves a planning window; that
    pass's routing owners are ``owner_of``'s.
    """
    config = make_config(seed)
    lazy_view = LazyTopology(config=config)
    eager_view = LazyTopology(config=config)
    pinned = [eager_view.device_at(slot) for slot in eager_view.plan.iter_slots()]
    for view in (lazy_view, eager_view):
        if churned:
            view.activate_churn(4)
            view.activate_churn(6)
        view.advance_clock(epoch)
    # The eager rules: open devices bind their reachable interfaces, and
    # each churned address binds its rotated pool member.
    bound = {
        interface.address: device
        for device in pinned
        if device.snmp_open
        for interface in device.interfaces
        if interface.snmp_reachable
    }
    if churned:
        by_id = {device.device_id: device for device in pinned}
        for version in (4, 6):
            for as_plan in eager_view.plan.plans:
                members = [d for d in pinned if d.asn == as_plan.asn]
                rotation = derive_churn_rotation(seed, version, members)
                for address, new_owner in rotation.items():
                    bound[address] = by_id[new_owner]
    addresses = [
        *lazy_view.plan.iter_v4_targets(),
        *(
            interface.address
            for device in pinned
            for interface in device.interfaces
            if interface.version == 6
        ),
        *OUTSIDE,
    ]
    assert all(lazy_view.plan.locate(address) is None for address in OUTSIDE)
    if batch:
        random.Random(seed).shuffle(addresses)
        owners, answering = lazy_view.resolve_window(addresses)
        assert owners == [lazy_view.owner_of(address) for address in addresses]
        answers = [
            None if device_id is None else lazy_view.device_for_id(device_id)
            for device_id in answering
        ]
    else:
        answers = [lazy_view.binding_of(address) for address in addresses]
    assert len(answers) == len(addresses)
    for address, device in zip(addresses, answers):
        expected = binding_state(bound.get(address))
        assert binding_state(device) == expected, address
        assert binding_state(eager_view.binding_of(address)) == expected, address
    assert pinned  # keep every eager device strongly referenced throughout
    # The fast path really avoided materializing the closed majority.
    assert lazy_view.derivations < eager_view.derivations
