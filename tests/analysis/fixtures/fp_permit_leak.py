"""False positives: every accepted shape of the acquire→release protocol."""


async def guarded(gate, peer):
    await gate.acquire("doc")
    try:
        return await peer.ping()
    finally:
        gate.release("doc")


async def guarded_after_sync_statements(session, peer):
    snapshot = session.snapshots.pin(session.version)
    fragments = snapshot.fragments
    count = len(fragments)
    try:
        return await peer.evaluate(fragments, count)
    finally:
        session.snapshots.release(snapshot)


async def ownership_transfer(gate):
    permit = await gate.acquire("doc")
    return permit


async def caller_owns_the_permit(gate, timeout):
    await gate.acquire("doc", timeout)


async def shed_on_timeout(admission, metrics, session, peer):
    try:
        await admission.acquire(session.name)
    except TimeoutError:
        metrics.record_shed(session.name, "queue")
        raise OverloadShedError("queue wait exceeded")
    try:
        return await peer.ping()
    finally:
        admission.release(session.name)


async def handback_in_finally(scheduler, peer):
    grant = await scheduler.acquire("doc")
    try:
        return await peer.ping()
    finally:
        scheduler.handback(grant)
