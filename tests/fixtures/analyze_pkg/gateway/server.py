"""Fixture gateway: blocking calls on the event loop (REP100).

One sits directly in a coroutine, one in a ``def`` nested inside a
coroutine and called from it.
"""

import asyncio
import subprocess
import time


class GatewayDaemon:
    async def poll_workers(self) -> dict:
        # REP100 true positive: time.sleep stalls every connection on
        # the shared event loop.
        time.sleep(0.05)
        return {"job_id": "job-1"}

    async def poll_workers_offloaded(self) -> dict:
        # Clean variant: the same pause routed off-loop must not flag.
        await asyncio.sleep(0.05)
        return {"job_id": "job-2"}

    async def settle(self) -> None:
        def wait_for_disk() -> None:
            # REP100 true positive: the nested def runs on the loop.
            subprocess.run(["sync"], check=False)

        wait_for_disk()
