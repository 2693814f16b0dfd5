"""The back-end web-server application.

Each hosted site gets a dedicated master process and a pool of worker
processes — Gage's charging-entity model (§3.5): every slice of CPU, every
disk I/O, and every transmitted byte lands on a process in the site's
subtree, so the periodic accounting walk attributes usage precisely.

The server keeps the set of sites *touched* since the last walk — those a
request entered :meth:`WebServer.service_request` for, or that still
have one in service — because only their subtrees can have been charged;
:meth:`WebServer.take_touched` hands the walk exactly those.

The same servicing path runs under both transports: in packet mode
requests arrive over spliced TCP connections; in flow mode
:meth:`WebServer.service_request` is invoked directly with the request
object.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids a layer cycle
    from repro.core.hedge import ServiceHandle

from repro.cluster.machine import Machine
from repro.cluster.procs import SimProcess
from repro.net.tcp import Connection, ConnectionError_
from repro.resources import ResourceVector
from repro.sim.resources import Resource
from repro.workload.request import CostModel, WebRequest, WebResponse

#: Callback invoked as (site_host, request, usage, completed_at).
CompletionHook = Callable[[str, WebRequest, ResourceVector, float], None]


def site_docroot(host: str) -> str:
    """Where ``host``'s document tree sits in the file-system catalog.

    Interned, so every node hosting the site shares the one string.
    """
    return sys.intern("/sites/{}".format(host))


class Site:
    """One hosted web site on one back-end node."""

    __slots__ = (
        "host", "docroot", "master", "workers", "worker_procs",
        "completed", "errors", "busy", "index", "_rr",
    )

    def __init__(
        self,
        host: str,
        docroot: str,
        master: SimProcess,
        workers: Resource,
        worker_procs: List[SimProcess],
        index: int = 0,
    ) -> None:
        self.host = host
        self.docroot = docroot
        self.master = master
        self.workers = workers
        self.worker_procs = worker_procs
        self.completed = 0
        self.errors = 0
        #: Requests in service; while > 0 the site stays in the touched set.
        self.busy = 0
        #: Registration ordinal on this server: the accounting walk's order.
        self.index = index
        self._rr = 0

    def next_worker(self) -> SimProcess:
        """Round-robin pick of the worker process to charge."""
        proc = self.worker_procs[self._rr % len(self.worker_procs)]
        self._rr += 1
        return proc


class WebServer:
    """The web-server application running on one machine."""

    def __init__(
        self,
        machine: Machine,
        cost_model: Optional[CostModel] = None,
        workers_per_site: int = 4,
        error_response_bytes: int = 512,
        overhead_cpu_s: float = 0.0,
    ) -> None:
        if workers_per_site < 1:
            raise ValueError("need at least one worker per site")
        if overhead_cpu_s < 0:
            raise ValueError("negative overhead")
        self.env = machine.env
        self.machine = machine
        self.cost_model = cost_model or CostModel()
        self.workers_per_site = workers_per_site
        self.error_response_bytes = error_response_bytes
        #: Extra CPU per request charged by the hosting layer — Gage's
        #: per-request RPN overhead (§4.2: 56.7 µs for second-leg setup
        #: plus address/sequence remapping).  Zero for baselines.
        self.overhead_cpu_s = overhead_cpu_s
        self.sites: Dict[str, Site] = {}
        #: host → site for every site a request entered since the last
        #: accounting walk, or that still has one in service.
        self._touched: Dict[str, Site] = {}
        self.on_complete: List[CompletionHook] = []

    def __repr__(self) -> str:
        return "<WebServer {} sites={}>".format(self.machine.name, len(self.sites))

    # -- site management ---------------------------------------------------

    def host_site(
        self,
        host: str,
        files: Optional[Dict[str, int]] = None,
        workers: Optional[int] = None,
    ) -> Site:
        """Install a subscriber's site: document tree + worker processes.

        The tree goes into the machine's catalog, which a cluster shares
        across its nodes; the site's names are interned, so each node
        holds only its own processes and counters.
        """
        if host in self.sites:
            raise RuntimeError("site {!r} already hosted".format(host))
        docroot = site_docroot(host)
        if files:
            self.machine.fs.add_tree(docroot, files)
        worker_count = workers or self.workers_per_site
        master = self.machine.procs.spawn(sys.intern("httpd[{}]".format(host)))
        worker_procs = [
            self.machine.procs.spawn(
                sys.intern("httpd-w{}[{}]".format(i, host)), parent=master
            )
            for i in range(worker_count)
        ]
        site = Site(
            host=host,
            docroot=docroot,
            master=master,
            workers=Resource(self.env, capacity=worker_count),
            worker_procs=worker_procs,
            index=len(self.sites),
        )
        self.sites[host] = site
        return site

    def take_touched(self) -> List[Site]:
        """Sites charged since the last call, in registration order.

        Every charge to a site's subtree (worker CPU and disk, CGI
        children, bytes sent, the partial work of a cancelled hedge
        clone) and every completion happens between a request's entry
        to and exit from :meth:`service_request`, so a site no request
        entered has a usage and completion delta of exactly zero.  A
        site with a request still in service stays in the set for the
        next call.
        """
        touched = sorted(self._touched.values(), key=lambda site: site.index)
        self._touched = {site.host: site for site in touched if site.busy > 0}
        return touched

    # -- packet-mode entry point --------------------------------------------

    def acceptor(self, conn: Connection) -> None:
        """``HostStack.listen`` acceptor: handle one spliced connection."""
        self.env.process(self._handle_connection(conn))

    def _handle_connection(self, conn: Connection):
        request: Optional[WebRequest] = None
        while request is None:
            try:
                payload, _length = yield conn.receive()
            except Exception:
                return  # connection reset mid-request
            if payload is Connection.EOF:
                return
            if isinstance(payload, WebRequest):
                request = payload
        yield self.env.process(self.service_request(request, conn))
        conn.close()

    # -- the servicing path (both transports) --------------------------------

    #: Paths under this prefix are executed as CGI programs: the worker
    #: forks a dedicated child process whose CPU time lands in the site's
    #: subtree automatically — §3.5: "Gage's resource accounting model
    #: automatically works for CGI programs without any additional
    #: mechanisms."
    CGI_PREFIX = "/cgi/"

    def service_request(
        self,
        request: WebRequest,
        conn: Optional[Connection] = None,
        handle: Optional["ServiceHandle"] = None,
    ):
        """Service one request; a generator to run as a simulation process.

        Returns (via StopIteration value) the :class:`WebResponse`.

        ``handle`` (hedging only) is a cancellation token: around every
        resource wait it is armed with the matching mid-service abort,
        and a cancellation observed at any checkpoint abandons the
        request — resources already consumed stay charged to the site's
        subtree, but the request neither completes nor runs the
        completion hooks, and returns ``None``.
        """
        site = self.sites.get(request.host)
        if site is None:
            return (yield from self._respond_error(request, conn, status=404))
        self._touched[site.host] = site
        dynamic = request.path.startswith(self.CGI_PREFIX)
        if dynamic:
            # Generated content: the response size comes from the request
            # model, and there is no file to read.
            size: Optional[int] = request.size_bytes
        else:
            path = "{}{}".format(site.docroot, request.path)
            size = self.machine.fs.size_of(path)
            if size is None:
                site.errors += 1
                site.busy += 1  # in service while the error page is sent
                response = yield from self._respond_error(request, conn, status=404)
                site.busy -= 1
                # The error page is still an *answered* request: it must
                # count as completed so the accounting cycle backs out the
                # RDN's dispatch-time prediction — otherwise every 404
                # leaks outstanding load on this node forever.
                site.completed += 1
                usage = ResourceVector(
                    cpu_s=0.0,
                    disk_s=0.0,
                    net_bytes=float(self.error_response_bytes),
                )
                for hook in self.on_complete:
                    hook(site.host, request, usage, self.env.now)
                return response

        site.busy += 1
        disk_s = 0.0
        cgi_s = 0.0
        cpu = self.machine.cpu
        disk = self.machine.disk
        with site.workers.request() as slot:
            yield slot
            if handle is not None and handle.cancelled:
                # Cancelled while queued for a worker: nothing consumed.
                site.busy -= 1
                return None
            worker = site.next_worker()
            cpu_total = self.cost_model.cpu_seconds(request) + self.overhead_cpu_s
            if dynamic:
                # The base server cost runs in the worker; the program's
                # own CPU demand runs in a forked child.
                cpu_total -= request.cpu_extra_s
                cgi_s = max(request.cpu_extra_s, 0.0)
            # Parse + prepare phase (most of the CPU), then the read, then
            # the transmit phase.
            done = cpu.execute(worker, cpu_total * 0.6)
            if handle is not None:
                handle.arm(lambda d=done: cpu.cancel(d))
            yield done
            if handle is not None and handle.disarm():
                site.busy -= 1
                return None
            if dynamic:
                cgi_proc = self.machine.procs.spawn(
                    "cgi[{}]".format(request.path), parent=worker
                )
                done = cpu.execute(cgi_proc, cgi_s)
                if handle is not None:
                    handle.arm(lambda d=done: cpu.cancel(d))
                yield done
                self.machine.procs.kill(cgi_proc)
                if handle is not None and handle.disarm():
                    site.busy -= 1
                    return None
            elif not self.machine.cache.lookup(path):
                disk_s = disk.io_time(size)
                done = disk.read(worker, size)
                if handle is not None:
                    handle.arm(lambda d=done: disk.cancel(d))
                yield done
                if handle is not None and handle.disarm():
                    # The read never finished; the page is not cached.
                    site.busy -= 1
                    return None
                self.machine.cache.insert(path, size)
            done = cpu.execute(worker, cpu_total * 0.4)
            if handle is not None:
                handle.arm(lambda d=done: cpu.cancel(d))
            yield done
            if handle is not None and handle.disarm():
                site.busy -= 1
                return None
            if handle is not None:
                # Past the last abort point: the response is committed.
                handle.finished = True
            response = WebResponse(request, size_bytes=size)
            if conn is not None:
                try:
                    yield conn.send(size, payload=response)
                except ConnectionError_:
                    # The connection died mid-service (client gone, link
                    # cut, or the front end reset it).  The CPU and disk
                    # already spent are charged to the site's subtree; the
                    # undeliverable response is an error, not a completion.
                    site.busy -= 1
                    site.errors += 1
                    return response
            worker.charge_net(size)
        site.busy -= 1
        site.completed += 1
        usage = ResourceVector(
            cpu_s=cpu_total + cgi_s, disk_s=disk_s, net_bytes=size
        )
        for hook in self.on_complete:
            hook(site.host, request, usage, self.env.now)
        return response

    def _respond_error(self, request: WebRequest, conn: Optional[Connection], status: int):
        response = WebResponse(request, size_bytes=self.error_response_bytes, status=status)
        if conn is not None:
            try:
                yield conn.send(self.error_response_bytes, payload=response)
            except ConnectionError_:
                pass  # nobody left to read the error page
        return response
