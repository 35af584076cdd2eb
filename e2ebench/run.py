#!/usr/bin/env python3
"""End-to-end benchmark of the analyst dialogue through `sisd_serve --epoll`.

Run from the repository root:

    python3 e2ebench/run.py --workload crime_solo --seed 1 --seconds 25 --trace 0

The first run configures and builds the release `sisd_serve` and the
benchmark's own `e2e_trace` into `.bench_build` (or `$CARGO_TARGET_DIR`).
One client process (this one, a single thread, at most `nproc`
connections) drives the named workload against the real server and checks
every response against golden digests (`golden.json`) recorded on the
commit that introduced the benchmark.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
the same way, then replays the same requests in-process through
`e2e_trace replay` and prints the per-layer metrics. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Other modes: `--smoke` runs every workload for a handful of requests and
exits non-zero on any failure or digest mismatch; `--record-golden`
rewrites `golden.json` (run it only on the commit the digests pin).
"""

import argparse
import gc
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# Each workload stresses different layers; BENCHMARK.json carries the
# one-line reasons. `dataset` is the catalog name `--preload <scenario>`
# registers (`crime` registers as `crime-like`).
WORKLOADS = {
    "crime_solo": {
        "scenario": "crime", "dataset": "crime-like", "loop": "closed",
        "connections": 1, "workers": 1, "threads": 4, "max_resident": 64,
    },
    "water_team": {
        "scenario": "water", "dataset": "water-like", "loop": "closed",
        "connections": 4, "workers": 4, "threads": 1, "max_resident": 64,
    },
    "synthetic_churn": {
        "scenario": "synthetic", "dataset": "synthetic-embedded",
        "loop": "open", "connections": 4, "workers": 4, "threads": 1,
        "max_resident": 4,
        # Sessions live at once (> max_resident, so most requests spill or
        # restore a snapshot) and the Poisson arrival rate, about half of
        # what the server sustained on a 4-core host when the benchmark was
        # introduced (about 1000-1200 requests/s).
        "slots": 12, "rate": 500.0,
    },
}

SETUP_REPEATS = 7           # servers started per run; setup_s is their median
P90_MIN_SAMPLES = 100       # p90 needs >= 10 samples beyond it
DRAIN_LIMIT_S = 30.0        # in-flight requests still unanswered then fail
COMPOSED_MINES = 40         # traced run: mines composed again, evenly spread
TRACE_SERVED_SHARE = 0.4    # traced run: share of --seconds the server is driven
CTL = "ctl"


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Builds sisd_serve and e2e_trace (release); returns their paths and
    the host context (build type, compiler, kernel ISA, cores, commit)."""
    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "sisd_serve.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("repository sources not found: missing " + needed)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "sisd_serve_bin", "e2e_trace"],
                   check=True, stdout=sys.stderr)
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            raise BenchError("refusing a non-release build")
    serve = os.path.join(build_dir, "sisd", "tools", "sisd_serve")
    trace = os.path.join(build_dir, "e2e_trace")
    ctx = json.loads(subprocess.run([trace, "context"], check=True,
                                    capture_output=True, text=True).stdout)
    if ctx["build_type"] != "Release":
        raise BenchError("refusing a non-release build: " + ctx["build_type"])
    ctx["commit"] = source_identity()
    return types.SimpleNamespace(dir=build_dir, serve=serve, trace=trace, ctx=ctx)


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


# ------------------------------------------------------------- dialogues

class Step:
    """One request of a session's dialogue.

    `golden` names the digest the response must match, or None when the
    content depends on data the run generated (only `ok` is checked).
    `after_prev` steps are sent only once the previous step answered;
    `fill` copies a field of that answer into the request.
    """

    __slots__ = ("req", "golden", "after_prev", "fill")

    def __init__(self, req, golden, after_prev=False, fill=None):
        self.req = req
        self.golden = golden
        self.after_prev = after_prev
        self.fill = fill


RANKED = {"verb": "export", "what": "ranked"}


def crime_variants():
    return [{"min_coverage": m} for m in (2, 5, 10, 20)]


def crime_dialogue(variant_index):
    key = "crime_solo/%d" % variant_index
    config = crime_variants()[variant_index]
    # The analyst inspects each iteration's ranked top-k (Table I) before
    # mining on; the exports give the short verbs real serialization work,
    # so their median is not a bare round trip.
    reqs = ([{"verb": "open", "dataset_ref": "crime-like", "config": config}] +
            [{"verb": "mine", "iterations": 1}, RANKED] * 3 +
            [{"verb": "close"}])
    return [Step(r, (key, i)) for i, r in enumerate(reqs)]


def water_dialogue(variant_index, menus):
    key = "water_team/%d" % variant_index
    condition = menus["water_conditions"][variant_index]
    reqs = ([{"verb": "open", "dataset_ref": "water-like"}] +
            [{"verb": "mine", "iterations": 1}] * 4 + [RANKED] +
            [{"verb": "assimilate", "conditions": [condition]}] +
            [{"verb": "mine", "iterations": 1}] * 4 + [RANKED] +
            [{"verb": "close"}])
    return [Step(r, (key, i)) for i, r in enumerate(reqs)]


def churn_dialogue(variant_index, menus, append_rows):
    key = "synthetic_churn/%d" % variant_index
    conditions = menus["synthetic_conditions"]
    opened = {"verb": "open", "dataset_ref": "synthetic-embedded",
              "config": {"location_only": True}}
    if variant_index < len(conditions):
        reqs = [opened, {"verb": "mine", "iterations": 1}, {"verb": "history"},
                {"verb": "assimilate", "conditions": [conditions[variant_index]]},
                {"verb": "mine_list", "rules": 1}, {"verb": "export", "what": "history"},
                {"verb": "evict"}, {"verb": "mine", "iterations": 1},
                {"verb": "history"}, {"verb": "close"}]
        return [Step(r, (key, i)) for i, r in enumerate(reqs)]
    # The append session: rows unique to this session, so every append
    # registers a fresh version and refreshes the pool incrementally.
    steps = [Step(opened, (key, 0)),
             Step({"verb": "mine", "iterations": 1}, (key, 1)),
             Step({"verb": "mine_list", "rules": 2}, (key, 2)),
             Step({"verb": "dataset_append", "dataset": "synthetic-embedded",
                   "columns": append_rows["columns"], "rows": append_rows["rows"]},
                  (key, 3)),
             Step({"verb": "rebase"}, (key, 4), after_prev=True,
                  fill=("dataset", "fingerprint")),
             Step({"verb": "history"}, None),
             Step({"verb": "export", "what": "history"}, None),
             Step({"verb": "close"}, (key, 7))]
    return steps


def num_variants(workload, menus):
    if workload == "crime_solo":
        return len(crime_variants())
    if workload == "water_team":
        return len(menus["water_conditions"])
    return len(menus["synthetic_conditions"]) + 1


def make_append_rows(rng, menus, serial):
    schema = menus["synthetic_schema"]
    rows = []
    for r in range(3):
        row = [rng.choice(c["labels"]) for c in schema["columns"]]
        # Every target value carries the session serial, so no two sessions
        # append the same content.
        row += [m + 1e-6 * (serial * 3 + r + 1) + rng.uniform(-0.5, 0.5)
                for m in schema["target_means"]]
        rows.append(row)
    return {"columns": [c["name"] for c in schema["columns"]] + schema["targets"],
            "rows": rows}


class Session:
    """A dialogue bound to a session name."""

    def __init__(self, name, steps, conn):
        self.name = name
        self.steps = steps
        self.conn = conn
        self.sent = 0
        self.results = {}        # step index -> (answer time, result)

    def request(self, index, rid):
        step = self.steps[index]
        req = {"id": rid}
        req.update(step.req)
        if step.req["verb"] != "dataset_append":
            req["session"] = self.name
        if step.fill is not None:
            field, source = step.fill
            req[field] = (self.results[index - 1][1] or {}).get(source, "")
        return req


class DialogueSource:
    """Yields sessions in a seeded rotation over every variant, so each
    run mixes all variants in near-equal shares whatever the seed."""

    def __init__(self, workload, seed, menus):
        self.workload = workload
        self.menus = menus
        self.rng = random.Random(seed * 7919 + len(workload))
        self.tag = "%x" % random.Random(seed).getrandbits(32)
        self.order = []
        self.serial = 0

    def next(self, conn):
        if not self.order:
            self.order = list(range(num_variants(self.workload, self.menus)))
            self.rng.shuffle(self.order)
        return self.session(self.order.pop(), conn)

    def session(self, variant, conn):
        self.serial += 1
        if self.workload == "crime_solo":
            steps = crime_dialogue(variant)
        elif self.workload == "water_team":
            steps = water_dialogue(variant, self.menus)
        else:
            rows = make_append_rows(self.rng, self.menus, self.serial)
            steps = churn_dialogue(variant, self.menus, rows)
        return Session("%s-%s-%d" % (self.workload[:5], self.tag, self.serial), steps, conn)


# ---------------------------------------------------------------- digests

def f64(x):
    return float(x).hex() if isinstance(x, (int, float)) else str(x)


def entry_key(e):
    return [e["iteration"], e["location"], e.get("spread", ""), e.get("spread_error", ""),
            f64(e["si"]), e["coverage"], e["candidates"], e.get("hit_time_budget", False)]


def digest(verb, result):
    """Digest of a response's mined content (LRU- and order-dependent
    fields such as `resident` or `reused` are left out)."""
    if verb in ("mine", "assimilate"):
        key = [result["generation"], result.get("exhausted", False), result.get("stopped", ""),
               [entry_key(e) for e in result["iterations"]]]
    elif verb == "history":
        key = [result["iterations"], [entry_key(e) for e in result["entries"]]]
    elif verb == "mine_list":
        key = [result["generation"], f64(result["total_gain"]), result["list_size"],
               result["uncovered"], result["candidates"], result.get("exhausted", False),
               [[r["rule"], r["description"], f64(r["gain"]), r["coverage"], r["captured"]]
                for r in result["rules"]]]
    elif verb == "export":
        key = [result["what"], result["csv"]]
    elif verb == "rebase":
        key = [result["generation"], result["iterations"], result["constraints"],
               result["appended_rows"], result["replayed_iterations"], result["replayed_rules"]]
    elif verb == "dataset_append":
        key = [result["rows"], result["row_offset"], result["appended_rows"]]
    else:
        key = result
    text = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------------ server

class Server:
    def __init__(self, binary, spec):
        cmd = [binary, "--epoll", "0", "--workers", str(spec["workers"]),
               "--threads", str(spec["threads"]), "--max-resident", str(spec["max_resident"]),
               "--preload", spec["scenario"]]
        # stderr carries a few start-up lines and one summary line at exit,
        # far below the pipe's capacity, so it is read only until the
        # listen line.
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.port = None

    def wait_listening(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.proc.stderr.fileno()
        pending = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(max(0.0, deadline - time.monotonic())):
                    continue
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise BenchError("sisd_serve exited during start-up")
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    if line.startswith(b"listening on 127.0.0.1:"):
                        self.port = int(line.rsplit(b":", 1)[1])
                        return
                    log(line.decode(errors="replace"))
        raise BenchError("sisd_serve did not start listening")

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not found")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


# ------------------------------------------------------------------ client

class Conn:
    def __init__(self, port, index):
        self.index = index
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.rbuf = b""
        self.wbuf = bytearray()
        self.sent_lines = []     # (due_us or -1, line) in send order


class Sample:
    __slots__ = ("session", "step", "verb", "conn", "seq", "due", "done",
                 "ok", "failed", "mismatch", "result")

    def __init__(self, session, step, verb, conn, seq, due):
        self.session, self.step, self.verb = session, step, verb
        self.conn, self.seq, self.due = conn, seq, due
        self.done = None
        self.ok = False
        self.failed = False
        self.mismatch = False
        self.result = None


class Client:
    """A single-threaded selector client over a few pipelined connections."""

    def __init__(self, port, connections, golden, record=None):
        self.sel = selectors.DefaultSelector()
        self.conns = [Conn(port, i) for i in range(connections)]
        for c in self.conns:
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        self.pending = {}
        self.next_id = 1
        self.samples = []
        self.golden = golden
        self.record = record
        self.on_answer = None
        self.protocol_errors = 0
        self.t0 = 0.0            # open loop: when the arrival schedule starts

    def close(self):
        for c in self.conns:
            self.sel.unregister(c.sock)
            c.sock.close()
        self.sel.close()

    def send(self, session, step_index, due, open_loop=False):
        conn = self.conns[session.conn]
        rid = self.next_id
        self.next_id += 1
        req = session.request(step_index, rid)
        line = json.dumps(req, separators=(",", ":"))
        now = time.perf_counter()
        sample = Sample(session, step_index, req["verb"], conn.index, len(conn.sent_lines),
                        due if due is not None else now)
        conn.sent_lines.append((int((due - self.t0) * 1e6) if open_loop else -1, line))
        self.pending[rid] = sample
        self.samples.append(sample)
        session.sent = step_index + 1
        conn.wbuf += line.encode() + b"\n"
        self._flush(conn)
        return sample

    def send_raw(self, conn_index, req):
        """Sends a sessionless request outside the measured samples."""
        rid = self.next_id
        self.next_id += 1
        req = dict(req, id=rid)
        conn = self.conns[conn_index]
        sample = Sample(None, None, req["verb"], conn_index, -1, time.perf_counter())
        self.pending[rid] = sample
        conn.wbuf += json.dumps(req, separators=(",", ":")).encode() + b"\n"
        self._flush(conn)
        return sample

    def _flush(self, conn):
        if conn.wbuf:
            try:
                n = conn.sock.send(conn.wbuf)
                del conn.wbuf[:n]
            except BlockingIOError:
                pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.wbuf else 0)
        self.sel.modify(conn.sock, events, conn)

    def poll(self, timeout):
        for key, events in self.sel.select(timeout):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if events & selectors.EVENT_READ:
                try:
                    data = conn.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                if not data:
                    raise BenchError("server closed connection %d" % conn.index)
                now = time.perf_counter()
                conn.rbuf += data
                *lines, conn.rbuf = conn.rbuf.split(b"\n")
                for line in lines:
                    self._answer(line, now)

    def _answer(self, line, now):
        try:
            resp = json.loads(line)
            sample = self.pending.pop(resp["id"])
        except (ValueError, KeyError):
            self.protocol_errors += 1
            return
        sample.done = now
        if resp.get("verb") != sample.verb:
            self.protocol_errors += 1
            sample.failed = True
        elif not resp.get("ok"):
            sample.failed = True
            log("failed %s: %s" % (sample.verb, resp.get("error")))
        else:
            sample.ok = True
            sample.result = resp.get("result")
            session = sample.session
            if session is not None:
                step = session.steps[sample.step]
                if step.golden is not None:
                    d = digest(sample.verb, sample.result)
                    wanted = self.golden.get("/".join(map(str, step.golden)))
                    if self.record is not None:
                        self.record["/".join(map(str, step.golden))] = d
                    elif d != wanted:
                        sample.mismatch = True
                        sample.failed = True
                        log("digest mismatch %s step %d: %s != %s" %
                            (sample.verb, sample.step, d, wanted))
        if sample.session is not None:
            sample.session.results[sample.step] = (now, sample.result)
        if self.on_answer is not None:
            self.on_answer(sample)

    def wait(self, sample, timeout):
        deadline = time.perf_counter() + timeout
        while sample.done is None:
            if time.perf_counter() > deadline:
                raise BenchError("no answer to %s" % sample.verb)
            self.poll(0.05)
        return sample


def warm_up(client, spec):
    """One open/close per dataset, so its condition pool is built."""
    name = "warmup-%s" % spec["dataset"]
    session = Session(name, [Step({"verb": "open", "dataset_ref": spec["dataset"]}, None),
                             Step({"verb": "close"}, None)], 0)
    for i in range(2):
        s = client.wait(client.send(session, i, None), 120)
        if not s.ok:
            raise BenchError("warm-up %s failed" % s.verb)
    client.samples.clear()
    client.conns[0].sent_lines.clear()


def start_server(serve_bin, spec):
    """Starts a server, waits until it listens and is warm; returns
    (server, client, setup seconds)."""
    t0 = time.perf_counter()
    server = Server(serve_bin, spec)
    try:
        server.wait_listening(120)
        client = Client(server.port, spec["connections"], {})
        warm_up(client, spec)
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - t0


def run_closed(client, source, seconds):
    t0 = time.perf_counter()
    deadline = t0 + seconds
    current = {}

    def advance(conn_index):
        session = current.get(conn_index)
        if session is None or session.sent >= len(session.steps):
            session = current[conn_index] = source.next(conn_index)
        client.send(session, session.sent, None)

    def on_answer(sample):
        if sample.session is not None and time.perf_counter() < deadline:
            advance(sample.conn)

    client.on_answer = on_answer
    for c in range(len(client.conns)):
        advance(c)
    drain(client, deadline)
    client.on_answer = None
    return t0, time.perf_counter()


def run_open(client, source, seconds, spec, seed):
    """Seeded Poisson arrivals; each arrival releases the next request of a
    random live session. Requests are timed from their due time."""
    rng = random.Random(seed * 104729 + 17)
    arrivals = []
    t = rng.expovariate(spec["rate"])
    while t < seconds:
        arrivals.append((t, rng.randrange(spec["slots"])))
        t += rng.expovariate(spec["rate"])
    slots = [None] * spec["slots"]
    ready = [[] for _ in range(spec["slots"])]   # (session, step index, due)
    lateness = []

    def send_ready(slot, now_rel):
        while ready[slot]:
            session, index, due = ready[slot][0]
            if session.steps[index].after_prev:
                if index - 1 not in session.results:
                    return
                due = max(due, session.results[index - 1][0] - t0)
            ready[slot].pop(0)
            lateness.append(max(0.0, now_rel - due))
            client.send(session, index, t0 + due, open_loop=True)

    def on_answer(sample):
        if sample.session is not None and hasattr(sample.session, "slot"):
            send_ready(sample.session.slot, time.perf_counter() - t0)

    released = [0] * spec["slots"]
    t0 = client.t0 = time.perf_counter()
    client.on_answer = on_answer
    for due, slot in arrivals:
        now_rel = time.perf_counter() - t0
        while now_rel < due:
            client.poll(due - now_rel)
            now_rel = time.perf_counter() - t0
        session = slots[slot]
        if session is None or released[slot] >= len(session.steps):
            session = slots[slot] = source.next(slot % spec["connections"])
            session.slot = slot
            released[slot] = 0
        ready[slot].append((session, released[slot], due))
        released[slot] += 1
        send_ready(slot, now_rel)
    deadline = time.perf_counter()
    drain(client, deadline, pending_ready=ready)
    client.on_answer = None
    late = sorted(lateness) or [0.0]
    return t0, time.perf_counter(), late[len(late) // 2] * 1e3, late[-1] * 1e3


def drain(client, deadline, pending_ready=None):
    while time.perf_counter() < deadline:
        client.poll(max(0.0, deadline - time.perf_counter()))
    limit = time.perf_counter() + DRAIN_LIMIT_S
    while client.pending or (pending_ready and any(pending_ready)):
        if time.perf_counter() > limit:
            break
        client.poll(0.05)


# ----------------------------------------------------------------- metrics

def nearest_rank(sorted_values, q):
    """Exact percentile of raw samples (nearest rank)."""
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def latency_summary(samples, label):
    values = sorted((s.done - s.due) * 1e3 for s in samples)
    out = {"count": len(values)}
    for name, q in (("p50", 0.5), ("p90", 0.9)):
        if not values or (q == 0.9 and len(values) < P90_MIN_SAMPLES):
            out[name] = None
            log("%s: %s not supported by %d samples" % (label, name, len(values)))
            continue
        v = nearest_rank(values, q)
        out[name] = v
        out[name + "_beyond"] = sum(1 for x in values if x > v)
    return out


def run_workload(args, binaries, menus, golden):
    spec = WORKLOADS[args.workload]
    setups = []
    server = client = None
    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                client.close()
                server.stop()
            server, client, setup = start_server(binaries.serve, spec)
            setups.append(setup)
        client.golden = golden
        source = DialogueSource(args.workload, args.seed, menus)
        seconds = args.seconds * (TRACE_SERVED_SHARE if args.trace else 1.0)
        # No collector pauses inside the client while requests are timed.
        gc.collect()
        gc.disable()
        if spec["loop"] == "closed":
            t0, t1 = run_closed(client, source, seconds)
            late = None
        else:
            t0, t1, late_p50, late_max = run_open(client, source, seconds, spec,
                                                  args.seed)
            late = (late_p50, late_max)
        gc.enable()
        rss = server.peak_rss_mb()
        extra = {}
        if args.trace:
            m = client.wait(client.send_raw(0, {"verb": "metrics"}), 30).result
            st = client.wait(client.send_raw(0, {"verb": "stats"}), 30).result
            extra = {"metrics": m, "stats": st}
        return types.SimpleNamespace(
            spec=spec, samples=client.samples, plan=[c.sent_lines for c in client.conns],
            setups=setups, window=(t0, t1), rss=rss, late=late, extra=extra,
            protocol_errors=client.protocol_errors)
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()


def summarize(args, run, ctx):
    samples, setups, late = run.samples, run.setups, run.late
    attempted = len(samples)
    answered = [s for s in samples if s.done is not None]
    failed = sum(1 for s in samples if s.done is None or s.failed)
    mismatches = sum(1 for s in samples if s.mismatch)
    ok = [s for s in answered if s.ok]
    mines = [s for s in ok if s.verb == "mine"]
    ctl = [s for s in ok if s.verb != "mine"]
    mine_lat = latency_summary(mines, "mine")
    ctl_lat = latency_summary(ctl, "ctl")
    iterations = sum(len(s.result["iterations"]) for s in mines)
    wall = run.window[1] - run.window[0]
    metrics = {
        "mine_p50_ms": (mine_lat["p50"], "ms"),
        "mine_p90_ms": (mine_lat["p90"], "ms"),
        "ctl_p50_ms": (ctl_lat["p50"], "ms"),
        "ctl_p90_ms": (ctl_lat["p90"], "ms"),
        "iters_per_s": (iterations / wall, "1/s"),
        "success_frac": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run.rss, "MB"),
    }
    print("context: " + json.dumps(ctx, sort_keys=True))
    print("workload %s seed %d: %d requests over %.3f s, %d failed (%d digest mismatches, "
          "%d unmatched responses)" % (args.workload, args.seed, attempted, wall, failed,
                                        mismatches, run.protocol_errors))
    for label, lat in (("mine", mine_lat), ("ctl", ctl_lat)):
        print("  %s samples %d; beyond p50 %s, beyond p90 %s" % (
            label, lat["count"], lat.get("p50_beyond", "-"), lat.get("p90_beyond", "-")))
    verbs = {}
    for s in ok:
        verbs.setdefault(s.verb, []).append((s.done - s.due) * 1e3)
    print("  per-verb median latency (diagnostic): " + ", ".join(
        "%s %.3f ms (%d)" % (v, statistics.median(x), len(x)) for v, x in sorted(verbs.items())))
    print("  setup_s runs: " + ", ".join("%.4f" % s for s in setups))
    if late is not None:
        print("  open-loop generator lateness (diagnostic): p50 %.3f ms, max %.3f ms"
              % late)
    for name, (value, unit) in metrics.items():
        print("  %-14s %s %s" % (name, "n/a" if value is None else "%.6g" % value, unit))
    correct = mismatches == 0 and run.protocol_errors == 0
    return correct, attempted, failed, {k: v for k, v in metrics.items() if v[0] is not None}


# ------------------------------------------------------------ traced run

def median(values):
    return statistics.median(values) if values else 0.0


def trace_metrics(args, run, binaries):
    """Replays the served requests in-process (e2e_trace) and derives the
    per-layer metrics. Returns (identical, metrics)."""
    spec, samples, extra = run.spec, run.samples, run.extra
    work = os.path.join(binaries.dir, "e2e")
    os.makedirs(work, exist_ok=True)
    plan_path = os.path.join(work, "plan-%s.tsv" % args.workload)
    out_path = os.path.join(work, "spans-%s.json" % args.workload)
    with open(plan_path, "w") as f:
        mine_count = sum(1 for s in samples if s.verb == "mine")
        stride = max(1, math.ceil(mine_count / COMPOSED_MINES))
        f.write("threads %d max_resident %d connections %d compose_stride %d preload %s\n" % (
            spec["threads"], spec["max_resident"], spec["connections"], stride,
            spec["scenario"]))
        for conn, lines in enumerate(run.plan):
            for due_us, line in lines:
                f.write("%d\t%d\t%s\n" % (conn, due_us, line))
    subprocess.run([binaries.trace, "replay", plan_path, out_path], check=True,
                   stdout=sys.stderr, timeout=170)
    with open(out_path) as f:
        spans = json.load(f)

    by_key = {(s.conn, s.seq): s for s in samples if s.done is not None}
    handle = {"mine": [], "open": [], "close": [], CTL: []}
    waits, parse_us, encode_us = [], [], []
    kb = {"mine": [], CTL: []}
    per_verb = {}
    for conn, seq, verb, ok, p_us, h_ms, e_us, nbytes in spans["requests"]:
        cls = "mine" if verb == "mine" else CTL
        handle[cls].append(h_ms)
        if verb in handle and verb != "mine":
            handle[verb].append(h_ms)
        per_verb.setdefault(verb, []).append(h_ms)
        parse_us.append(p_us)
        encode_us.append(e_us)
        kb[cls].append(nbytes / 1024.0)
        served = by_key.get((conn, seq))
        if served is not None:
            waits.append((served.done - served.due) * 1e3 - h_ms)
    waits.sort()

    identical = True
    mines = spans["mines"]
    for m in mines:
        served = by_key.get((m["conn"], m["seq"]))
        it = served.result["iterations"][0] if served is not None and served.ok else None
        same = (m["identical"] and it is not None and it["candidates"] == m["candidates"]
                and float(it["si"]) == m["location_si"])
        if not same:
            log("traced iteration differs from the served one: conn %d seq %d"
                % (m["conn"], m["seq"]))
        identical = identical and same
    if not spans["replay_ok"]:
        log("a snapshot or list replay in the traced run failed")
        identical = False
    for conn, seq, verb, ok, *_ in spans["requests"]:
        served = by_key.get((conn, seq))
        if served is not None and served.ok != ok:
            log("in-process %s (conn %d seq %d) answered ok=%s, served ok=%s"
                % (verb, conn, seq, ok, served.ok))
            identical = False

    def tot(key):
        return sum(m[key] for m in mines)

    children = ("evaluator_ms", "beam_ms", "rescore_ms", "assimilate_location_ms",
                "spread_ms", "assimilate_spread_ms")
    busy = tot("score_busy_ms")
    scored = tot("scored")
    cat = extra["metrics"]["catalog"]
    traced_handle = median([r[5] for r in spans["requests"]])
    untraced_handle = median(spans["untraced_handle_ms"])
    metrics = {
        "serve.wait_ms.p50": (nearest_rank(waits, 0.5) if waits else 0.0, "ms"),
        "serve.wait_ms.p90": (nearest_rank(waits, 0.9) if waits else 0.0, "ms"),
        "serve.handle_ms.mine": (median(handle["mine"]), "ms"),
        "serve.handle_ms.open": (median(handle["open"]), "ms"),
        "serve.handle_ms.close": (median(handle["close"]), "ms"),
        "serve.handle_ms.ctl": (median(handle[CTL]), "ms"),
        "serve.queue_peak": (extra["metrics"]["queue"]["peak"], "count"),
        "serve.rejected": (extra["metrics"]["queue"]["rejected"], "count"),
        "serve.evictions": (extra["stats"]["evictions"], "count"),
        "serve.restores": (extra["stats"]["restores"], "count"),
        "serialize.parse_us": (median(parse_us), "us"),
        "serialize.encode_us": (median(encode_us), "us"),
        "serialize.response_kb.mine": (median(kb["mine"]), "KiB"),
        "serialize.response_kb.ctl": (median(kb[CTL]), "KiB"),
        "serialize.snapshot_save_ms": (median(spans["snapshot_save_ms"]), "ms"),
        "serialize.snapshot_restore_ms": (median(spans["snapshot_restore_ms"]), "ms"),
        "catalog.pool_build_ms": (sum(p["ms"] for p in spans["pool_build"]), "ms"),
        "catalog.pool_hit_rate": (cat["pool_hit_rate"], "ratio"),
        "catalog.pool_conditions_reused": (cat["pool_conditions_reused"], "count"),
        "search.generate_ms": (median([m["beam_ms"] - m["score_wall_ms"] for m in mines]), "ms"),
        "search.score_wall_ms": (median([m["score_wall_ms"] for m in mines]), "ms"),
        "search.score_busy_ms": (median([m["score_busy_ms"] for m in mines]), "ms"),
        "search.score_efficiency": (
            busy / sum(m["score_wall_ms"] * m["score_workers"] for m in mines)
            if mines else 0.0, "ratio"),
        "search.candidates": (median([m["scored"] for m in mines]), "count"),
        "search.finite_score_ratio": (tot("finite") / scored if scored else 0.0, "ratio"),
        "search.list_ms": (median(spans["list_ms"]), "ms"),
        "si.score_us_per_candidate": (busy * 1e3 / scored if scored else 0.0, "us"),
        "si.rescore_ms": (median([m["rescore_ms"] for m in mines]), "ms"),
        "kernels.computed_gb_per_s": (tot("bytes") / (busy * 1e-3) / 1e9 if busy else 0.0,
                                      "GB/s"),
        "optimize.spread_ms": (median([m["spread_ms"] or m["spread_probe_ms"]
                                       for m in mines]), "ms"),
        "model.assimilate_ms": (median([m["assimilate_location_ms"] + m["assimilate_spread_ms"]
                                        for m in mines]), "ms"),
        "model.groups": (median([m["groups"] for m in mines]), "count"),
        "core.mine_ms": (median([m["mine_ms"] for m in mines]), "ms"),
        "core.self_ms": (median([m["mine_ms"] - sum(m[c] for c in children) for m in mines]),
                         "ms"),
        "core.child_coverage": (sum(m[c] for m in mines for c in children) / tot("mine_ms")
                                if mines else 0.0, "ratio"),
        "trace.overhead_ratio": (traced_handle / untraced_handle if untraced_handle else 0.0,
                                 "ratio"),
    }
    print("traced run: %d requests replayed in-process, %d iterations composed, "
          "bit-identical: %s" % (len(spans["requests"]), len(mines), identical))
    print("  kernels.computed_gb_per_s is computed from bitset and target-row sizes, "
          "not measured")
    print("  tracing overhead: median HandleRequest %.4f ms traced vs %.4f ms untraced"
          % (traced_handle, untraced_handle))
    for verb in sorted(per_verb):
        print("  serve.handle_ms.%s median %.4f ms over %d" % (
            verb, median(per_verb[verb]), len(per_verb[verb])))
    for name, (value, unit) in metrics.items():
        print("  %-32s %.6g %s" % (name, value, unit))
    return identical, metrics


# ------------------------------------------------------------ entry points

def load_golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def record_golden(binaries):
    """Records the menus and the digest of every variant's every step."""

    def schema(name):
        return json.loads(subprocess.run([binaries.trace, "schema", name], check=True,
                                         capture_output=True, text=True).stdout)

    water = schema("water")
    synthetic = schema("synthetic")
    menus = {
        "water_conditions": [
            {"attribute": c["name"], "op": ">=", "threshold": c["cuts"][1]}
            for c in water["columns"] if c["cuts"][1] > c["cuts"][0]][:4],
        "synthetic_conditions": [
            {"attribute": c["name"], "op": "=", "level": c["labels"][-1]}
            for c in synthetic["columns"]][:4],
        "synthetic_schema": {k: synthetic[k] for k in ("columns", "targets", "target_means")},
    }
    digests = {}
    for workload, spec in WORKLOADS.items():
        one = dict(spec, connections=1)
        server, client, _ = start_server(binaries.serve, one)
        try:
            client.record = digests
            source = DialogueSource(workload, 0, menus)
            for variant in range(num_variants(workload, menus)):
                session = source.session(variant, 0)
                for i in range(len(session.steps)):
                    s = client.wait(client.send(session, i, None), 120)
                    if not s.ok:
                        raise BenchError("recording %s step %d failed" % (workload, i))
        finally:
            client.close()
            server.stop()
    with open(GOLDEN_PATH, "w") as f:
        json.dump({"menus": menus, "digests": digests}, f, indent=1, sort_keys=True)
        f.write("\n")
    log("recorded %d digests into %s" % (len(digests), GOLDEN_PATH))


def smoke(binaries, golden, seed):
    """Every workload for a handful of requests; any failure is fatal."""
    bad = 0
    for workload, spec in WORKLOADS.items():
        server, client, _ = start_server(binaries.serve, spec)
        try:
            client.golden = golden["digests"]
            source = DialogueSource(workload, seed, golden["menus"])
            for conn in range(spec["connections"]):
                session = source.next(conn)
                for i in range(len(session.steps)):
                    client.wait(client.send(session, i, None), 120)
            failed = (sum(1 for s in client.samples if s.failed or s.done is None) +
                      client.protocol_errors)
            print("smoke %s: %d requests, %d failed" % (workload, len(client.samples), failed))
            bad += failed
        finally:
            client.close()
            server.stop()
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    try:
        binaries = build()
        if args.record_golden:
            record_golden(binaries)
            return 0
        golden = load_golden()
        if args.smoke:
            return 1 if smoke(binaries, golden, args.seed) else 0
        if args.workload is None:
            raise BenchError("--workload is required")
        run = run_workload(args, binaries, golden["menus"], golden["digests"])
        correct, attempted, failed, e2e = summarize(args, run, binaries.ctx)
        if args.trace:
            identical, layer = trace_metrics(args, run, binaries)
            correct = correct and identical
            metrics = layer
        else:
            metrics = e2e
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
        return 0
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
