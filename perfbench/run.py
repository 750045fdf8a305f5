"""The repository benchmark: one workload per run, metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload burst-mixed --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` repeats the timed phase with the layer boundaries wrapped
(``tracer.py``) and prints every per-layer metric instead.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the host, the settings and the tail percentile used.
The exit code is 0 only when every output passed its checks.
"""
from __future__ import annotations

import os

if __name__ == "__main__":
    # One BLAS thread (BENCHMARK.json's command sets it too): with the default
    # thread count, small-window p90 latency spread 34.9-45.3 ms over three
    # runs on a 2-core host, with one thread 34.4-38.8 ms.  Set before numpy
    # loads.
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_variable, "1")

import argparse  # noqa: E402
import asyncio  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from workloads import (  # noqa: E402
    BURST,
    BURST_TEMPLATES,
    MODEL_NAME,
    config,
    dataset,
    final_loss,
    make_requests,
    timed_fit,
    to_imputation_request,
)

GATE_SAMPLE = 12                    # wire responses re-served in-process per run
START_TIMEOUT = 120                 # seconds for a server to print READY
STATE_DIR = ".perfbench-state"      # checksums, results, spans, scratch registries
SETUP_REPEATS = 3                   # set-ups per run; setup_s is their median


class BenchmarkError(RuntimeError):
    """The run could not produce a result (not a failed output check)."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def tail_percentile(count):
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for percentile in (99, 95, 90):
        if count * (100 - percentile) / 100 >= 10:
            return percentile
    raise BenchmarkError(f"{count} samples are too few for a tail percentile "
                         "(p90 needs 100)")


def latency_summary(seconds):
    milliseconds = np.asarray(seconds, dtype=float) * 1000.0
    percentile = tail_percentile(len(milliseconds))
    return (float(np.median(milliseconds)),
            float(np.percentile(milliseconds, percentile)), percentile)


def digest(*arrays):
    hasher = hashlib.blake2b(digest_size=12)
    for array in arrays:
        array = np.ascontiguousarray(array)
        hasher.update(str((array.dtype.str, array.shape)).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def host_facts():
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):       # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def program_digest(root):
    """Digest of every file under ``src/`` and of the benchmark's own files.

    Part of every checksum key, so a run's outputs are compared only with
    earlier runs of the same code, never across commits that share a
    workspace.
    """
    hasher = hashlib.blake2b(digest_size=8)
    for top in (os.path.join(root, "src"), HERE):
        for directory, subdirs, files in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs
                                if d != "__pycache__" and not d.startswith("."))
            for name in sorted(files):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, top).encode() + b"\0")
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


class ChecksumLog:
    """Per-operation digests of the first run of each (program, workload,
    seed, size).

    Every later run with the same key must reproduce them exactly; a
    differing digest counts that operation as failed.
    """

    def __init__(self, path):
        self.path = path

    def compare(self, key, digests):
        """Return the indices whose digest differs from the first run's."""
        try:
            with open(self.path, encoding="utf-8") as handle:
                log = json.load(handle)
        except FileNotFoundError:
            log = {}
        first = log.get(key)
        if first is None:
            log[key] = list(digests)
            with open(self.path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(log, handle)
            os.replace(self.path + ".tmp", self.path)
            return []
        if len(first) != len(digests):
            return list(range(len(digests)))
        return [index for index, (a, b) in enumerate(zip(first, digests)) if a != b]


# ---------------------------------------------------------------------------
# /proc readings (same host; the program may be another process tree)
# ---------------------------------------------------------------------------
def process_tree(pid):
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    frontier.extend(int(child) for child in handle.read().split())
        except FileNotFoundError:          # exited meanwhile
            continue
    return pids


def tree_cpu_seconds(pid):
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def tree_peak_rss_mb(pid):
    total_kb = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except FileNotFoundError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Minimal HTTP/1.1 keep-alive client (the load generator's own, so the
# program's client code is not part of what is measured)
# ---------------------------------------------------------------------------
class Connection:
    def __init__(self, reader, writer, port):
        self.reader, self.writer, self.port = reader, writer, port

    @classmethod
    async def open(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer, port)

    async def request(self, method, path, body=b"", headers=None):
        head = [f"{method} {path} HTTP/1.1", f"Host: 127.0.0.1:{self.port}",
                f"Content-Length: {len(body)}"]
        head.extend(f"{name}: {value}" for name, value in (headers or {}).items())
        self.writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readuntil(b"\r\n")).split()[1])
        length = 0
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def get_stats(port):
    connection = await Connection.open(port)
    try:
        status, body = await connection.request("GET", "/v1/stats")
    finally:
        await connection.close()
    if status != 200:
        raise BenchmarkError(f"/v1/stats answered {status}")
    return json.loads(body)["metrics"]


# ---------------------------------------------------------------------------
# Serving workloads
# ---------------------------------------------------------------------------
class ServerProcess:
    """The program under test in its own process (``server.py``)."""

    def __init__(self, root, registry, trace_out=""):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--registry", registry]
        if trace_out:
            command += ["--trace-out", trace_out]
        self.process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, env=env, cwd=root)
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            self.stop()
            raise BenchmarkError(f"server did not start (said {line!r})")
        self.port = int(line.split()[1])
        self.pid = self.process.pid

    def stop(self, timeout=60):
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=timeout)
            except (subprocess.TimeoutExpired, BrokenPipeError):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        return self.process.returncode


class Exchange:
    """One request's wire record."""

    __slots__ = ("index", "sent", "done", "status", "body", "bytes")

    def __init__(self, index):
        self.index = index
        self.sent = self.done = None
        self.status = None
        self.body = b""
        self.bytes = 0


def _headers(index):
    from repro.serving.gateway import NPZ_CONTENT_TYPE
    return {"Content-Type": NPZ_CONTENT_TYPE, "Accept": NPZ_CONTENT_TYPE,
            "X-Request-Id": str(index)}


async def run_burst_loop(port, bodies, indices):
    """One connection, closed over bursts: ``BURST`` async submits (202 +
    ticket), then a blocking fetch of each result; a request's latency runs
    from its burst's first send."""
    connection = await Connection.open(port)
    records = []
    try:
        for begin in range(0, len(indices), BURST):
            group = [Exchange(index) for index in indices[begin:begin + BURST]]
            started = time.perf_counter()
            tickets = []
            for record in group:
                record.sent = started
                status, body = await connection.request(
                    "POST", "/v1/impute", bodies[record.index],
                    _headers(record.index))
                record.bytes = len(bodies[record.index]) + len(body)
                tickets.append(json.loads(body)["ticket"] if status == 202 else None)
                record.status = status
            for record, ticket in zip(group, tickets):
                if ticket is not None:
                    record.status, record.body = await connection.request(
                        "GET", f"/v1/result/{ticket}?timeout=60", b"",
                        _headers(record.index))
                    record.bytes += len(record.body)
                record.done = time.perf_counter()
            records.extend(group)
    finally:
        await connection.close()
    return records


def serving_phase(root, registry, bodies, warm, timed=(), trace_out=""):
    """Boot the server and warm it up (the set-up), then run the timed phase
    (if any) between two counter readings; the server is stopped on return."""
    phase = {}
    started = time.perf_counter()
    server = ServerProcess(root, registry, trace_out)
    try:
        warm_records = asyncio.run(run_burst_loop(server.port, bodies, warm))
        phase["setup_s"] = time.perf_counter() - started
        if any(record.status != 200 for record in warm_records):
            raise BenchmarkError("a warm-up request failed")
        if timed:
            phase["before"] = asyncio.run(get_stats(server.port))
            cpu_before = tree_cpu_seconds(server.pid)
            phase["t0"] = time.perf_counter()
            phase["records"] = asyncio.run(
                run_burst_loop(server.port, bodies, timed))
            phase["t1"] = time.perf_counter()
            phase["cpu"] = tree_cpu_seconds(server.pid) - cpu_before
            phase["after"] = asyncio.run(get_stats(server.port))
            phase["peak_rss_mb"] = tree_peak_rss_mb(server.pid)
    finally:
        code = server.stop()
    if code != 0:
        raise BenchmarkError(f"server exited with code {code}")
    return phase


# burst-mixed: the served model has 8 nodes and runs in float32 with 20
# diffusion steps; the server is ``server.py``.
BURST_NODES = 8
# Requests per measured second: fixes a run's request count from --seconds
# alone, never from a rate measured in the same run.
BURST_REQUESTS_PER_SECOND = 40.0


def run_serving(args, root, scratch, checksums):
    from repro import ModelRegistry, PriSTI
    from repro.serving.gateway import (
        NPZ_CONTENT_TYPE,
        decode_response_body,
        encode_impute_request,
    )

    count = max(int(round(args.seconds * BURST_REQUESTS_PER_SECOND)) // BURST, 1) * BURST
    warm_count = BURST * len(BURST_TEMPLATES)      # one burst of each composition

    # Fixture preparation (not part of set-up): data, the served model, and
    # the encoded requests.
    data = dataset(BURST_NODES)
    model = PriSTI(config(window=12, diffusion_steps=20, dtype="float32",
                          fit_steps=120, batch_size=4, inference_batch_size=8))
    timed_fit(model, data)
    registry_dir = os.path.join(scratch, "registry")
    ModelRegistry(registry_dir).publish(model, MODEL_NAME)
    specs = make_requests(data, args.seed, warm_count + count)
    bodies = [encode_impute_request(to_imputation_request(spec), NPZ_CONTENT_TYPE)
              for spec in specs]
    warm = list(range(warm_count))
    timed = list(range(warm_count, warm_count + count))

    setups = [serving_phase(root, registry_dir, bodies, warm)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    phase = serving_phase(root, registry_dir, bodies, warm, timed)
    setups.append(phase["setup_s"])

    # Correctness: decode every response, compare per-request digests with
    # the first run of this seed, re-serve a seeded sample in-process.
    failed = set()
    decoded = {}
    for record in phase["records"]:
        if record.status != 200:
            failed.add(record.index)
            continue
        response = decode_response_body(NPZ_CONTENT_TYPE, record.body)
        spec = specs[record.index]
        if (response["median"].shape != spec.values.shape
                or not np.isfinite(response["samples"]).all()):
            failed.add(record.index)
            continue
        decoded[record.index] = response
    if not decoded:
        raise BenchmarkError("no timed request was served")
    digests = [digest(decoded[i]["median"], decoded[i]["samples"]) if i in decoded
               else "missing" for i in timed]
    key = f"{program_digest(root)}|{args.workload}|seed={args.seed}|requests={count}"
    failed.update(timed[i] for i in checksums.compare(key, digests))
    failed.update(gate_against_serve(registry_dir, specs, decoded, args.seed))

    errors = [np.abs(decoded[i]["median"] - specs[i].truth)[specs[i].eval_mask]
              for i in timed if i in decoded]
    latencies = [record.done - record.sent for record in phase["records"]]
    p50, tail, percentile = latency_summary(latencies)
    ok = len(timed) - len(failed)
    before, after = phase["before"], phase["after"]
    guards = steadiness_guards(before, after, count)
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "throughput_per_s": ok / (phase["t1"] - phase["t0"]),
        "ok_share": ok / len(timed),
        "mae": float(np.concatenate(errors).mean()),
        "train_loss": final_loss(model),
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    milliseconds = np.asarray(latencies) * 1000.0
    info = {"requests": count, "tail_percentile": f"p{percentile}",
            # drift within the run, and the latency distribution
            "p50_by_quarter_ms": [float(np.median(q))
                                  for q in np.array_split(milliseconds, 4)],
            "deciles_ms": np.percentile(milliseconds, range(10, 100, 10)).tolist(),
            "setup_runs_s": setups, "guards": guards}
    result = {"attempted": len(timed), "failed": len(failed),
              "correct": not failed and all(guards.values()),
              "metrics": metrics, "info": info}
    if args.trace:
        spans_path = spans_file(scratch, args)
        traced = serving_phase(root, registry_dir, bodies, warm, timed,
                               trace_out=spans_path)
        traced_responses = [decode_response_body(NPZ_CONTENT_TYPE, record.body)
                            if record.status == 200 else None
                            for record in traced["records"]]
        bad = [i for i, (first, response) in enumerate(zip(digests, traced_responses))
               if response is None
               or first != digest(response["median"], response["samples"])]
        result["failed"] += len(bad)
        result["attempted"] += len(traced_responses)
        result["correct"] = result["correct"] and not bad
        result["metrics"] = serving_layers(
            phase, traced, tracer.load_spans(spans_path),
            [response for response in traced_responses if response is not None])
    return result


def gate_against_serve(registry_dir, specs, decoded, seed):
    """Re-serve a seeded sample of the wire responses with
    ``ImputationService.serve()`` and require bit-identical arrays."""
    from repro import ImputationService, ModelRegistry

    service = ImputationService(ModelRegistry(registry_dir))
    rng = np.random.default_rng([int(seed), 0x6A7E])
    indices = sorted(decoded)
    sample = rng.choice(indices, size=min(GATE_SAMPLE, len(indices)), replace=False)
    failed = []
    for index in sample:
        reference = service.serve(to_imputation_request(specs[index]))
        response = decoded[index]
        if not (np.array_equal(reference.median, response["median"])
                and np.array_equal(reference.samples, response["samples"])
                and reference.samples.dtype == response["samples"].dtype):
            failed.append(int(index))
    return failed


def steadiness_guards(before, after, count):
    """Conditions under which a burst-mixed run is comparable to another."""
    bursts = count // BURST

    def delta(name):
        return after[name] - before[name]

    return {
        "compiled_misses_zero": delta("compiled.cache.misses") == 0,
        "one_batch_per_burst": delta("service.batches") == bursts,
        "one_split_per_burst": delta("pool.splits") == bursts,
    }


# ---------------------------------------------------------------------------
# Offline workload (one process: fit, then repeated impute)
# ---------------------------------------------------------------------------
# offline-large: 16 nodes, window 24, float64; fit is a fixed budget of 100
# gradient steps, the fewest that give the step latencies a p90 tail.
OFFLINE_NODES = 16
OFFLINE_WINDOW = 24
OFFLINE_FIT_STEPS = 100


def run_offline(args, root, scratch, checksums, setups=SETUP_REPEATS):
    from repro import PriSTI, load_model, save_model
    from repro.inference.compiled import compiled_metrics

    steps = OFFLINE_FIT_STEPS
    passes = max(int(round(args.seconds / 2)), 3)      # ~2 s per warm pass
    data = dataset(OFFLINE_NODES)
    values, observed, evaluation = data.segment("test")
    scored = evaluation & observed
    impute_seed = [int(args.seed), 0x1397]

    def impute(model):
        model.diffusion.rng = np.random.default_rng(impute_seed)
        return model.impute(data, "test")

    cpu0 = time.process_time()
    fitted = PriSTI(config(window=OFFLINE_WINDOW, diffusion_steps=20, dtype="float64",
                           fit_steps=steps, batch_size=8, num_samples=8,
                           inference_batch_size=16))
    fit_start = time.perf_counter()
    step_seconds = timed_fit(fitted, data)
    fit_end = time.perf_counter()
    artifact = os.path.join(scratch, "model")
    save_model(fitted, artifact)

    # Set-up: rehydrate the saved model, whose first pass traces and compiles
    # every chunk signature.
    setup_runs, reference = [], None
    for _ in range(setups):
        started = time.perf_counter()
        model = load_model(artifact)
        result = impute(model)
        setup_runs.append(time.perf_counter() - started)
        reference = result.samples if reference is None else reference
    counters_before = compiled_metrics()
    impute_start = time.perf_counter()
    outputs = [impute(model) for _ in range(passes)]
    impute_end = time.perf_counter()
    counters_after = compiled_metrics()
    cpu = time.process_time() - cpu0

    failed = sum(1 for loss in fitted.history["loss"] if not np.isfinite(loss))
    bad_passes = [i for i, output in enumerate(outputs)
                  if not (np.isfinite(output.samples).all()
                          and np.array_equal(output.samples, reference))]
    key = f"{program_digest(root)}|{args.workload}|seed={args.seed}|steps={steps}"
    if checksums.compare(key, [digest(reference)]):
        bad_passes = list(range(passes))
    failed += len(bad_passes)
    attempted = steps + passes
    items = reference.shape[0] * len(model.backend().engine.window_starts(
        len(values), OFFLINE_WINDOW, OFFLINE_WINDOW))
    p50, tail, percentile = latency_summary(step_seconds)
    metrics = {
        "setup_s": statistics.median(setup_runs),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "throughput_per_s": items * passes / (impute_end - impute_start),
        "ok_share": (attempted - failed) / attempted,
        "mae": float(np.abs(outputs[0].median - values)[scored].mean()),
        "train_loss": final_loss(fitted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"fit_steps": steps, "impute_passes": passes, "items_per_pass": items,
            "tail_percentile": f"p{percentile}", "setup_runs_s": setup_runs}
    return {"attempted": attempted, "failed": failed, "correct": failed == 0,
            "metrics": metrics, "info": info,
            "phase": {"fit": (fit_start, fit_end), "impute": (impute_start, impute_end),
                      "cpu": cpu, "ops": attempted, "passes": passes, "steps": steps,
                      "counters": (counters_before, counters_after)}}


def spans_file(scratch, args):
    """Where a traced run leaves its spans (kept after the run)."""
    return os.path.join(os.path.dirname(scratch),
                        f"spans-{args.workload}-seed{args.seed}.json")


def run_offline_traced(args, root, scratch, checksums):
    untraced = run_offline(args, root, scratch, checksums, setups=1)
    recorder = tracer.install(tracer.Recorder())
    try:
        traced = run_offline(args, root, scratch, checksums, setups=1)
    finally:
        recorder.unpatch()
    recorder.dump(spans_file(scratch, args))
    traced["metrics"] = offline_layers(untraced["phase"], traced["phase"],
                                       recorder.spans)
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    traced["correct"] = traced["correct"] and untraced["correct"]
    return traced


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------
class SpanTable:
    """Spans of one timed phase with their self times."""

    def __init__(self, spans, windows):
        self.all = spans
        self.spans = [span for span in spans
                      if any(start <= span.start and span.end <= end
                             for start, end in windows)]
        self.self_seconds = tracer.self_times(spans)
        self.by_sid = {span.sid: span for span in spans}

    def named(self, *names, under=None):
        return [span for span in self.spans if span.name in names
                and (under is None or tracer.has_ancestor(span, under, self.by_sid))]

    def mean_self_ms(self, *names, whole_run=False):
        spans = [span for span in self.all if span.name in names] if whole_run \
            else self.named(*names)
        if not spans:
            return 0.0
        return 1000.0 * sum(self.self_seconds[span.sid] for span in spans) / len(spans)

    def self_ms_per(self, count, *names, under=None):
        if not count:
            return 0.0
        spans = self.named(*names, under=under)
        return 1000.0 * sum(self.self_seconds[span.sid] for span in spans) / count

    def compile_seconds(self):
        """Whole-run time of chunks that traced and compiled (cache misses)."""
        compiling = {span.parent for span in self.all
                     if span.name == "compiled.compile_graph"}
        return sum(span.end - span.start for span in self.all
                   if span.name == "compiled.chunk" and span.sid in compiling)


def _share(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def registry_load_ms(table):
    """Resolving and loading models, whole run: most loads are set-up work."""
    return table.mean_self_ms("registry.resolve", "registry.backend",
                              "io.load_model", whole_run=True)


def common_layers(table):
    chunks = table.named("compiled.chunk")
    return {
        "backend.execute_ms": table.mean_self_ms("backend.impute_segment"),
        "engine.sample_ms": table.mean_self_ms("engine.sample_plans"),
        "engine.items_per_chunk": _share(sum(span.size for span in chunks), len(chunks)),
        "compiled.replay_ms": table.mean_self_ms("compiled.replay"),
        "compiled.compile_s": table.compile_seconds(),
        "core.condition_ms": table.mean_self_ms("core.condition"),
    }


def training_layers(table, steps):
    return {
        "training.step_ms": table.self_ms_per(steps, "training.step"),
        "training.batch_ms": table.self_ms_per(
            steps, "training.sample", "training.mask", "training.noise",
            under="training.step"),
        "training.forward_ms": table.self_ms_per(
            steps, "nn.forward", under="training.step"),
        "training.backward_ms": table.self_ms_per(
            steps, "tensor.backward", under="training.step"),
        "training.optimizer_ms": table.self_ms_per(
            steps, "optim.step", "optim.clip", "optim.zero_grad",
            under="training.step"),
    }


def compiled_layers(before, after):
    def delta(name):
        return after[name] - before[name]
    hits, misses = delta("compiled.cache.hits"), delta("compiled.cache.misses")
    return {
        "compiled.hit_share": _share(hits, hits + misses),
        "compiled.misses": misses,
        "compiled.fallbacks": delta("compiled.fallbacks"),
    }


def serving_layers(untraced, traced, spans, responses):
    records = traced["records"]
    table = SpanTable(spans, [(traced["t0"], traced["t1"])])
    before, after = traced["before"], traced["after"]
    requests = len(records)

    def delta(name):
        return after[name] - before[name]

    handle_seconds = {}
    for span in table.named("gateway.handle"):
        for rid in span.rids:
            handle_seconds[rid] = handle_seconds.get(rid, 0.0) + span.end - span.start
    wire = [record.done - record.sent - handle_seconds.get(str(record.index), 0.0)
            for record in records]
    coverage = []
    by_rid = {}
    for span in table.spans:
        for rid in span.rids:
            by_rid.setdefault(rid, []).append((span.start, span.end))
    for record in records:
        intervals = [(max(start, record.sent), min(end, record.done))
                     for start, end in by_rid.get(str(record.index), ())]
        coverage.append(tracer.union_length(intervals) / (record.done - record.sent))
    roundtrips = table.named("pool.roundtrip")
    metrics = {
        "gateway.handle_ms": table.mean_self_ms("gateway.handle"),
        "gateway.decode_ms": table.mean_self_ms("gateway.decode"),
        "gateway.encode_ms": table.mean_self_ms("gateway.encode"),
        "gateway.wire_ms": 1000.0 * float(np.mean(wire)),
        "gateway.body_bytes": float(np.mean([r.bytes for r in records])),
        "service.submit_ms": table.mean_self_ms("service.submit"),
        "service.queue_wait_ms": 1000.0 * float(np.mean(
            [r["queued_seconds"] for r in responses])),
        "service.batch_ms": 1000.0 * float(np.mean(
            [r["batch_seconds"] for r in responses])),
        "service.batch_requests": _share(delta("service.requests.served"),
                                          delta("service.batches")),
        "registry.load_ms": registry_load_ms(table),
        "pool.roundtrip_ms": 1000.0 * _share(
            sum(span.end - span.start for span in roundtrips), len(roundtrips)),
        "pool.prefork_s": after["pool.warm.seconds"],
        "pool.split_share": _share(delta("pool.splits"),
                                    delta("pool.batches.dispatched")),
        "pool.steals": delta("pool.steals"),
        "pool.backlog_max": after["pool.backlog.max"],
        "transport.bytes_per_request": delta("transport.bytes_staged") / requests,
        "transport.segments_created": delta("transport.segments.created"),
        "process.cpu_s_per_request": traced["cpu"] / requests,
        "trace.coverage": float(np.mean(coverage)),
        "trace.overhead": (traced["t1"] - traced["t0"])
                           / (untraced["t1"] - untraced["t0"]),
    }
    metrics.update(common_layers(table))
    metrics.update(compiled_layers(before, after))
    metrics.update(training_layers(table, 0))
    return metrics


def offline_layers(untraced, traced, spans):
    windows = [traced["fit"], traced["impute"]]
    table = SpanTable(spans, windows)
    timed = sum(end - start for start, end in windows)
    untimed = sum(end - start for start, end in (untraced["fit"], untraced["impute"]))
    covered = sum(tracer.union_length(
        (max(span.start, start), min(span.end, end)) for span in table.spans)
        for start, end in windows)
    # Offline-large never enters the gateway, service or pool.
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    metrics["registry.load_ms"] = registry_load_ms(table)
    metrics.update(common_layers(table))
    metrics.update(compiled_layers(*traced["counters"]))
    metrics.update(training_layers(table, traced["steps"]))
    metrics["process.cpu_s_per_request"] = traced["cpu"] / traced["ops"]
    metrics["trace.coverage"] = covered / timed
    metrics["trace.overhead"] = timed / untimed
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
#: The metrics ``--trace 0`` prints, with their units (as in BENCHMARK.json).
END_TO_END_UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "throughput_per_s": "1/s", "ok_share": "share",
    "mae": "mph", "train_loss": "loss", "peak_rss_mb": "MB",
}

#: The metrics ``--trace 1`` prints, with their units (as in BENCHMARK.json).
PER_LAYER_UNITS = {
    "gateway.handle_ms": "ms", "gateway.decode_ms": "ms", "gateway.encode_ms": "ms",
    "gateway.wire_ms": "ms", "gateway.body_bytes": "bytes",
    "service.submit_ms": "ms", "service.queue_wait_ms": "ms",
    "service.batch_ms": "ms", "service.batch_requests": "count",
    "registry.load_ms": "ms",
    "pool.roundtrip_ms": "ms", "pool.prefork_s": "s", "pool.split_share": "share",
    "pool.steals": "count", "pool.backlog_max": "count",
    "transport.bytes_per_request": "bytes", "transport.segments_created": "count",
    "backend.execute_ms": "ms",
    "engine.sample_ms": "ms", "engine.items_per_chunk": "count",
    "compiled.replay_ms": "ms", "compiled.compile_s": "s",
    "compiled.hit_share": "share", "compiled.misses": "count",
    "compiled.fallbacks": "count", "core.condition_ms": "ms",
    "training.step_ms": "ms", "training.batch_ms": "ms", "training.forward_ms": "ms",
    "training.backward_ms": "ms", "training.optimizer_ms": "ms",
    "process.cpu_s_per_request": "s", "trace.coverage": "share",
    "trace.overhead": "ratio",
}


def check_against_spec(metrics, spec, trace):
    """The run must print exactly the metrics BENCHMARK.json names, in its units."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    expected = {entry["name"]: entry["unit"]
                for entry in spec["per_layer" if trace else "end_to_end"]}
    if units != expected or set(metrics) != set(expected):
        raise BenchmarkError(
            f"metrics differ from BENCHMARK.json: expected {expected}, "
            f"have {sorted(metrics)} in units {units}")


#: workload -> (untraced runner, traced runner)
RUNNERS = {
    "burst-mixed": (run_serving, run_serving),
    "offline-large": (run_offline, run_offline_traced),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(root, "src", "repro")) or not os.path.exists(spec_path):
        print("perfbench: run from the repository root (needs src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    state = os.path.join(root, STATE_DIR)
    scratch = os.path.join(state, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    checksums = ChecksumLog(os.path.join(state, "checksums.json"))
    try:
        result = RUNNERS[args.workload][args.trace](args, root, scratch, checksums)
        check_against_spec(result["metrics"], spec, args.trace)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host_facts(), "settings": result["info"]}
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    with open(os.path.join(state, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(dict(record, metrics=metrics)) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
