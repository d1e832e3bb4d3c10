"""The three workloads: what each runs, times and checks.

Every workload calls the program only through ``pedbank.cli.main`` and the
public functions of its modules. A workload's ``iteration`` runs its timed
user operations once; the timed loop in ``run.py`` repeats it for the
run's duration. A failed call or a failed check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

import inputs
import oracle
from spans import ATTRS, END, ID, NAME, REQUEST, START, Tracer


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Workload:
    """Shared bookkeeping: timed operations, gates, hashes and spans."""

    name = ""
    why = ""
    primary = ""  # samples behind primary_ms
    secondary = ""  # samples behind secondary_ms
    primary_pct = secondary_pct = 90
    warmup_iterations = 1
    min_iterations = 2

    def __init__(self, pedbank, root: str, work: str, seed: int):
        self.pb = pedbank
        self.root = root
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gates: dict[str, dict] = {}
        self.hashes: dict[str, str] = {}
        self.probes: dict[str, dict] = {}
        self.samples: dict[str, list[float]] = {}
        self.tracer: Tracer | None = None  # set while a traced iteration runs
        self.record_samples = True  # off during warm-up

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    # -- bookkeeping -------------------------------------------------------

    def sample(self, key: str, seconds: float) -> None:
        if self.record_samples:
            self.samples.setdefault(key, []).append(seconds)

    def gate(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record a correctness check; the first failure of a gate is kept."""
        entry = self.gates.setdefault(name, {"ok": True, "checked": 0, "detail": ""})
        entry["checked"] += 1
        if not ok and entry["ok"]:
            entry["ok"], entry["detail"] = False, detail
        return ok

    def pin_hash(self, name: str, digest: str) -> bool:
        """Every repetition must reproduce the first output byte for byte."""
        first = self.hashes.setdefault(name, digest)
        return self.gate(f"{name} identical across repetitions", digest == first,
                         f"sha256 {digest} != {first}")

    def op(self, label: str, fn, *args):
        """Run one user operation; returns ``(seconds, result)`` or ``(None, None)``
        when it raised. Tracing, if on, wraps only this call."""
        self.attempted += 1
        try:
            if self.tracer is None:
                t0 = perf_counter()
                result = fn(*args)
                return perf_counter() - t0, result
            with self.tracer.patched(self.pb), self.tracer.span(label):
                t0 = perf_counter()
                result = fn(*args)
                return perf_counter() - t0, result
        except Exception:  # the run keeps going and reports the failure
            self.failed += 1
            self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None, None

    def fail_op(self, ok: bool) -> None:
        """A failed check on an operation's output fails that operation."""
        if not ok:
            self.failed += 1

    def cli(self, argv: list[str]):
        """``pedbank.cli.main`` with its stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pb.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def cli_op(self, label: str, argv: list[str]):
        seconds, result = self.op(label, self.cli, argv)
        if result is None:
            return None
        code, _, err = result
        if not self.gate(f"{argv[0]} exits 0", code == 0, f"exit {code}: {err.strip()}"):
            self.failed += 1
            return None
        return seconds

    # -- hooks -------------------------------------------------------------

    def prepare(self) -> None:
        """Write the benchmark-owned inputs."""

    def setup(self) -> float:
        """Program work done before the first timed operation; returns seconds."""
        raise NotImplementedError

    def iteration(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once per run, after the timed loop."""

    def self_test(self) -> dict[str, bool]:
        """Feed the gate a deliberately corrupted result; True means caught."""
        return {}

    def summary(self) -> list[tuple[str, float, str]]:
        """Named end-to-end numbers for the human-readable report."""
        return []

    def headline(self) -> tuple[float, float]:
        """Seconds behind ``primary_ms`` and ``secondary_ms``: the
        ``primary_pct`` and ``secondary_pct`` percentiles of the two operations.

        Not the medians: on a shared host the clock runs boosted for minutes
        at a time. A boost moves the fast end of a run's samples, while the
        slow end tracks the base clock, so the 90th percentile spreads less
        from run to run than the median. The medians are in the report.
        """
        return (percentile(self.samples.get(self.primary, []), self.primary_pct),
                percentile(self.samples.get(self.secondary, []), self.secondary_pct))


def median(values):
    return float(np.median(values)) if len(values) else 0.0


def percentile(values, pct):
    return float(np.percentile(values, pct)) if len(values) else 0.0


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; ``None`` when fewer than 21 samples exist."""
    n = len(values)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, float(sorted(values)[n - 11])


# -------------------------------------------------------------------------


class Build(Workload):
    name = "build"
    why = ("README pipeline at paper sizes: build-bank --normalize, then inspect. Hint "
           "training and JSONL parsing dominate; no attention runs, so it is the "
           "control for attention changes")
    primary = "build_s"
    secondary = "inspect_s"
    BUILD_ARGS = ["--n", "50", "--steps", "2000", "--hidden", "128", "--normalize"]
    README_ARGS = ["--n", "50", "--steps", "2000"]  # README quick start, verbatim

    def prepare(self):
        self.emb = self.path("train.jsonl")
        self.bank = self.path("bank.json")
        self.hist = self.path("hist.jsonl")
        inputs.write_embeddings(self.emb, self.seed)

    def setup(self):
        # Before its first command the build pipeline only imports the package;
        # time that import in a fresh interpreter.
        code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import pedbank.cli; "
                "print(time.perf_counter() - t)")
        done = subprocess.run(
            [sys.executable, "-c", code, os.path.join(self.root, "src")],
            cwd=self.root, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout.strip())

    def iteration(self, index):
        seconds = self.cli_op("cli.build-bank", ["build-bank", self.emb, self.bank,
                                                 *self.BUILD_ARGS, "--history", self.hist])
        if seconds is not None:
            self.sample("build_s", seconds)
            self.fail_op(self.check_build())
        seconds = self.cli_op("cli.inspect", ["inspect", self.bank, self.emb, "--normalize"])
        if seconds is not None:
            self.sample("inspect_s", seconds)
            self.fail_op(self.check_inspect())

    def check_build(self) -> bool:
        try:
            self.pb.bank.load_bank(self.bank)
            detail = ""
        except self.pb.errors.PedbankError as exc:
            detail = str(exc) or type(exc).__name__
        ok = self.gate("load_bank accepts the built bank", not detail, detail)
        ok &= self.pin_hash("bank.json", sha256_file(self.bank))
        ok &= self.pin_hash("hist.jsonl", sha256_file(self.hist))
        return ok

    def check_inspect(self) -> bool:
        groups, csv = self.bank + ".groups.json", self.bank + ".fk.csv"
        ok = self.pin_hash("bank.json.groups.json", sha256_file(groups))
        ok &= self.pin_hash("bank.json.fk.csv", sha256_file(csv))
        if "inspect csv equals the bank's f_k" not in self.gates:
            # Full content check once; later repetitions must match it bytewise.
            f_k = self.pb.bank.load_bank(self.bank).f_k
            rows = np.loadtxt(csv, delimiter=",", ndmin=2)
            ok &= self.gate("inspect csv equals the bank's f_k", np.array_equal(rows, f_k),
                            "csv rows differ from f_k")
            with open(groups, encoding="utf-8") as fh:
                doc = json.load(fh)
            total = inputs.PEDESTRIANS + inputs.BACKGROUNDS
            ok &= self.gate("inspect groups cover every record",
                            sum(doc["counts"]) == total == doc["records"]
                            and sum(len(g) for g in doc["groups"].values()) == total,
                            f"counts sum {sum(doc['counts'])}, expected {total}")
        return ok

    def readme_probe(self):
        """README quick start verbatim (lr 0.1, no --normalize), outside timing."""
        code, _, err = self.cli(["build-bank", self.emb, self.path("readme_bank.json"),
                                 *self.README_ARGS, "--history",
                                 self.path("readme_hist.jsonl")])
        self.probes["readme_build_bank"] = {
            "argv": "build-bank train.jsonl bank.json --n 50 --steps 2000 --history hist.jsonl",
            "exit_code": code,
            "message": err.strip() or "ok",
        }

    def finish(self):
        self.readme_probe()

    def self_test(self):
        corrupt = self.path("bank_flipped.json")
        with open(self.bank, "rb") as fh:
            data = bytearray(fh.read())
        at = data.index(b'"f_q": [[') + 9  # first digit or sign of f_q[0][0]
        while not chr(data[at]).isdigit():
            at += 1
        data[at] = ord("1") if data[at] != ord("1") else ord("2")
        with open(corrupt, "wb") as fh:
            fh.write(data)
        try:
            self.pb.bank.load_bank(corrupt)
            rejected = False
        except self.pb.errors.PedbankError:
            rejected = True
        hash_caught = sha256_file(corrupt) != self.hashes.get("bank.json")
        return {"flipped bank byte rejected by load_bank": rejected,
                "flipped bank byte changes sha256": hash_caught}

    def summary(self):
        return [("build_s", median(self.samples.get("build_s", [])), "s"),
                ("inspect_s", median(self.samples.get("inspect_s", [])), "s")]


class _AttentionWorkload(Workload):
    """Shared set-up: load the bank and seed the attention parameters."""

    def setup(self):
        t0 = perf_counter()
        self.bank_obj = self.pb.bank.load_bank(self.bank)
        self.params = self.pb.attention.init_attention(
            c=inputs.CHANNELS, d=inputs.DIM, d_m=inputs.D_MODEL, heads=inputs.HEADS, seed=0
        )
        return perf_counter() - t0

    def oracle(self) -> oracle.LoopOracle:
        if not hasattr(self, "_oracle"):
            self._oracle = oracle.LoopOracle(self.bank_obj.f_k, self.params)
        return self._oracle


class Proposals(_AttentionWorkload):
    name = "proposals"
    why = ("complement command plus warm cross_attend and attention_gradients on "
           "100x7x7x256 blocks over a 50x512 bank: attention and 25 MB JSON I/O "
           "dominate; no training runs")
    primary = "complement_s"
    secondary = "forward_backward_s"
    ORACLE_ROWS = 16

    def prepare(self):
        self.bank = self.path("bank.json")
        self.features = self.path("features.json")
        self.out = self.path("out.json")
        inputs.write_bank(self.bank, self.seed)
        self.blocks = inputs.proposal_blocks(self.seed)
        inputs.write_feature_batch(self.features, self.blocks)
        self.upstream = inputs.upstream_cotangent(self.seed)
        self.rows = self.blocks.shape[0] * self.blocks.shape[1] * self.blocks.shape[2]
        self.grads = None

    def iteration(self, index):
        att = self.pb.attention
        seconds = self.cli_op("cli.complement", ["complement", self.bank, self.features,
                                                 self.out, "--heads", str(inputs.HEADS),
                                                 "--d-model", str(inputs.D_MODEL)])
        complement_ran = seconds is not None
        if complement_ran:
            self.sample("complement_s", seconds)
            self.fail_op(self.pin_hash("out.json", sha256_file(self.out)))

        t_fb, batch = self.op("attention.FeatureBatch", att.FeatureBatch, "proposal", self.blocks)
        if batch is None:
            return
        self.sample("feature_batch_s", t_fb)
        t_fwd, result = self.op("attention.cross_attend", att.cross_attend,
                                batch, self.bank_obj, self.params)
        if result is not None:
            self.sample("forward_s", t_fwd)
            self.fail_op(self.check_forward(*result, complement_ran))
        t_bwd, grads = self.op("attention.attention_gradients", att.attention_gradients,
                               batch, self.bank_obj, self.params, self.upstream)
        if grads is not None:
            self.sample("backward_s", t_bwd)
            if self.grads is None:
                self.grads = (batch, grads)
            self.fail_op(self.pin_hash("gradients", sha256_arrays(
                *(getattr(grads, g) for g in oracle.GROUPS))))
        if result is not None and grads is not None:
            self.sample("forward_backward_s", t_fwd + t_bwd)

    def check_forward(self, out, trace, complement_ran) -> bool:
        att = self.pb.attention
        ok = self.pin_hash("forward output", sha256_arrays(out.blocks))
        t_ln, normed = self.op("attention.layer_norm", att.layer_norm, trace.pre_norm,
                               self.params.gain, self.params.bias, self.params.eps)
        if normed is not None:
            self.sample("layer_norm_s", t_ln)
            ok &= self.gate("layer_norm(trace.pre_norm) equals trace.output",
                            np.array_equal(normed, trace.output), "differs")
        if "loop-and-dot oracle matches sampled rows" not in self.gates:
            flat_in = self.blocks.reshape(-1, inputs.CHANNELS)
            flat_out = out.blocks.reshape(-1, inputs.CHANNELS)
            pick = inputs.fd_rng(self.seed).choice(flat_in.shape[0], self.ORACLE_ROWS,
                                                   replace=False)
            worst = oracle.oracle_mismatch(self.oracle(), flat_in[pick], flat_out[pick])
            ok &= self.gate("loop-and-dot oracle matches sampled rows",
                            worst <= oracle.ORACLE_TOL, f"max abs error {worst:.3e}")
            if complement_ran:
                reloaded = att.load_feature_batch(self.out)
                ok &= self.gate("complement output file reloads equal to cross_attend",
                                reloaded.mode == out.mode
                                and np.array_equal(reloaded.blocks, out.blocks),
                                "saved output differs from the in-memory result")
        return ok

    def finish(self):
        if self.grads is None:
            return
        batch, grads = self.grads
        err = oracle.directional_fd(self.pb.attention, batch, self.bank_obj, self.params,
                                    self.upstream, grads, inputs.fd_rng(self.seed))
        self.fail_op(self.gate("central difference agrees with attention_gradients",
                               err < oracle.FD_TOL, f"relative error {err:.3e}"))
        self.probes["directional_fd_relative_error"] = {"value": err}

    def self_test(self):
        att = self.pb.attention
        zeroed = att.AttentionParams(
            heads=self.params.heads, d_model=self.params.d_model, eps=self.params.eps,
            w_q=self.params.w_q, w_k=self.params.w_k, w_v=self.params.w_v,
            w_o=np.zeros_like(self.params.w_o), gain=self.params.gain, bias=self.params.bias,
        )
        one = att.FeatureBatch(mode="proposal", blocks=self.blocks[:1])
        out, _ = att.cross_attend(one, self.bank_obj, zeroed)
        rows_in = self.blocks[0].reshape(-1, inputs.CHANNELS)[:4]
        rows_out = out.blocks.reshape(-1, inputs.CHANNELS)[:4]
        worst = oracle.oracle_mismatch(self.oracle(), rows_in, rows_out)
        return {"zeroed w_o fails the oracle": worst > oracle.ORACLE_TOL}

    def summary(self):
        fwd = median(self.samples.get("forward_s", []))
        bwd = median(self.samples.get("backward_s", []))
        return [("complement_s", median(self.samples.get("complement_s", [])), "s"),
                ("forward_rows_per_s", self.rows / fwd if fwd else 0.0, "1/s"),
                ("backward_rows_per_s", self.rows / bwd if bwd else 0.0, "1/s")]


class Queries(_AttentionWorkload):
    name = "queries"
    why = ("closed loop, one caller: a fresh 1x1x256 query per request over a fixed "
           "bank, so per-call overhead and re-projecting the bank K/V dominate")
    primary = "query_s"
    secondary = "query_s"
    # One operation, so the second number is a further tail: p95, because
    # p99 and above spread by up to 0.35 from run to run on a shared host.
    secondary_pct = 95
    warmup_iterations = 10
    min_iterations = 30
    CHECK_EVERY = 64
    ORACLE_EVERY = 512

    def prepare(self):
        self.bank = self.path("bank.json")
        inputs.write_bank(self.bank, self.seed)
        self.stream = inputs.QueryStream(self.seed)
        self.digest = hashlib.sha256()

    def query(self, vector):
        att = self.pb.attention
        if self.tracer is None:
            batch = att.FeatureBatch(mode="query", blocks=vector.reshape(1, 1, -1))
        else:
            with self.tracer.span("attention.FeatureBatch"):
                batch = att.FeatureBatch(mode="query", blocks=vector.reshape(1, 1, -1))
        return att.cross_attend(batch, self.bank_obj, self.params)

    def iteration(self, index):
        vector = self.stream.next()
        seconds, result = self.op("query", self.query, vector)
        if result is None:
            return
        self.sample("query_s", seconds)
        out = result[0].blocks
        self.digest.update(out.tobytes())
        if index % self.CHECK_EVERY == 0:
            att = self.pb.attention
            as_block = att.FeatureBatch(mode="proposal", blocks=vector.reshape(1, 1, 1, -1))
            ref, _ = att.cross_attend(as_block, self.bank_obj, self.params)
            ok = self.gate("query equals the 1x1 proposal path bit for bit",
                           np.array_equal(ref.blocks.reshape(out.shape), out),
                           f"query {index} differs")
            if index % self.ORACLE_EVERY == 0:
                worst = oracle.oracle_mismatch(self.oracle(), vector[None], out.reshape(1, -1))
                ok &= self.gate("loop-and-dot oracle matches checked queries",
                                worst <= oracle.ORACLE_TOL, f"max abs error {worst:.3e}")
            self.fail_op(ok)

    def finish(self):
        self.hashes["query outputs"] = self.digest.hexdigest()

    def self_test(self):
        att = self.pb.attention
        vector = self.stream.next()
        out, _ = att.cross_attend(att.FeatureBatch(mode="query", blocks=vector.reshape(1, 1, -1)),
                                  self.bank_obj, self.params)
        bumped = out.blocks.copy()
        bumped.flat[0] = np.nextafter(bumped.flat[0], np.inf)
        ref, _ = att.cross_attend(
            att.FeatureBatch(mode="proposal", blocks=vector.reshape(1, 1, 1, -1)),
            self.bank_obj, self.params)
        return {"one-ulp change fails the bitwise query check":
                not np.array_equal(ref.blocks.reshape(bumped.shape), bumped)}

    def summary(self):
        samples = self.samples.get("query_s", [])
        rows = [("query_p50_ms", 1e3 * median(samples), "ms"),
                ("query_p90_ms", 1e3 * percentile(samples, 90), "ms"),
                ("query_p95_ms", 1e3 * percentile(samples, 95), "ms")]
        t = tail(samples)
        if t is not None:
            rows.append((f"query_tail_ms (p{t[0]:.2f})", 1e3 * t[1], "ms"))
        return rows


WORKLOADS = {w.name: w for w in (Build, Proposals, Queries)}


# -------------------------------------------------------------------------
# Per-layer metrics from a traced run.

PER_LAYER = (
    ("embeddings.parse_embedding_file.s", "s"),
    ("embeddings.parse_embedding_file.mb_per_s", "MB/s"),
    ("embeddings.split_by_label.s", "s"),
    ("quantizer.kmeans_with_objectives.s", "s"),
    ("quantizer.kmeans.iterations", "count"),
    ("quantizer.assignment_report.s", "s"),
    ("quantizer.quantize.us", "us"),
    ("quantizer.quantize.calls", "count"),
    ("hints.train_hints.s", "s"),
    ("hints.train_hints.steps_per_s", "1/s"),
    ("hints.forward_classify.us", "us"),
    ("hints.backward.us", "us"),
    ("hints.write_history.s", "s"),
    ("bank.assemble_bank.s", "s"),
    ("bank.save_bank.s", "s"),
    ("bank.load_bank.s", "s"),
    ("bank.file_bytes", "count"),
    ("attention.init_attention.s", "s"),
    ("attention.load_feature_batch.s", "s"),
    ("attention.save_feature_batch.s", "s"),
    ("attention.feature_file_bytes", "count"),
    ("attention.FeatureBatch.us", "us"),
    ("attention.cross_attend.s", "s"),
    ("attention.cross_attend.gflop_per_s", "GFLOP/s"),
    ("attention.cross_attend.first_call_s", "s"),
    ("attention.attention_gradients.s", "s"),
    ("attention.attention_gradients.gflop_per_s", "GFLOP/s"),
    ("attention.layer_norm.s", "s"),
    ("cli.self_s.build-bank", "s"),
    ("cli.self_s.inspect", "s"),
    ("cli.self_s.complement", "s"),
    ("trace.overhead_frac", "ratio"),
)


def layer_metrics(tracer: Tracer, measured: set[int], overhead: float) -> dict[str, float]:
    """Per-layer numbers from spans of the measured (non-warm-up) requests.

    A layer the workload never calls reports 0. Set-up spans (request -1)
    count for the calls made only there.
    """
    spans = [s for s in tracer.spans if s[REQUEST] in measured or s[REQUEST] == -1]
    selfs = tracer.self_times()
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def dur(name):
        return median([s[END] - s[START] for s in by_name.get(name, [])])

    def attr(name, key):
        return median([s[ATTRS][key] for s in by_name.get(name, []) if s[ATTRS]])

    def per_second(amount, seconds):
        return amount / seconds if seconds else 0.0

    iterations = len(measured) or 1
    attend = [s for s in tracer.spans if s[NAME] == "attention.cross_attend"]
    # FLOPs are computed from the shapes of the calls, not measured.
    shape = (int(attr("attention.cross_attend", "rows")), inputs.CHANNELS, inputs.BANK_N,
             inputs.DIM, inputs.HEADS, inputs.D_MODEL)
    fwd_flops, bwd_flops = oracle.forward_flops(*shape), oracle.backward_flops(*shape)
    parse_s = dur("embeddings.parse_embedding_file")
    train_s = dur("hints.train_hints")
    values = {
        "embeddings.parse_embedding_file.s": parse_s,
        "embeddings.parse_embedding_file.mb_per_s": per_second(
            attr("embeddings.parse_embedding_file", "bytes") / 1e6, parse_s),
        "embeddings.split_by_label.s": dur("embeddings.split_by_label"),
        "quantizer.kmeans_with_objectives.s": dur("quantizer.kmeans_with_objectives"),
        "quantizer.kmeans.iterations": attr("quantizer.kmeans_with_objectives", "iterations"),
        "quantizer.assignment_report.s": dur("quantizer.assignment_report"),
        "quantizer.quantize.us": 1e6 * dur("quantizer.quantize"),
        "quantizer.quantize.calls": len(by_name.get("quantizer.quantize", [])) / iterations,
        "hints.train_hints.s": train_s,
        "hints.train_hints.steps_per_s": per_second(attr("hints.train_hints", "steps"), train_s),
        "hints.forward_classify.us": 1e6 * dur("hints.forward_classify"),
        "hints.backward.us": 1e6 * dur("hints.backward"),
        "hints.write_history.s": dur("hints.write_history"),
        "bank.assemble_bank.s": dur("bank.assemble_bank"),
        "bank.save_bank.s": dur("bank.save_bank"),
        "bank.load_bank.s": dur("bank.load_bank"),
        "bank.file_bytes": attr("bank.load_bank", "bytes"),
        "attention.init_attention.s": dur("attention.init_attention"),
        "attention.load_feature_batch.s": dur("attention.load_feature_batch"),
        "attention.save_feature_batch.s": dur("attention.save_feature_batch"),
        "attention.feature_file_bytes": attr("attention.load_feature_batch", "bytes"),
        "attention.FeatureBatch.us": 1e6 * dur("attention.FeatureBatch"),
        "attention.cross_attend.s": dur("attention.cross_attend"),
        "attention.cross_attend.gflop_per_s": per_second(
            fwd_flops / 1e9, dur("attention.cross_attend")),
        "attention.cross_attend.first_call_s": attend[0][END] - attend[0][START] if attend else 0.0,
        "attention.attention_gradients.s": dur("attention.attention_gradients"),
        "attention.attention_gradients.gflop_per_s": per_second(
            bwd_flops / 1e9, dur("attention.attention_gradients")),
        "attention.layer_norm.s": dur("attention.layer_norm"),
        "trace.overhead_frac": overhead,
    }
    for command in ("build-bank", "inspect", "complement"):
        values[f"cli.self_s.{command}"] = median(
            [selfs[s[ID]] for s in by_name.get(f"cli.{command}", [])])
    return values
