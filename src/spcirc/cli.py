"""Command-line interface: every experiment behind one entry point.

Exit codes: 0 success, 1 domain/config error (with usage) or an output that
cannot be written, 2 capacity error.
Stochastic subcommands require --seed; identical config + seed reproduce
byte-identical CSV/NPY payloads. Every subcommand first builds a plan, which
reads the inputs and makes every domain and capacity check of the run;
--dry-run stops there, so a dry run fails exactly when the real run would.
Results are wrapped in a JSON envelope on stdout: the config (every parsed
option, plus what the plan read from the inputs), a build id, wall-clock
seconds, and the payload (inline JSON or the path of the file written).

Importing this module registers numpy, unless the process has imported it
already, and the package's other modules without executing them
(``_register_lazily``), so a run executes only the modules its subcommand
reads: a closure ``errors``, ``pauli``, ``kernels`` and ``lie_closure`` and
no numpy. numpy runs at its first use, in the run, so the dry runs and
refusals of ``closure``, ``sample``, ``gram``, ``gp``, ``gp-summary``,
``concentration``, ``anticoncentration``, ``anticoncentration-depth`` and
``collision`` never load it; the plans of ``twirl`` and ``simulate`` do.
Only ``brauer`` and ``circuit`` define dataclasses, so a closure run and
those dry runs, gram's aside, load neither ``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import importlib.util
import json
import os
import sys
import time
import zlib
from functools import partial
from pathlib import Path

from . import __version__


def _register_lazily() -> None:
    """Put numpy and every other module of the package, those not yet
    imported, in ``sys.modules`` without executing them, and each module of
    the package on the package too: LazyLoader executes a module when one of
    its attributes is first read. Only the CLI registers numpy so, since
    LazyLoader is not thread-safe: a library caller, who may run threads,
    keeps the numpy that its own ``import`` executes."""
    here = Path(__file__)
    stems = [path.stem for path in sorted(here.parent.glob("*.py"))
             if path.stem not in ("__init__", here.stem)]
    for name in ["numpy", *(f"{__package__}.{stem}" for stem in stems)]:
        if name in sys.modules:
            continue
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        package, _, stem = name.rpartition(".")
        if package:
            setattr(sys.modules[package], stem, module)
        spec.loader.exec_module(module)


_register_lazily()
# bound without executing: each runs when the plan first reads from it, and
# numpy when the run does (``errors.np``)
from . import brauer, circuit, gp_stats, lie_closure, moment, pauli, sampler  # noqa: E402
from .errors import (CapacityError, DomainError, check_basis_index, check_bytes,  # noqa: E402
                     np, read_fields, read_kind)

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad arguments as DomainError (exit 1)."""

    def error(self, message):
        raise DomainError(f"{message}\n{self.format_usage()}")


def _build_id() -> str:
    """spcirc-<version>+<crc32 of the package's .py files in name order>: it
    names the exact code that ran, inside a checkout or not."""
    crc = 0
    for path in sorted(Path(__file__).parent.glob("*.py")):
        crc = zlib.crc32(path.read_bytes(), crc)
    return f"spcirc-{__version__}+{crc:08x}"


def _payload(result, *fields) -> dict:
    """A result object as a JSON payload; each field is a name or a
    (payload key, name) pair, and numpy values (by ``tolist``) become lists."""
    out = {}
    for field in fields:
        key, name = field if isinstance(field, tuple) else (field, field)
        value = getattr(result, name)
        out[key] = value.tolist() if hasattr(value, "tolist") else value
    return out


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _float_list(text: str, what: str) -> list:
    try:
        values = [float(x) for x in text.split(",") if x]
    except ValueError as e:
        raise DomainError(f"bad {what} list {text!r}: {e}") from e
    if not values:
        raise DomainError(f"empty {what} list")
    return values


def _out_path(path, suffix=""):
    """The file --out names (np.save appends ``suffix``), in an existing
    directory once symbolic links are resolved; a link loop resolves to a link."""
    if path is None:
        return None
    if not path:
        raise DomainError("--out names no file: the path is empty")
    path = path if path.endswith(suffix) else path + suffix
    real = os.path.realpath(path)
    if os.path.isdir(path) or os.path.islink(real) or not os.path.isdir(os.path.dirname(real)):
        raise DomainError(f"cannot write {path}: not a file in an existing directory")
    return path


# ---------------------------------------------------------------------------
# subcommand plans; each reads its inputs and makes every domain and capacity
# check, allocating nothing large, and returns (what it adds to the config
# echo, extra dry-run fields, run) where run() computes the payload

# --set value -> the lie_closure function that builds it
_GENERATOR_SETS = {"theorem1": "theorem1_generators", "prop2": "prop2_generators",
                   "so-chain": "so_chain_generators"}


def _plan_closure(args):
    lie_closure.check_closure(args.n)  # before a set is built, so a vast n costs O(1)
    added = {}
    if (args.set == "custom") != (args.generators is not None):
        raise DomainError("--generators FILE goes with --set custom, and only with it")
    if args.set == "custom":
        labels = json.loads(Path(args.generators).read_text())
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise DomainError("generators file must be a JSON list of Pauli labels")
        added["generators"] = labels  # in place of the file path
        gens = lie_closure.GeneratorSet(args.n, tuple(map(pauli.PauliString.from_label, labels)))
    else:
        gens = getattr(lie_closure, _GENERATOR_SETS[args.set])(args.n)
    lie_closure.check_closure(args.n, len(gens.generators))

    def run():
        res = lie_closure.closure(gens)
        return _payload(res, "dimension", "classification", ("basis_count", "dimension"),
                        "iterations")

    return added, {}, run


def _plan_sample(args):
    sampler.check_sample(args.group, args.d, args.count)
    path = _out_path(args.out, ".npy")
    rng = sampler.RngStream(args.seed, "sample")

    def run():
        gen = rng.generator()
        draw = sampler.SAMPLERS[args.group]
        out = np.empty((args.count, args.d, args.d), dtype=complex)
        for k in range(args.count):
            out[k] = draw(args.d, gen)
        np.save(path, out)
        return {"path": path, "shape": list(out.shape), "dtype": "complex128"}

    return {}, {}, run


def _plan_twirl(args):
    brauer.check_twirl(args.t, args.d, args.group)
    out = _out_path(args.out)
    with open(args.input, "rb") as f:  # np.load tries anything else as a pickle
        if f.read(6) != np.lib.format.MAGIC_PREFIX:
            raise DomainError(f"{args.input} is not a plain .npy array")
    x = np.load(args.input, mmap_mode="r")  # the shape is checked before any read
    brauer.check_operator(x, args.t, args.d)

    def run():
        res = brauer.twirl(x, args.t, args.d, args.group)
        coeff = {str(sig): [float(c.real), float(c.imag)]
                 for sig, c in zip(res.diagrams, res.coefficients)}
        payload = {"coefficients": coeff, "residual": res.residual,
                   "diagram_order": [str(s) for s in res.diagrams]}
        if out:
            Path(out).write_text(json.dumps(payload, indent=2) + "\n")
            return {"path": out}
        return payload

    return {}, {}, run


def _plan_gram(args):
    brauer.check_gram(args.t, args.d, args.group)

    def run():
        g = brauer.gram(args.t, args.d, args.group)
        return {
            "diagrams": [str(s) for s in g.diagrams],
            "entries": g.entries.tolist(),
            "pseudo_inverse": g.pseudo,
            "delta": g.delta,
            "inverse": g.weingarten.tolist(),
        }

    return {}, {}, run


def _plan_simulate(args):
    circ = circuit.circuit_from_json(Path(args.circuit).read_text())
    circuit.check_statevector(circ.n)
    if not args.out:  # the inline amplitudes as lists of floats: about 150 B each
        check_bytes(f"the inline amplitudes at n = {circ.n}", 160, 2, circ.n)
    check_basis_index(circ.n, args.state)
    out = _out_path(args.out, ".npy")

    def run():
        amp = circuit.apply(circ, circuit.initial_state(circ.n, args.state))
        norm = float(np.linalg.norm(amp))
        if out:
            np.save(out, amp)
            return {"path": out, "n": circ.n, "norm": norm}
        amps = [[float(a.real), float(a.imag)] for a in amp]
        return {"n": circ.n, "amplitudes": amps, "norm": norm}

    return {}, {"n": circ.n, "gates": len(circ.gates)}, run


_GP_FIELDS = {"schema_version": int, "n": int, "observable": str, "samples": int,
              "states": list}


def _gp_states() -> dict:
    """State kind -> (its one optional field, that field's range check, the
    StateSpec constructor taking it)."""
    return {
        "computational_basis": ("x", check_basis_index, gp_stats.StateSpec.computational_basis),
        "superposition_pair": ("flip_qubit", gp_stats.check_flip_qubit,
                               gp_stats.StateSpec.superposition_pair),
    }


def _load_gp_config(path: str):
    """The config's fields and types, then the rules no library check makes;
    check_gp and the StateSpec constructors make the rest. The state ranges
    come before check_gp, whose capacity check would otherwise hide them."""
    data = read_fields(json.loads(Path(path).read_text()), "gp config",
                       _GP_FIELDS, {"batches": int})
    kinds = _gp_states()
    n, samples = data["n"], data["samples"]
    if data["schema_version"] != SCHEMA_VERSION:
        raise DomainError(f"bad gp config: schema_version must be {SCHEMA_VERSION}")
    if n < 2 or samples < 20 or not data["states"]:
        raise DomainError(f"bad gp config: needs n >= 2, samples >= 20 and a state; "
                          f"got n = {n}, samples = {samples}, {len(data['states'])} states")
    for k, s in enumerate(data["states"]):
        where = f"gp config: states[{k}]"
        field, check_range, _ = kinds[read_kind(s, where, "kind", kinds)]
        read_fields(s, where, {"kind": str}, {field: int})
        if field in s:
            check_range(n, s[field])
    observable = pauli.PauliString.from_label(data["observable"])
    gp_stats.check_gp(n, samples, observable, data.get("batches", gp_stats.DEFAULT_BATCHES),
                      len(data["states"]))
    # the run builds the states: a plan allocates nothing d-sized
    states = [partial(kinds[s["kind"]][2], n, **{k: v for k, v in s.items() if k != "kind"})
              for s in data["states"]]
    return data, states, observable


def _plan_gp(args, report):
    """Plan shared by ``gp`` and ``gp-summary``; ``report(summary, out)`` turns
    the finished run into the payload."""
    data, states, observable = _load_gp_config(args.config)
    out = _out_path(args.out)
    rng = sampler.RngStream(args.seed, "gp")

    def run():
        summary = gp_stats.run_gp_experiment(
            [make() for make in states], observable, data["samples"], rng,
            batches=data.get("batches", gp_stats.DEFAULT_BATCHES),
        )
        return report(summary, out)

    return {"resolved": data}, {"states": len(states)}, run


def _gp_values_csv(summary, out):
    values = summary.values
    rows = ((k, j, "%.17g" % values[k, j]) for k, j in np.ndindex(values.shape))
    _write_csv(out, ["sample_id", "state_id", "value"], rows)
    return {"path": out, "rows": values.size}


def _gp_summary_payload(summary, out):
    payload = _payload(
        summary, "n", ("samples", "sample_count"), "state_labels", "observable",
        "mean_vector", "mean_se", "covariance", "covariance_se", "theory_name",
        "theory_covariance", "exact_covariance", "fourth_moment_ratio",
    )
    if out:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        return {"path": out}
    return payload


def _plan_concentration(args):
    thresholds = _float_list(args.thresholds, "threshold")
    obs = (pauli.PauliString.from_label(args.observable) if args.observable
           else pauli.PauliString.single(args.n, min(2, args.n), "Y"))
    gp_stats.check_concentration(args.n, args.samples, thresholds, obs)
    if args.state == "pair":
        gp_stats.check_flip_qubit(args.n, 2)
    rng = sampler.RngStream(args.seed, "concentration")

    def run():
        state = (gp_stats.StateSpec.computational_basis(args.n, 0) if args.state == "basis"
                 else gp_stats.StateSpec.superposition_pair(args.n))
        table = gp_stats.concentration_tail(state, obs, args.samples, thresholds, rng)
        return _payload(table, "thresholds", "empirical", "empirical_se",
                        ("gaussian_tail", "gaussian"), "bound_t2", "bound_t4",
                        "sigma_squared")

    return {}, {}, run


def _plan_anticoncentration(args):
    alphas = _float_list(args.alphas, "alpha")
    gp_stats.check_anticoncentration(args.n, args.samples, alphas, args.x)
    rng = sampler.RngStream(args.seed, "anticoncentration")

    def run():
        table = gp_stats.anticoncentration_check(args.n, args.samples, alphas, rng, x_index=args.x)
        return _payload(table, "n", "x_index", "alphas", "empirical", "empirical_se",
                        "bound", "z_estimate", "z_se", "z_haar")

    return {}, {}, run


def _plan_depth(args):
    if args.n_max < args.n_min:
        raise DomainError(f"bad n range [{args.n_min}, {args.n_max}]")
    for n in (args.n_min, args.n_max):
        moment.check_depth(n, args.epsilon, args.max_layers)
    out = _out_path(args.out)

    def run():
        results = [moment.depth_to_anticoncentrate(n, args.epsilon, args.max_layers)
                   for n in range(args.n_min, args.n_max + 1)]
        # json.dumps writes each z by repr, which round-trips float64
        _write_csv(out, ["n", "n_L_star", "z_trace"],
                   [(r.n, "" if r.n_l_star is None else r.n_l_star, json.dumps(r.z_trace))
                    for r in results])
        payload = {"path": out}
        reached = [(r.n, r.n_l_star) for r in results if r.n_l_star is not None]
        if len(reached) >= 2:
            fit = moment.fit_log_depth([x for x, _ in reached], [y for _, y in reached])
            payload["fit"] = {"a": fit.a, "b": fit.b, "r_squared": fit.r_squared}
        unreached = [r.n for r in results if r.n_l_star is None]
        if unreached:
            payload["unreached"] = unreached
        return payload

    return {}, {}, run


def _plan_collision(args):
    moment.check_propagation(args.n, args.layers)

    def run():
        v = moment.propagate(moment.initial_label_vector(args.n), args.layers)
        return {
            "n": args.n,
            "layers": args.layers,
            "z": moment.collision_probability(v),
            "z_haar": moment.z_haar(args.n),
        }

    return {}, {}, run


# ---------------------------------------------------------------------------
# parser

def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _subcommand(sub, name: str, plan, help: str, stochastic: bool = False):
    """A subparser whose ``plan`` main() calls, with the shared options."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(plan=plan)
    p.add_argument("--dry-run", action="store_true",
                   help="make every check of the run without computing")
    if stochastic:
        p.add_argument("--seed", type=int, required=True,
                       help="RNG seed, at least 0 (required: no silent entropy)")
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="spcirc",
                     description="compact-symplectic circuit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "closure", _plan_closure, "Lie closure of a generator set")
    p.add_argument("--set", required=True, choices=[*_GENERATOR_SETS, "custom"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--generators", help="JSON list of Pauli labels (custom set)")
    p.add_argument("--max-dim", type=_int_at_least(1), default=4**7,
                   help="no effect: the byte rule alone bounds a closure. Parsed (K >= 1) "
                        "and echoed until the benchmark stops passing it")

    p = _subcommand(sub, "sample", _plan_sample, "Haar samples from sp/o/so/u",
                    stochastic=True)
    p.add_argument("--group", required=True,
                   help="Haar group, a key of sampler.SAMPLERS: sp, o, so or u")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="output .npy path")

    p = _subcommand(sub, "twirl", _plan_twirl,
                    "exact t-th moment twirl of a dense operator")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--group", required=True, help="invariant form: sp or o")
    p.add_argument("--input", required=True, help=".npy dense operator, shape (d^t, d^t)")
    p.add_argument("--out", help="write the coefficient JSON here")

    p = _subcommand(sub, "gram", _plan_gram,
                    "diagram Gram matrix and its (pseudo)inverse")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--group", required=True, help="invariant form: sp or o")

    p = _subcommand(sub, "simulate", _plan_simulate,
                    "apply a CircuitSpec JSON to a basis state")
    p.add_argument("--circuit", required=True, help="CircuitSpec JSON path")
    p.add_argument("--state", type=int, default=0, help="initial basis index")
    p.add_argument("--out", help="output .npy amplitudes")

    p = _subcommand(sub, "gp", partial(_plan_gp, report=_gp_values_csv),
                    "Gaussian-process samples to CSV", stochastic=True)
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="CSV path")

    p = _subcommand(sub, "gp-summary", partial(_plan_gp, report=_gp_summary_payload),
                    "GP summary statistics as JSON", stochastic=True)
    p.add_argument("--threads", type=_int_at_least(1), default=1,
                   help="no effect: sampling runs in one thread. Parsed (K >= 1) and "
                        "echoed until the benchmark stops passing it")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the JSON here instead of inline")

    p = _subcommand(sub, "concentration", _plan_concentration,
                    "tail probabilities vs bounds", stochastic=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--thresholds", required=True, help="comma-separated c values")
    p.add_argument("--state", default="basis", choices=["basis", "pair"])
    p.add_argument("--observable", help="Pauli label; default Y on qubit 2")

    p = _subcommand(sub, "anticoncentration", _plan_anticoncentration,
                    "Pr(p >= alpha/d) vs the floor", stochastic=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p.add_argument("--x", type=int, default=0, help="bitstring index")

    p = _subcommand(sub, "anticoncentration-depth", _plan_depth,
                    "layers to anti-concentrate vs n (CSV + log fit)")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--max-layers", type=int, default=500)
    p.add_argument("--out", required=True, help="CSV path")

    p = _subcommand(sub, "collision", _plan_collision,
                    "propagated collision probability z")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        try:
            added, info, run = args.plan(args)
        except DomainError:
            raise
        except (OSError, ValueError, OverflowError, RecursionError) as e:  # a malformed input
            raise DomainError(f"{type(e).__name__}: {e}") from e
        try:
            payload = {"validated": True, **info, "dry_run": True} if args.dry_run else run()
        except OSError as e:  # an output that cannot be written
            raise DomainError(f"{type(e).__name__}: {e}") from e
        config = {key: value for key, value in vars(args).items()
                  if key not in ("command", "plan", "dry_run")}
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": {**config, **added},
            "build_id": _build_id(),
            "wall_clock_s": round(time.monotonic() - started, 6),
            "payload": payload,
        }
        json.dump(envelope, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 2


def entry() -> int:
    """main() in a process of its own, then gc.freeze() to spare the collections at
    exit; not inside main(), where it would keep an in-process caller's cycles alive."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
