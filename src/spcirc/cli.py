"""Command-line interface: every experiment behind one entry point.

Exit codes: 0 success, 1 domain/config error (with usage), 2 capacity error.
Stochastic subcommands require --seed; identical config + seed reproduce
byte-identical CSV/NPY payloads. Every subcommand accepts --dry-run, which
validates the configuration (including reading any input files) without
computing; for the sampling subcommands it makes every domain and capacity
check the real run makes, so both exit alike. Results are wrapped in a JSON
envelope on stdout: the echoed config, a build id, wall-clock seconds, and
the payload (inline JSON or the path of the file written).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__, brauer, circuit, gp_stats, lie_closure, moment
from .errors import CapacityError, DomainError
from .pauli import PauliString
from .sampler import RngStream, sample_orthogonal, sample_sp, sample_unitary

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad arguments as DomainError (exit 1)."""

    def error(self, message):
        raise DomainError(f"{message}\n{self.format_usage()}")


def _build_id() -> str:
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here, capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"spcirc-{__version__}"


def _envelope(command: str, config: dict, payload, started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "build_id": _build_id(),
        "wall_clock_s": round(time.monotonic() - started, 6),
        "payload": payload,
    }


def _matrix(a: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.atleast_2d(a)]


def _vector(a: np.ndarray) -> list:
    return [float(x) for x in np.atleast_1d(a)]


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _fmt(x: float) -> str:
    return "%.17g" % x


def _float_list(text: str, what: str) -> list:
    try:
        values = [float(x) for x in text.split(",") if x]
    except ValueError as e:
        raise DomainError(f"bad {what} list {text!r}: {e}") from e
    if not values:
        raise DomainError(f"empty {what} list")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, config_echo)

def _cmd_closure(args):
    config = {"set": args.set, "n": args.n, "max_dim": args.max_dim}
    if args.set == "custom":
        if not args.generators:
            raise DomainError("--set custom needs --generators FILE")
        labels = json.loads(Path(args.generators).read_text())
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise DomainError("generators file must be a JSON list of Pauli labels")
        config["generators"] = labels
        gens = lie_closure.GeneratorSet(
            args.n, tuple(PauliString.from_label(s) for s in labels), "custom"
        )
    elif args.set == "theorem1":
        gens = lie_closure.theorem1_generators(args.n)
    elif args.set == "prop2":
        gens = lie_closure.prop2_generators(args.n)
    elif args.set == "so-chain":
        gens = lie_closure.so_chain_generators(args.n)
    else:
        raise DomainError(f"unknown generator set {args.set!r}")
    if args.dry_run:
        return {"validated": True}, config
    res = lie_closure.closure(gens, max_dim=args.max_dim)
    payload = {
        "dimension": res.dimension,
        "classification": res.classification,
        "basis_count": len(res.basis),
        "iterations": res.iterations,
    }
    return payload, config


_SAMPLERS = {
    "sp": lambda d, g: sample_sp(d, g),
    "o": lambda d, g: sample_orthogonal(d, g).astype(complex),
    "so": lambda d, g: sample_orthogonal(d, g, special=True).astype(complex),
    "u": lambda d, g: sample_unitary(d, g),
}


def _cmd_sample(args):
    config = {"group": args.group, "d": args.d, "count": args.count,
              "seed": args.seed, "out": args.out}
    if args.count < 1:
        raise DomainError(f"count must be positive, got {args.count}")
    if args.group == "sp" and args.d % 2:
        raise DomainError(f"symplectic dimension must be even, got {args.d}")
    if args.d < 1:
        raise DomainError(f"dimension must be positive, got {args.d}")
    if args.dry_run:
        return {"validated": True}, config
    gen = RngStream(args.seed, "sample").generator()
    draw = _SAMPLERS[args.group]
    out = np.empty((args.count, args.d, args.d), dtype=complex)
    for k in range(args.count):
        out[k] = draw(args.d, gen)
    np.save(args.out, out)
    return {"path": args.out + ("" if args.out.endswith(".npy") else ".npy"),
            "shape": list(out.shape), "dtype": "complex128"}, config


def _cmd_twirl(args):
    config = {"t": args.t, "d": args.d, "group": args.group,
              "input": args.input, "out": args.out}
    x = np.load(args.input)
    dim = args.d**args.t
    if x.shape != (dim, dim):
        raise DomainError(f"input shape {x.shape} != {(dim, dim)}")
    if args.dry_run:
        return {"validated": True}, config
    res = brauer.twirl(x.astype(complex), args.t, args.d, args.group)
    coeff = {
        str(sig): [c.real, c.imag] for sig, c in res.coefficients.items()
    }
    payload = {"coefficients": coeff, "residual": res.residual,
               "diagram_order": [str(s) for s in res.diagrams]}
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        return {"path": args.out}, config
    return payload, config


def _cmd_gram(args):
    config = {"t": args.t, "d": args.d, "group": args.group}
    if args.dry_run:
        return {"validated": True}, config
    g = brauer.gram(args.t, args.d, "sp" if args.group == "sp" else "o")
    payload = {
        "diagrams": [str(s) for s in g.diagrams],
        "entries": _matrix(g.entries),
        "pseudo_inverse": g.pseudo,
        "delta": g.delta,
        "inverse": _matrix(g.inverse()),
    }
    return payload, config


def _cmd_simulate(args):
    config = {"circuit": args.circuit, "state": args.state, "out": args.out}
    circ = circuit.circuit_from_json(Path(args.circuit).read_text())
    psi = circuit.initial_state(circ.n, args.state)
    if args.dry_run:
        return {"validated": True, "n": circ.n, "gates": circ.gate_count()}, config
    out_state = circuit.apply(circ, psi)
    if args.out:
        np.save(args.out, out_state.amplitudes)
        return {"path": args.out + ("" if args.out.endswith(".npy") else ".npy"),
                "n": circ.n, "norm": out_state.norm()}, config
    amps = [[float(a.real), float(a.imag)] for a in out_state.amplitudes]
    return {"n": circ.n, "amplitudes": amps, "norm": out_state.norm()}, config


GP_STATE_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"const": "computational_basis"},
                "x": {"type": "integer", "minimum": 0},
            },
        },
        {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"const": "superposition_pair"},
                "flip_qubit": {"type": "integer", "minimum": 1},
            },
        },
    ]
}

GP_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "n", "observable", "states", "samples"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "n": {"type": "integer", "minimum": 2},
        "observable": {"type": "string"},
        "samples": {"type": "integer", "minimum": 20},
        "batches": {"type": "integer", "minimum": 2},
        "states": {"type": "array", "minItems": 1, "items": GP_STATE_SCHEMA},
    },
}


def _load_gp_config(path: str):
    data = json.loads(Path(path).read_text())
    try:
        jsonschema.validate(data, GP_CONFIG_SCHEMA)
    except jsonschema.ValidationError as e:
        raise DomainError(f"bad gp config: {e.message}") from e
    n = data["n"]
    observable = PauliString.from_label(data["observable"])
    gp_stats.check_gp(
        n, data["samples"], observable,
        data.get("batches", gp_stats.DEFAULT_BATCHES),
    )
    states = []
    for s in data["states"]:
        if s["kind"] == "computational_basis":
            states.append(gp_stats.StateSpec.computational_basis(n, s.get("x", 0)))
        else:
            states.append(
                gp_stats.StateSpec.superposition_pair(n, s.get("flip_qubit", 2))
            )
    return data, states, observable


def _gp_command(args, report):
    """Config echo, validation and GP run shared by ``gp`` and ``gp-summary``;
    ``report(args, summary)`` turns the finished run into the payload."""
    config = {"config": args.config, "seed": args.seed, "out": args.out,
              "threads": args.threads}
    data, states, observable = _load_gp_config(args.config)
    config["resolved"] = data
    if args.dry_run:
        return {"validated": True, "states": len(states)}, config
    summary = gp_stats.run_gp_experiment(
        states, observable, data["samples"], RngStream(args.seed, "gp"),
        batches=data.get("batches", gp_stats.DEFAULT_BATCHES),
        threads=args.threads,
    )
    return report(args, summary), config


def _gp_values_csv(args, summary):
    rows = [
        (k, j, _fmt(summary.values[k, j]))
        for k in range(summary.sample_count)
        for j in range(len(summary.state_labels))
    ]
    _write_csv(args.out, ["sample_id", "state_id", "value"], rows)
    return {"path": args.out, "rows": len(rows)}


def _gp_summary_payload(args, summary):
    payload = {
        "n": summary.n,
        "samples": summary.sample_count,
        "state_labels": list(summary.state_labels),
        "observable": summary.observable,
        "mean_vector": _vector(summary.mean_vector),
        "mean_se": _vector(summary.mean_se),
        "covariance": _matrix(summary.covariance),
        "covariance_se": _matrix(summary.covariance_se),
        "theory_name": summary.theory_name,
        "theory_covariance": _matrix(summary.theory_covariance),
        "exact_covariance": _matrix(summary.exact_covariance),
        "fourth_moment_ratio": _vector(summary.fourth_moment_ratio),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        return {"path": args.out}
    return payload


def _cmd_gp(args):
    return _gp_command(args, _gp_values_csv)


def _cmd_gp_summary(args):
    return _gp_command(args, _gp_summary_payload)


def _default_observable(n: int) -> PauliString:
    return PauliString.single(n, min(2, n), "Y")


def _cmd_concentration(args):
    config = {"n": args.n, "samples": args.samples, "seed": args.seed,
              "thresholds": args.thresholds, "state": args.state,
              "observable": args.observable, "threads": args.threads}
    thresholds = _float_list(args.thresholds, "threshold")
    obs = (PauliString.from_label(args.observable) if args.observable
           else _default_observable(args.n))
    gp_stats.check_concentration(args.n, args.samples, thresholds, obs)
    if args.state == "basis":
        state = gp_stats.StateSpec.computational_basis(args.n, 0)
    elif args.state == "pair":
        state = gp_stats.StateSpec.superposition_pair(args.n)
    else:
        raise DomainError(f"unknown state kind {args.state!r}")
    if args.dry_run:
        return {"validated": True}, config
    table = gp_stats.concentration_tail(
        state, obs, args.samples, thresholds,
        RngStream(args.seed, "concentration"), threads=args.threads,
    )
    payload = {
        "thresholds": _vector(table.thresholds),
        "empirical": _vector(table.empirical),
        "empirical_se": _vector(table.empirical_se),
        "gaussian_tail": _vector(table.gaussian),
        "bound_t2": _vector(table.bound_t2),
        "bound_t4": _vector(table.bound_t4),
        "sigma_squared": table.sigma_squared,
    }
    return payload, config


def _cmd_anticoncentration(args):
    config = {"n": args.n, "samples": args.samples, "alphas": args.alphas,
              "seed": args.seed, "x": args.x, "threads": args.threads}
    alphas = _float_list(args.alphas, "alpha")
    gp_stats.check_anticoncentration(args.n, args.samples, alphas, args.x)
    if args.dry_run:
        return {"validated": True}, config
    table = gp_stats.anticoncentration_check(
        args.n, args.samples, alphas, RngStream(args.seed, "anticoncentration"),
        x_index=args.x, threads=args.threads,
    )
    payload = {
        "n": table.n,
        "x_index": table.x_index,
        "alphas": _vector(table.alphas),
        "empirical": _vector(table.empirical),
        "empirical_se": _vector(table.empirical_se),
        "bound": _vector(table.bound),
        "z_estimate": table.z_estimate,
        "z_se": table.z_se,
        "z_haar": table.z_haar,
    }
    return payload, config


def _cmd_depth(args):
    config = {"n_min": args.n_min, "n_max": args.n_max, "epsilon": args.epsilon,
              "max_layers": args.max_layers, "out": args.out,
              "threads": args.threads}
    if args.n_min < 2 or args.n_max < args.n_min:
        raise DomainError(f"bad n range [{args.n_min}, {args.n_max}]")
    if args.dry_run:
        return {"validated": True}, config
    ns = list(range(args.n_min, args.n_max + 1))

    def sweep(n):
        return moment.depth_to_anticoncentrate(
            n, epsilon=args.epsilon, max_layers=args.max_layers
        )

    if args.threads and args.threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(sweep, ns))
    else:
        results = [sweep(n) for n in ns]
    rows = []
    for res in results:
        star = "" if res.n_l_star is None else res.n_l_star
        rows.append((res.n, star, json.dumps([round(z, 15) for z in res.z_trace])))
    _write_csv(args.out, ["n", "n_L_star", "z_trace"], rows)
    payload = {"path": args.out}
    reached = [(r.n, r.n_l_star) for r in results if r.n_l_star is not None]
    if len(reached) >= 2:
        fit = moment.fit_log_depth([x for x, _ in reached], [y for _, y in reached])
        payload["fit"] = {"a": fit.a, "b": fit.b, "r_squared": fit.r_squared}
    unreached = [r.n for r in results if r.n_l_star is None]
    if unreached:
        payload["unreached"] = unreached
    return payload, config


def _cmd_collision(args):
    config = {"n": args.n, "layers": args.layers}
    if args.layers < 0:
        raise DomainError(f"negative layer count {args.layers}")
    if args.dry_run:
        return {"validated": True}, config
    v = moment.propagate(moment.initial_label_vector(args.n), args.layers)
    payload = {
        "n": args.n,
        "layers": args.layers,
        "z": moment.collision_probability(v),
        "z_haar": moment.z_haar(args.n),
    }
    return payload, config


# ---------------------------------------------------------------------------
# parser

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p, stochastic: bool, threaded: bool = False):
    p.add_argument("--dry-run", action="store_true",
                   help="validate the configuration without computing")
    if stochastic:
        p.add_argument("--seed", type=int, required=True,
                       help="RNG seed (required: no silent entropy)")
    if threaded:
        p.add_argument("--threads", type=_positive_int,
                       default=os.cpu_count() or 1,
                       help="worker threads for the sample loop")


def build_parser() -> _Parser:
    parser = _Parser(prog="spcirc",
                     description="compact-symplectic circuit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", parents=[], help="Lie closure of a generator set")
    p.add_argument("--set", required=True,
                   choices=["theorem1", "prop2", "so-chain", "custom"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--generators", help="JSON list of Pauli labels (custom set)")
    p.add_argument("--max-dim", type=int, default=4**7)
    _add_common(p, stochastic=False)
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("sample", help="Haar samples from sp/o/so/u")
    p.add_argument("--group", required=True, choices=["sp", "o", "so", "u"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, help="output .npy path")
    _add_common(p, stochastic=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("twirl", help="exact t-th moment twirl of a dense operator")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--group", required=True, choices=["sp", "o"])
    p.add_argument("--input", required=True, help=".npy dense operator, shape (d^t, d^t)")
    p.add_argument("--out", help="write the coefficient JSON here")
    _add_common(p, stochastic=False)
    p.set_defaults(fn=_cmd_twirl)

    p = sub.add_parser("gram", help="diagram Gram matrix and its (pseudo)inverse")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--group", required=True, choices=["sp", "o"])
    _add_common(p, stochastic=False)
    p.set_defaults(fn=_cmd_gram)

    p = sub.add_parser("simulate", help="apply a CircuitSpec JSON to a basis state")
    p.add_argument("--circuit", required=True, help="CircuitSpec JSON path")
    p.add_argument("--state", type=int, default=0, help="initial basis index")
    p.add_argument("--out", help="output .npy amplitudes")
    _add_common(p, stochastic=False)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("gp", help="Gaussian-process samples to CSV")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="CSV path")
    _add_common(p, stochastic=True, threaded=True)
    p.set_defaults(fn=_cmd_gp)

    p = sub.add_parser("gp-summary", help="GP summary statistics as JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write the JSON here instead of inline")
    _add_common(p, stochastic=True, threaded=True)
    p.set_defaults(fn=_cmd_gp_summary)

    p = sub.add_parser("concentration", help="tail probabilities vs bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--thresholds", required=True, help="comma-separated c values")
    p.add_argument("--state", default="basis", choices=["basis", "pair"])
    p.add_argument("--observable", help="Pauli label; default Y on qubit 2")
    _add_common(p, stochastic=True, threaded=True)
    p.set_defaults(fn=_cmd_concentration)

    p = sub.add_parser("anticoncentration", help="Pr(p >= alpha/d) vs the floor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p.add_argument("--x", type=int, default=0, help="bitstring index")
    _add_common(p, stochastic=True, threaded=True)
    p.set_defaults(fn=_cmd_anticoncentration)

    p = sub.add_parser("anticoncentration-depth",
                       help="layers to anti-concentrate vs n (CSV + log fit)")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--max-layers", type=int, default=500)
    p.add_argument("--out", required=True, help="CSV path")
    _add_common(p, stochastic=False, threaded=True)
    p.set_defaults(fn=_cmd_depth)

    p = sub.add_parser("collision", help="propagated collision probability z")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    _add_common(p, stochastic=False)
    p.set_defaults(fn=_cmd_collision)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        payload, config = args.fn(args)
        if getattr(args, "dry_run", False) and isinstance(payload, dict):
            payload.setdefault("dry_run", True)
        envelope = _envelope(args.command, config, payload, started)
        print(json.dumps(envelope, indent=2))
        return 0
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"error: invalid JSON: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
