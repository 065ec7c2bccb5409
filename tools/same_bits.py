"""Same-bits check: do two source trees write the same run outputs?

    python3 tools/same_bits.py PARENT_TREE CHANGE_TREE

Runs the CLI commands below with each tree's own `src/` and `configs/`, one
tree after the other, in a temporary directory.  The first six run in the
tree:

    run   subcritical_sync.yaml (solver both)        -> sub/
    run   supercritical_blowup.yaml (solver both)    -> super/
    run   supercritical_blowup.yaml (solver both),
          record_dt=0.1, snapshots at 0, 0.25, 0.5   -> edges/
    run   nonidentical_frequencies.yaml, t_end=0.05,
          snapshots at 0 and 0.05                    -> nonid/
    sweep hysteresis_desk.yaml, k 0 -> 1.6 step 0.4,
          t_max=10                                   -> sweep/
    sweep hysteresis_desk.yaml at 40x24, k path
          0 1 2 3 1 0, refine_step=0.5, t_max=6      -> refine/

edges/ pins the edge cases of the output rule: its snapshot time 0.25 is
off the record grid but on the oracle's step grid, and both solvers stop
early on blow-up, between record times.  refine/ reaches the refinement
pass (experiments._refine_branch) on both legs; its points stop at t_max
without settling, so it pins the bytes, not a converged result.

The last three run in the tree's output root, on restart.yaml, a config
written there that restarts the sub/ run from its eulerian snapshot at t=1
(init_table, a path relative to the config file, which the manifests
record joined to the config's directory as given: restart.yaml is named
relative to the root, so both record it alike), each with its stdout saved to <name>.stdout:

    run      restart.yaml                           -> restart/
    classify restart.yaml
    compare  sub/eulerian sub/lagrangian

then compares the two sets of outputs: every CSV, .npz snapshot and stdout
file by relative path and by bytes, and every manifest.json as JSON without
its `wall_time_s` (10 CSVs, 18 snapshots, 3 stdout files and 10 manifests
on the shipped configs).  Prints each difference, a CSV or stdout file's
with its first differing line on both sides, each cut to 120 characters,
and a summary; exits 0 when nothing differs, 1 otherwise, and 2 when a
command fails or a tree lacks src/kurahydro/__init__.py or configs/
(checked before anything runs, so an installed kurahydro cannot stand in
for a tree's missing package).
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import tempfile

COMMANDS = {
    "sub": ["run", "--config", "configs/subcritical_sync.yaml", "--set", "solver=both"],
    "super": [
        "run", "--config", "configs/supercritical_blowup.yaml", "--set", "solver=both",
    ],
    "edges": [
        "run", "--config", "configs/supercritical_blowup.yaml", "--set", "solver=both",
        "--set", "record_dt=0.1", "--set", "snapshot_times=[0, 0.25, 0.5]",
    ],
    "nonid": [
        "run", "--config", "configs/nonidentical_frequencies.yaml",
        "--set", "t_end=0.05", "--set", "snapshot_times=[0, 0.05]",
    ],
    "sweep": [
        "sweep", "--config", "configs/hysteresis_desk.yaml",
        "--set", "sweep.k_max=1.6",
        "--set", "sweep.k_step=0.4", "--set", "sweep.t_max=10",
    ],
    "refine": [
        "sweep", "--config", "configs/hysteresis_desk.yaml",
        "--set", "n_theta=40", "--set", "n_omega=24",
        "--set", "sweep.k_path=[0, 1, 2, 3, 1, 0]", "--set", "sweep.steady_window=0.5",
        "--set", "sweep.t_max=6", "--set", "sweep.refine_step=0.5",
    ],
}

RESTART_YAML = """\
m: 0.5
K: 0.1
n_theta: 1000
g: dirac
init_table: sub/eulerian/snapshots/t=1.npz
t_end: 0.5
solver: eulerian
"""

# Outputs whose difference shows the first differing line, LINE_CHARS at most
TEXT_SUFFIXES = (".csv", ".stdout")
LINE_CHARS = 120

# What a tree must hold for its commands to run its own code and configs.
TREE_FILES = ("src/kurahydro/__init__.py", "configs")

# Run in the output root once COMMANDS have run; stdout goes to <name>.stdout.
ROOT_COMMANDS = {
    "restart": ["run", "--config", "restart.yaml", "--out", "restart"],
    "classify": ["classify", "--config", "restart.yaml"],
    "compare": ["compare", "sub/eulerian", "sub/lagrangian"],
}


def run_tree(tree, out_root):
    """Run every command with tree's src/ and configs/, writing under out_root."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))

    def cli(args, cwd, stdout):
        print(f"[{tree}] {' '.join(args)}", flush=True)
        argv = [sys.executable, "-m", "kurahydro.cli", *args]
        subprocess.run(argv, cwd=cwd, env=env, check=True, stdout=stdout)

    for name, args in COMMANDS.items():
        cli([*args, "--out", os.path.join(out_root, name)], tree, subprocess.DEVNULL)
    with open(os.path.join(out_root, "restart.yaml"), "w") as fh:
        fh.write(RESTART_YAML)
    for name, args in ROOT_COMMANDS.items():
        with open(os.path.join(out_root, name + ".stdout"), "w") as out:
            cli(args, out_root, out)


def outputs(root, suffix):
    """Relative paths of the files under root whose names end in suffix."""
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(suffix):
                found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read_manifest(path):
    with open(path) as fh:
        data = json.load(fh)
    data.pop("wall_time_s", None)
    return data


def first_differing_line(data_a, data_b):
    """The number of the first line that differs between two unequal texts,
    and that line on each side ("end of file" past a side's last line)."""
    # surrogateescape keeps every byte, so unequal texts have unequal lines
    lines_a, lines_b = (
        data.decode("utf-8", "surrogateescape").splitlines(keepends=True)
        for data in (data_a, data_b)
    )
    pairs = itertools.zip_longest(lines_a, lines_b)
    number, (line_a, line_b) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
    shown_a, shown_b = (
        "end of file" if line is None else repr(line[:LINE_CHARS]) for line in (line_a, line_b)
    )
    return f"  first at line {number}:\n    parent: {shown_a}\n    change: {shown_b}"


def compare(root_a, root_b):
    """One entry naming each difference between two output trees, a text
    file's with its first differing line; prints a count of the equal files
    of each kind."""
    lines = []
    for suffix, read, what, kind in (
        (".csv", _read_bytes, "bytes differ", "CSVs"),
        (".npz", _read_bytes, "bytes differ", "snapshots"),
        (".stdout", _read_bytes, "bytes differ", "stdout files"),
        ("manifest.json", _read_manifest, "differs beyond wall_time_s", "manifests"),
    ):
        names_a, names_b = outputs(root_a, suffix), outputs(root_b, suffix)
        lines += [f"only in parent: {n}" for n in sorted(names_a - names_b)]
        lines += [f"only in change: {n}" for n in sorted(names_b - names_a)]
        shared = sorted(names_a & names_b)
        same = 0
        for name in shared:
            data_a, data_b = (read(os.path.join(root, name)) for root in (root_a, root_b))
            if data_a == data_b:
                same += 1
            elif suffix in TEXT_SUFFIXES:
                lines.append(f"{what}: {name}\n{first_differing_line(data_a, data_b)}")
            else:
                lines.append(f"{what}: {name}")
        print(f"{kind}: {len(names_a)} in parent, {len(names_b)} in change, "
              f"{same} of {len(shared)} shared equal")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [os.path.abspath(tree) for tree in argv]
    for tree in trees:
        missing = [need for need in TREE_FILES if not os.path.exists(os.path.join(tree, need))]
        if missing:
            print(f"{tree}: not a source tree, no {' or '.join(missing)}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same_bits_") as tmp:
        roots = [os.path.join(tmp, side) for side in ("parent", "change")]
        try:
            for tree, root in zip(trees, roots):
                run_tree(tree, root)
        except subprocess.CalledProcessError as err:
            print(f"failed ({err.returncode}): {' '.join(err.cmd)}", file=sys.stderr)
            return 2
        diffs = compare(*roots)
    for line in diffs:
        print(line)
    print("same bits" if not diffs else f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
