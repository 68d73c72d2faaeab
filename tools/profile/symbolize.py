#!/usr/bin/env python3
"""Flat profile from a sampler.c output file: self samples per function.

usage: symbolize.py PROF_FILE... [--top N]

Several files (one per run or per process) add up into one profile.

Each sample is mapped through the recorded /proc/self/maps to its ELF file
and file offset, translated to a link-time address with the file's LOAD
segments (readelf -lW) and attributed to the nearest preceding symbol
(nm -n, falling back to nm -D for stripped libraries). OCaml symbols read
as camlModule__Sub.function_NNN.
"""
import argparse
import bisect
import collections
import subprocess


def read_prof(path):
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                section = "maps"
            elif line.startswith("# samples"):
                section = "samples"
            elif section == "maps":
                parts = line.split()
                if len(parts) >= 6 and "x" in parts[1]:
                    lo, hi = (int(x, 16) for x in parts[0].split("-"))
                    maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples" and line.strip():
                samples.append(int(line, 16))
    return sorted(maps), samples


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout


def load_segments(path):
    segs = []
    for line in run(["readelf", "-lW", path]).splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            segs.append((int(parts[1], 16), int(parts[2], 16), int(parts[4], 16)))
    return segs  # (file offset, vaddr, file size)


def symbols(path):
    # a stripped library (libc) has only its exported symbols: a sample in
    # one of its internal functions lands on the export before it, so
    # those names are marked as guesses
    for flags, mark in ((["-n", "--defined-only"], ""), (["-n", "-D", "--defined-only"], "~")):
        syms = []
        for line in run(["nm"] + flags + [path]).splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwW":
                syms.append((int(parts[0], 16), mark + parts[2]))
        if syms:
            break
    syms.sort()
    return [a for a, _ in syms], [n for _, n in syms]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("prof", nargs="+")
    ap.add_argument("--top", type=int, default=40)
    a = ap.parse_args()
    files = {}
    counts, per_file = collections.Counter(), collections.Counter()
    n_samples = 0
    for prof in a.prof:
        maps, samples = read_prof(prof)
        n_samples += len(samples)
        starts = [m[0] for m in maps]
        for pc in samples:
            i = bisect.bisect_right(starts, pc) - 1
            if i < 0 or pc >= maps[i][1] or not maps[i][3].startswith("/"):
                counts["[unknown]"] += 1
                continue
            lo, _, off, path = maps[i]
            if path not in files:
                files[path] = (load_segments(path), symbols(path))
            segs, (addrs, names) = files[path]
            foff = pc - lo + off
            vaddr = next((v + foff - o for o, v, n in segs if o <= foff < o + n), foff)
            j = bisect.bisect_right(addrs, vaddr) - 1
            name = names[j] if j >= 0 else "?"
            short = path.rsplit("/", 1)[-1]
            counts[name + "  [" + short + "]"] += 1
            per_file[short] += 1
    total = max(1, n_samples)
    print("%d samples" % n_samples)
    for short, n in per_file.most_common():
        print("%6.1f%%  %s" % (100.0 * n / total, short))
    print()
    for name, n in counts.most_common(a.top):
        print("%6.1f%% %7d  %s" % (100.0 * n / total, n, name))


if __name__ == "__main__":
    main()
