#!/usr/bin/env python3
"""Flat profile from a sampleprof output file.

    python3 tools/sampleprof/report.py PROFILE [--top N] [--lines FUNC]

PROFILE is what libsampleprof.so wrote at exit: the process's
/proc/self/maps and each sampled program counter with its count. Each
PC is mapped to its object file and symbolized with `nm` (the dynamic
symbol table for stripped libraries such as libm); the report prints
the share of samples by function and by shared object. --lines FUNC
adds a by-line breakdown, through `addr2line`, of the functions whose
demangled name contains FUNC (the binary needs debug info, e.g. a
RelWithDebInfo build).
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys


class Mapping:
    def __init__(self, start, end, offset, path):
        self.start = start
        self.end = end
        self.offset = offset
        self.path = path


def parse(path):
    """Return (header, mappings, [(pc, count)])."""
    header, maps, pcs = "", [], []
    section = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header = line
            elif line in ("maps", "pcs"):
                section = line
            elif section == "maps":
                fields = line.split(None, 5)
                if len(fields) < 5:
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5] if len(fields) == 6 else ""
                maps.append(Mapping(lo, hi, int(fields[2], 16), name))
            elif section == "pcs" and line:
                pc, count = line.split()
                pcs.append((int(pc, 16), int(count)))
    maps.sort(key=lambda m: m.start)
    return header, maps, pcs


def is_shared_object(path):
    """True for ET_DYN (PIE or .so), whose addresses are load-relative."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(18)
    except OSError:
        return True
    if len(head) < 18 or head[:4] != b"\x7fELF":
        return True
    little = head[5] == 1
    e_type = int.from_bytes(head[16:18], "little" if little else "big")
    return e_type == 3


class SymbolTable:
    """Function symbols of one object file, sorted by address."""

    def __init__(self, path):
        self.addrs, self.ends, self.names = [], [], []
        rows = self._nm(path, []) or self._nm(path, ["-D"])
        rows.sort()
        for i, (addr, size, name) in enumerate(rows):
            # A symbol without a size ends where the next one starts.
            if not size:
                nxt = rows[i + 1][0] if i + 1 < len(rows) else 1 << 64
                size = nxt - addr
            self.addrs.append(addr)
            self.ends.append(addr + size)
            self.names.append(name)

    @staticmethod
    def _nm(path, extra):
        cmd = ["nm", "-C", "-S", "--defined-only"] + extra + [path]
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 check=False).stdout
        except OSError:
            return []
        # "<addr> [<size>] <type> <name>"; demangled names hold spaces.
        rows = []
        for line in out.splitlines():
            fields = line.split(None, 2)
            if len(fields) < 3:
                continue
            if len(fields[1]) == 1:
                size, (kind, name) = "0", fields[1:]
            else:
                size = fields[1]
                kind, _, name = fields[2].partition(" ")
            if kind in ("T", "t", "W", "w", "i"):
                rows.append((int(fields[0], 16), int(size, 16), name))
        return rows

    def lookup(self, addr):
        i = bisect.bisect_right(self.addrs, addr) - 1
        if i >= 0 and addr < self.ends[i]:
            return self.names[i]
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=40,
                    help="functions to list (default 40)")
    ap.add_argument("--lines", metavar="FUNC",
                    help="also break FUNC down by source line")
    args = ap.parse_args()

    header, maps, pcs = parse(args.profile)
    starts = [m.start for m in maps]
    # PIE executables and shared objects load at a bias: the start of
    # their first mapping minus its file offset.
    bias = {}
    for m in maps:
        if m.path and not m.path.startswith("[") and m.path not in bias:
            shared = is_shared_object(m.path)
            bias[m.path] = m.start - m.offset if shared else 0
    tables = {}

    by_func = collections.Counter()
    by_object = collections.Counter()
    line_pcs = collections.defaultdict(collections.Counter)
    total = 0
    for pc, count in pcs:
        total += count
        i = bisect.bisect_right(starts, pc) - 1
        m = maps[i] if i >= 0 and pc < maps[i].end else None
        if m is None or not m.path or m.path.startswith("["):
            obj = m.path if m and m.path else "[anon]"
            by_object[obj] += count
            by_func[obj] += count
            continue
        obj = os.path.basename(m.path)
        by_object[obj] += count
        addr = pc - bias[m.path]
        if m.path not in tables:
            tables[m.path] = SymbolTable(m.path)
        # Local functions of a stripped library have no symbol left.
        name = tables[m.path].lookup(addr) or "[%s, unnamed]" % obj
        by_func[name] += count
        if args.lines and args.lines in name:
            line_pcs[m.path][addr] += count

    if total == 0:
        print("no samples in %s" % args.profile)
        return 1
    print(header)
    print("%d samples" % total)
    print("\nby shared object:")
    for obj, count in by_object.most_common():
        print("  %6.2f%%  %8d  %s" % (100.0 * count / total, count, obj))
    print("\nby function (top %d):" % args.top)
    for name, count in by_func.most_common(args.top):
        print("  %6.2f%%  %8d  %s" % (100.0 * count / total, count, name))

    if args.lines:
        by_line = collections.Counter()
        for path, counts in line_pcs.items():
            addrs = sorted(counts)
            out = subprocess.run(
                ["addr2line", "-e", path] + ["%x" % a for a in addrs],
                capture_output=True, text=True, check=False).stdout
            for addr, where in zip(addrs, out.splitlines()):
                by_line[where] += counts[addr]
        print("\nby line in functions matching %r:" % args.lines)
        for where, count in by_line.most_common():
            print("  %6.2f%%  %8d  %s" % (100.0 * count / total, count,
                                          where))
    return 0


if __name__ == "__main__":
    sys.exit(main())
