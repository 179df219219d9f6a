#!/usr/bin/env python3
"""Repo-specific security lints for the ObfusMem simulator.

Eight rules, each encoding an invariant the generic toolchain cannot
know about:

  weak-rng        rand()/std::rand() anywhere outside src/util/random:
                  the simulator's reproducibility and the crypto layer
                  both depend on the seeded Xoshiro PRNG.
  non-ct-compare  ==/!= on MAC or digest values in src/: verification
                  must go through crypto::ctEqual so a mismatch costs
                  the same time regardless of the first differing byte.
  ct-compare      memcmp()/strcmp()/strncmp() inside src/crypto/,
                  src/secure/ or src/obfusmem/ (outside bytes.hh,
                  where ctEqual itself lives): libc comparisons bail
                  out at the first differing byte, so anything they
                  touch in the crypto stack is a timing oracle. The
                  secret-flow analyzer (tools/analysis) catches the
                  tainted subset of these; this rule bans the whole
                  pattern in the stack regardless of taint.
  key-scrub       a file that memcpy()s key material must also call
                  secureZero(): key bytes must not outlive their use on
                  the stack or heap.
  include-guard   headers guard with OBFUSMEM_<PATH>_HH derived from
                  the path, so guards can never collide.
  packet-capture  a lambda in src/ that captures a MemPacket by value:
                  packets are ~176 bytes with their data block, and the
                  hot path moves them through pooled storage — a plain
                  `pkt` capture silently reintroduces a copy (and a
                  heap allocation) per hop. Capture with std::move, by
                  reference, or carry a PacketPool handle.
  aes-dispatch    a direct Aes128 object, or a raw MD5 lane-kernel
                  call, in src/ outside src/crypto/: raw block-cipher
                  use bypasses the runtime AES implementation dispatch
                  (vaes/aesni/ttable/reference) and the counter-mode
                  pad plumbing that the wire endpoints and the trace
                  auditor's pad ledgers hang off, and a direct
                  md5Lanes*Compress* call skips the latched width
                  dispatch. Consume AesCtr / md5ShortBatch instead;
                  nested types (Aes128::Key) stay fine.
  wire-shape      an assignment to a WireMessage field (cipherHeader,
                  hasData, cipherData, hasMac, mac) in src/ outside
                  src/obfusmem/wire_format.*: every frame on the
                  channel — including recovery retransmits and the
                  re-key control handshake — must be built through
                  makeHeaderMessage / makeDataMessage / attachMac so
                  a hand-rolled frame can never differ in shape from
                  normal traffic and leak through the obliviousness
                  argument.

Exit status is the number of findings (0 == clean). Run from anywhere;
paths resolve relative to the repo root. `--self-test` checks the
rules still catch known-bad exemplars (including the pre-ctEqual
MacEngine::verify pattern).
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

SOURCE_GLOBS = ("src/**/*.cc", "src/**/*.hh", "tests/*.cc",
                "bench/*.cc", "examples/*.cc")

RAND_RE = re.compile(r"\b(?:std::)?rand\s*\(\s*\)")
RAND_ALLOWED = ("src/util/random",)

# An ==/!= where one operand looks like MAC/digest material. The
# whitelist below keeps counters and statistics (macVerifyFailures,
# digestCount, ...) out of scope: those end in a quantity word.
CT_COMPARE_RE = re.compile(
    r"[=!]=\s*[\w.:>-]*(?:mac|digest)\b[\w.()]*"
    r"|[\w.:>-]*\b(?:mac|digest)\b[\w.()]*\s*[=!]=",
    re.IGNORECASE)
CT_QUANTITY_RE = re.compile(
    r"(?:mac|digest)\w*(?:count|fail|failures|errors|bytes|size|len|"
    r"latency|hex|name|mode|kind)", re.IGNORECASE)

MEMCPY_KEY_RE = re.compile(r"memcpy\s*\([^;]*\bkey\w*\b", re.IGNORECASE)

# A variable-time libc comparison call. `\b` plus the lookbehind keeps
# ctEqual-style wrappers (whose *names* merely contain "cmp") and
# member calls like ledger.memcmpCount out of scope.
LIBC_CMP_RE = re.compile(r"(?<![\w.>])(?:std\s*::\s*)?"
                         r"(memcmp|strcmp|strncmp|strcasecmp|"
                         r"strncasecmp|bcmp)\s*\(")
CT_COMPARE_SCOPE = ("src/crypto/", "src/secure/", "src/obfusmem/")
CT_COMPARE_ALLOWED = ("src/crypto/bytes.hh", "src/crypto/bytes.cc")

GUARD_RE = re.compile(r"^#ifndef\s+(\w+)", re.MULTILINE)

# A lambda capture list (multi-line tolerated) followed by a parameter
# list, body, or `mutable`. The trailing context keeps array indexing
# (`queue[i] = x`) out of scope.
LAMBDA_CAPTURE_RE = re.compile(r"\[([^\[\]]*)\]\s*(?:\(|\{|mutable\b)")
PKT_NAME_RE = re.compile(r"\b\w*pkt\w*\b", re.IGNORECASE)

# `Aes128` as the raw cipher type (constructed, declared, or passed),
# as opposed to a nested type like Aes128::Key / Aes128::RoundKeys.
AES_DIRECT_RE = re.compile(r"\b(?:crypto\s*::\s*)?Aes128\b(?!\s*::)")
# A raw lane-kernel entry point (md5LanesAvx2Compress8,
# md5LanesAvx512Compress16x2, ...) outside the dispatch's home TU.
LANE_KERNEL_RE = re.compile(r"\bmd5Lanes\w*Compress\w*\s*\(")
AES_ALLOWED = ("src/crypto/",)
COMMENT_RE = re.compile(r"^\s*(?://|\*|/\*)")

# A plain assignment to a WireMessage field. The negative lookahead
# keeps comparisons (==) out; compound operators (^=, |=) never match
# because the field name must be followed directly by `=`.
WIRE_SHAPE_RE = re.compile(
    r"\.(cipherHeader|hasData|cipherData|hasMac|mac)\s*=(?!=)")
WIRE_SHAPE_ALLOWED = ("src/obfusmem/wire_format.",)


def finding(path, line_no, rule, message):
    rel = path if isinstance(path, str) else path.relative_to(REPO_ROOT)
    return f"{rel}:{line_no}: [{rule}] {message}"


def lint_weak_rng(rel, lines):
    if any(rel.startswith(p) for p in RAND_ALLOWED):
        return
    for no, line in lines:
        if RAND_RE.search(line):
            yield no, "weak-rng", \
                "rand() is forbidden; use util/random.hh (Xoshiro256)"


def lint_ct_compare(rel, lines):
    if not rel.startswith("src/"):
        return  # tests/bench may compare digests directly
    for no, line in lines:
        m = CT_COMPARE_RE.search(line)
        if not m:
            continue
        if "ctEqual" in line or CT_QUANTITY_RE.search(m.group(0)):
            continue
        yield no, "non-ct-compare", \
            "compare MAC/digest values with crypto::ctEqual, " \
            "not ==/!= (timing side channel)"


def lint_libc_compare(rel, lines):
    if not any(rel.startswith(p) for p in CT_COMPARE_SCOPE):
        return
    if rel in CT_COMPARE_ALLOWED:
        return  # ctEqual's own home may build on byte primitives
    for no, line in lines:
        if COMMENT_RE.match(line):
            continue
        m = LIBC_CMP_RE.search(line)
        if m:
            yield no, "ct-compare", \
                f"{m.group(1)}() bails out at the first differing " \
                "byte; in the crypto/secure/obfusmem stack compare " \
                "with crypto::ctEqual"


def lint_key_scrub(rel, lines, text):
    if not rel.startswith("src/"):
        return
    if "secureZero" in text:
        return
    for no, line in lines:
        if MEMCPY_KEY_RE.search(line):
            yield no, "key-scrub", \
                "file copies key material but never calls " \
                "crypto::secureZero on it"


def expected_guard(rel):
    stem = rel[len("src/"):]
    return "OBFUSMEM_" + re.sub(r"[/.]", "_", stem).upper()


def lint_include_guard(rel, text):
    if not (rel.startswith("src/") and rel.endswith(".hh")):
        return
    m = GUARD_RE.search(text)
    want = expected_guard(rel)
    if not m:
        yield 1, "include-guard", f"missing include guard {want}"
    elif m.group(1) != want:
        yield GUARD_RE.search(text).string[:m.start()].count("\n") + 1, \
            "include-guard", \
            f"guard {m.group(1)} should be {want}"


def split_captures(capture_list):
    """Split a capture list on top-level commas (paren/brace aware)."""
    items, depth, cur = [], 0, []
    for ch in capture_list:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    items.append("".join(cur))
    return items


def lint_packet_capture(rel, text):
    if not rel.startswith("src/"):
        return  # tests may copy packets to compare against
    all_lines = text.splitlines()
    for m in LAMBDA_CAPTURE_RE.finditer(text):
        line_no = text[:m.start()].count("\n") + 1
        if "NOLINT" in all_lines[line_no - 1]:
            continue
        for item in split_captures(m.group(1)):
            item = item.strip()
            if not item or item.startswith("&"):
                continue  # reference captures don't copy
            if "std::move" in item or not PKT_NAME_RE.search(item):
                continue
            yield line_no, "packet-capture", \
                f"by-value MemPacket capture `{item}` copies ~176 " \
                "bytes per hop; capture with std::move, by reference, " \
                "or carry a PacketPool handle"


def lint_aes_dispatch(rel, lines):
    if not rel.startswith("src/"):
        return  # tests/bench exercise the raw cipher on purpose
    if any(rel.startswith(p) for p in AES_ALLOWED):
        return
    for no, line in lines:
        if COMMENT_RE.match(line):
            continue
        if AES_DIRECT_RE.search(line):
            yield no, "aes-dispatch", \
                "direct Aes128 use outside src/crypto/ bypasses the " \
                "runtime AES dispatch and counter-mode pad plumbing; go " \
                "through crypto::AesCtr (nested types like " \
                "Aes128::Key are fine)"
        if LANE_KERNEL_RE.search(line):
            yield no, "aes-dispatch", \
                "direct MD5 lane-kernel call outside src/crypto/ " \
                "bypasses the latched width dispatch (and its " \
                "CPU/build availability checks); go through " \
                "crypto::md5ShortBatch"


def lint_wire_shape(rel, lines):
    if not rel.startswith("src/"):
        return  # tests corrupt and hand-build frames on purpose
    if any(rel.startswith(p) for p in WIRE_SHAPE_ALLOWED):
        return  # the builders' home
    for no, line in lines:
        if COMMENT_RE.match(line):
            continue
        m = WIRE_SHAPE_RE.search(line)
        if m:
            yield no, "wire-shape", \
                f"direct assignment to WireMessage field " \
                f"`{m.group(1)}`; build frames through " \
                "makeHeaderMessage/makeDataMessage/attachMac so " \
                "recovery and control traffic keep the exact shape " \
                "of normal traffic"


def lint_text(rel, text):
    """All findings for one file's contents (testable entry point)."""
    lines = [(i + 1, l) for i, l in enumerate(text.splitlines())
             if "NOLINT" not in l]
    out = []
    out.extend(lint_weak_rng(rel, lines))
    out.extend(lint_ct_compare(rel, lines))
    out.extend(lint_libc_compare(rel, lines))
    out.extend(lint_key_scrub(rel, lines, text))
    out.extend(lint_include_guard(rel, text))
    out.extend(lint_packet_capture(rel, text))
    out.extend(lint_aes_dispatch(rel, lines))
    out.extend(lint_wire_shape(rel, lines))
    return out


def run(paths):
    findings = []
    for path in paths:
        rel = path.relative_to(REPO_ROOT).as_posix()
        text = path.read_text(encoding="utf-8", errors="replace")
        for no, rule, msg in lint_text(rel, text):
            findings.append(finding(path, no, rule, msg))
    return findings


SELF_TEST_CASES = [
    # The pre-ctEqual MacEngine::verify body must be flagged.
    ("src/obfusmem/mac_engine.cc",
     "    return compute(hdr, counter) == mac;\n",
     "non-ct-compare"),
    ("src/secure/merkle.cc",
     "    if (computed != node.digest) return false;\n",
     "non-ct-compare"),
    ("src/cpu/core.cc",
     "    int r = std::rand();\n",
     "weak-rng"),
    # libc comparisons anywhere in the crypto stack are a timing
    # oracle, tainted or not.
    ("src/crypto/hmac.cc",
     "    return std::memcmp(a.data(), b.data(), a.size()) == 0;\n",
     "ct-compare"),
    ("src/obfusmem/mac_engine.cc",
     "    if (memcmp(&mac, &expected, sizeof(mac)) != 0)\n",
     "ct-compare"),
    ("src/secure/merkle.cc",
     "    ok = strncmp(label, node.label, 8) == 0;\n",
     "ct-compare"),
    ("src/crypto/aes.cc",
     "    std::memcpy(round_keys, key.data(), 16);\n",
     "key-scrub"),
    ("src/check/trace_auditor.hh",
     "#ifndef TRACE_AUDITOR_H\n#define TRACE_AUDITOR_H\n",
     "include-guard"),
    # The pre-rewrite PlainPath closure chain: a plain `pkt` in a
    # capture list copies the packet once per hop.
    ("src/obfusmem/plain_path.cc",
     "    bus->send(BusDir::ToMemory, 0, pkt.addr, false,\n"
     "        [this, channel, pkt, cb = std::move(cb)]() mutable {\n"
     "            pcm->access(std::move(pkt), std::move(cb));\n"
     "        });\n",
     "packet-capture"),
    ("src/mem/pcm_controller.cc",
     "    scheduleAfter(t, [cb, resp = pkt]() mutable "
     "{ cb(std::move(resp)); });\n",
     "packet-capture"),
    # An early EncryptionEngine held the block cipher raw.
    ("src/secure/encryption_engine.hh",
     "    crypto::Aes128 aes;\n",
     "aes-dispatch"),
    ("src/obfusmem/mem_side.cc",
     "    Aes128 cipher(session_key);\n",
     "aes-dispatch"),
    # Calling a width-specific kernel directly skips the latched
    # dispatch and its availability probing.
    ("src/obfusmem/mac_engine.cc",
     "    detail::md5LanesAvx512Compress16(words, state);\n",
     "aes-dispatch"),
    # A hand-rolled frame skips the fixed-shape builders; a recovery
    # path doing this would leak through the obliviousness argument.
    ("src/obfusmem/proc_side.cc",
     "    msg.cipherHeader = encryptHeaderWithPad(pads.header, hdr);\n",
     "wire-shape"),
    ("src/obfusmem/recovery.cc",
     "    frame.hasMac = false;\n",
     "wire-shape"),
    ("src/mem/channel_bus.cc",
     "    out.mac = computed;\n",
     "wire-shape"),
]

SELF_TEST_CLEAN = [
    ("src/obfusmem/mac_engine.cc",
     "    return crypto::ctEqual(compute(hdr, counter), mac);\n"),
    ("src/obfusmem/observer.cc",
     "    stats.macVerifyFailures == 0;\n"),
    ("tests/test_crypto_hash.cc",
     "    EXPECT_TRUE(digest == expected);\n"),
    # ctEqual's own home, the rest of src/, tests, wrapper names and
    # member accesses are out of ct-compare's scope.
    ("src/crypto/bytes.cc",
     "    return memcmp(a, b, n) == 0; // reference, not shipped\n"),
    ("src/sim/trace.cc",
     "    if (memcmp(rec, prev, sizeof rec) == 0) dedupe++;\n"),
    ("tests/test_crypto_aes.cc",
     "    EXPECT_EQ(0, memcmp(out, expected, 16));\n"),
    ("src/crypto/hmac.cc",
     "    return ctMemcmp(a, b, n);\n"),
    ("src/obfusmem/observer.cc",
     "    stats.memcmpCount++; auto v = ledger.memcmp(x);\n"),
    # Moved and reference captures, and plain array indexing, are fine.
    ("src/obfusmem/plain_path.cc",
     "    eventQueue().schedule(done,\n"
     "        [this, pkt = std::move(pkt), cb = std::move(cb)]() "
     "mutable {\n"
     "            cb(std::move(pkt));\n"
     "        });\n"),
    ("src/mem/pcm_controller.cc",
     "    inner.access(std::move(pkt),\n"
     "        [&pkt](MemPacket &&resp) { pkt = std::move(resp); });\n"),
    ("src/mem/channel_bus.cc",
     "    pktQueue[channel] = {std::move(msg)};\n"),
    # Nested types, crypto/-internal use and tests stay in scope.
    ("src/obfusmem/proc_side.cc",
     "    const std::vector<crypto::Aes128::Key> &session_keys;\n"),
    ("src/crypto/ctr_mode.cc",
     "    Aes128 aes;\n"),
    ("tests/test_crypto_aes.cc",
     "    Aes128 aes(key);\n"),
    ("src/secure/encryption_engine.cc",
     "    // pads come from Aes128 behind the AesCtr dispatch\n"),
    # The builders' home, reads, comparisons, and deliberate test
    # corruption stay out of wire-shape's scope.
    ("src/obfusmem/wire_format.cc",
     "    msg.cipherHeader = encryptHeaderWithPad(hdr_pad, hdr);\n"
     "    msg.hasData = true;\n"),
    ("src/obfusmem/mem_side.cc",
     "    if (!msg.hasData) return;\n"
     "    bool ok = crypto::ctEqual(msg.mac, expected);\n"),
    ("tests/test_recovery.cc",
     "    msg.cipherHeader[0] ^= 0x01;\n"
     "    msg.hasMac = false;\n"),
]


def self_test():
    failures = 0
    for rel, snippet, rule in SELF_TEST_CASES:
        rules = {r for _, r, _ in lint_text(rel, snippet)}
        if rule not in rules:
            print(f"self-test FAIL: {rule} not raised for {rel!r}")
            failures += 1
    for rel, snippet in SELF_TEST_CLEAN:
        hits = lint_text(rel, snippet)
        if hits:
            print(f"self-test FAIL: false positive for {rel!r}: {hits}")
            failures += 1
    print("self-test " + ("FAILED" if failures else "passed"))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules catch known-bad code")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    paths = sorted(p for g in SOURCE_GLOBS for p in REPO_ROOT.glob(g))
    findings = run(paths)
    for f in findings:
        print(f)
    print(f"repo-lint: {len(paths)} files, {len(findings)} finding(s)")
    return len(findings)


if __name__ == "__main__":
    sys.exit(main())
