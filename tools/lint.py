#!/usr/bin/env python3
"""Repo-local lint rules that clang-tidy cannot express.

Dependency-free (stdlib only). Registered as the `lint_custom` ctest so it
gates every build; run it directly with:

    python3 tools/lint.py            # lint the whole tree
    python3 tools/lint.py src/a.cc   # lint specific files
    python3 tools/lint.py --self-test

Rules (see docs/STATIC_ANALYSIS.md):
  include-guard   headers use UNIMATCH_<PATH>_H_ guards (src/ prefix dropped)
  include-cc      never #include a .cc file
  naked-new       no naked new/delete outside src/tensor/ (own raw memory
                  with containers/smart pointers)
  cout            no std::cout in src/ (use util/logging.h; tools may take
                  an std::ostream&)
  raw-thread      no direct std::thread/std::jthread outside
                  util/threadpool.* (route parallelism through the pool)
  tensor-storage  no std::make_shared<std::vector<float>> in src/ outside
                  src/tensor/ (float buffers come from the pooled Storage
                  substrate; see DESIGN.md's memory-management section)
  naked-mutex     no std::mutex/std::condition_variable (or shared/
                  recursive/timed variants) in src/ outside src/util/mutex.*
                  (use the annotated um::Mutex/CondVar so -Wthread-safety
                  and the lock-rank validator see the lock)
  std-lock        no std::lock_guard/unique_lock/scoped_lock in src/ outside
                  src/util/mutex.* (hold a um::Mutex with MutexLock, or
                  explicit Lock()/Unlock() where scopes do not fit)
  quant-cast      no reinterpret_cast to float*/int8_t*/uint8_t*/uint16_t*
                  in src/ outside src/tensor/ (quantized codes and float
                  rows only convert through QuantizedMatrix — i8_row/
                  f16_row/f32_row/DequantizeRow — never by repunning the
                  bytes; the code layout is src/tensor/quant.cc's business)
  ann-search-container
                  no std::unordered_set/std::priority_queue in src/ann/
                  outside workspace.h/.cc — search-path containers belong
                  in the reusable SearchWorkspace (epoch-stamped visited
                  array, persistent heap vectors), where they are recycled
                  per thread instead of re-allocated per query; the
                  bench_batch_exec allocs/query gate depends on it.
  file-write      no fopen/fwrite/std::rename/std::ofstream/std::fstream in
                  src/, bench/ or examples/ outside src/util/file_util.cc
                  (write through WriteFileAtomic, which replaces the target
                  whole or not at all; tests/ may craft corrupt files)

Suppress a finding with a trailing `// NOLINT(<rule>): why` comment on the
offending line.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT_DIRS = ("src", "tests", "bench", "examples")

RULES = ("include-guard", "include-cc", "naked-new", "cout", "raw-thread",
         "tensor-storage", "naked-mutex", "std-lock", "quant-cast",
         "ann-search-container", "file-write")

_NOLINT_RE = re.compile(r"NOLINT\(([a-z-]+)\)")
_INCLUDE_CC_RE = re.compile(r'^\s*#\s*include\s+["<][^">]*\.cc[">]')
_NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (nothrow)` not used here
_DELETE_RE = re.compile(r"\bdelete\b(\s*\[\s*\])?")
_DELETED_FN_RE = re.compile(r"=\s*delete\b")
_COUT_RE = re.compile(r"\bstd::cout\b")
_RAW_THREAD_RE = re.compile(r"\bstd::j?thread\b(?!::)")
_SHARED_FLOAT_VEC_RE = re.compile(
    r"std::make_shared\s*<\s*std::vector\s*<\s*float\s*>\s*>")
_NAKED_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"
    r"|\bstd::condition_variable(?:_any)?\b")
_STD_LOCK_RE = re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock)\b")
_QUANT_CAST_RE = re.compile(
    r"reinterpret_cast\s*<\s*(?:const\s+)?"
    r"(?:float|(?:std::)?(?:u?int8_t|uint16_t))\s*\*\s*>")
_ANN_CONTAINER_RE = re.compile(r"\bstd::(?:unordered_set|priority_queue)\b")
_FILE_WRITE_RE = re.compile(
    r"\bstd::(?:ofstream|fstream)\b"
    r"|(?<![\w.>])(?:std::|::)?(?:fopen|fwrite|rename)\s*\(")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" ")
        i += 1
    return "".join(out)


def expected_guard(relpath):
    path = relpath[len("src/"):] if relpath.startswith("src/") else relpath
    return "UNIMATCH_" + re.sub(r"[/.\-]", "_", path).upper() + "_"


def suppressed(raw_line, rule):
    return rule in _NOLINT_RE.findall(raw_line)


def check_file(relpath, text, errors):
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    in_src = relpath.startswith("src/")
    in_tensor = relpath.startswith("src/tensor/")
    is_threadpool = relpath in ("src/util/threadpool.h",
                                "src/util/threadpool.cc")
    is_mutex_wrapper = relpath in ("src/util/mutex.h", "src/util/mutex.cc")
    in_ann_search = (relpath.startswith("src/ann/") and
                     relpath not in ("src/ann/workspace.h",
                                     "src/ann/workspace.cc"))
    writes_through_file_util = (
        relpath.startswith(("src/", "bench/", "examples/")) and
        relpath != "src/util/file_util.cc")

    def report(lineno, rule, message):
        if not suppressed(raw_lines[lineno - 1], rule):
            errors.append("%s:%d: [%s] %s" % (relpath, lineno, rule, message))

    if relpath.endswith(".h"):
        guard = expected_guard(relpath)
        ifndef_line = None
        for idx, line in enumerate(code_lines):
            m = re.match(r"\s*#\s*ifndef\s+(\S+)", line)
            if m:
                ifndef_line = idx + 1
                if m.group(1) != guard:
                    report(ifndef_line, "include-guard",
                           "include guard is %s, expected %s" %
                           (m.group(1), guard))
                else:
                    nxt = code_lines[idx + 1] if idx + 1 < len(
                        code_lines) else ""
                    if not re.match(r"\s*#\s*define\s+%s\s*$" %
                                    re.escape(guard), nxt):
                        report(ifndef_line + 1, "include-guard",
                               "#ifndef %s not followed by its #define" %
                               guard)
                break
        if ifndef_line is None:
            report(1, "include-guard",
                   "header has no include guard (expected %s)" % guard)

    for idx, line in enumerate(code_lines):
        lineno = idx + 1
        # Matched against the raw line: the stripper blanks the "..." path.
        if _INCLUDE_CC_RE.match(raw_lines[idx]):
            report(lineno, "include-cc", "never #include a .cc file")
        if writes_through_file_util and _FILE_WRITE_RE.search(line):
            report(lineno, "file-write",
                   "file write outside src/util/file_util.cc; use "
                   "WriteFileAtomic (src/util/file_util.h)")
        if in_src:
            if not in_tensor:
                if _NEW_RE.search(line):
                    report(lineno, "naked-new",
                           "naked `new` outside src/tensor/; use a "
                           "container or smart pointer")
                for m in _DELETE_RE.finditer(line):
                    if not _DELETED_FN_RE.search(line[:m.end()]):
                        report(lineno, "naked-new",
                               "naked `delete` outside src/tensor/")
                if _SHARED_FLOAT_VEC_RE.search(line):
                    report(lineno, "tensor-storage",
                           "shared_ptr<vector<float>> buffer outside "
                           "src/tensor/; use Tensor (pooled Storage)")
                if _QUANT_CAST_RE.search(line):
                    report(lineno, "quant-cast",
                           "reinterpret_cast between quantized code and "
                           "float row pointers outside src/tensor/; go "
                           "through QuantizedMatrix (i8_row/f16_row/"
                           "f32_row/DequantizeRow)")
            if _COUT_RE.search(line):
                report(lineno, "cout",
                       "std::cout in src/; log via util/logging.h or take "
                       "an std::ostream&")
            if not is_threadpool and _RAW_THREAD_RE.search(line):
                report(lineno, "raw-thread",
                       "direct std::thread outside util/threadpool.*; "
                       "use ThreadPool")
            if in_ann_search and _ANN_CONTAINER_RE.search(line):
                report(lineno, "ann-search-container",
                       "std::unordered_set/std::priority_queue in src/ann/ "
                       "outside workspace.h/.cc; reuse the SearchWorkspace "
                       "(epoch-stamped visited array, persistent heaps) "
                       "instead of per-query containers")
            if not is_mutex_wrapper:
                if _NAKED_MUTEX_RE.search(line):
                    report(lineno, "naked-mutex",
                           "naked std::mutex/condition_variable outside "
                           "src/util/mutex.*; use the annotated um::Mutex/"
                           "CondVar (src/util/mutex.h)")
                if _STD_LOCK_RE.search(line):
                    report(lineno, "std-lock",
                           "std lock adaptor on a um::Mutex loses the "
                           "thread-safety annotations; use MutexLock")
    return errors


def iter_files(paths):
    if paths:
        for p in paths:
            yield os.path.relpath(os.path.abspath(p), REPO_ROOT)
        return
    for top in LINT_DIRS:
        root_dir = os.path.join(REPO_ROOT, top)
        for dirpath, _, filenames in os.walk(root_dir):
            for name in sorted(filenames):
                if name.endswith((".cc", ".cpp", ".h")):
                    yield os.path.relpath(os.path.join(dirpath, name),
                                          REPO_ROOT)


def run(paths):
    errors = []
    count = 0
    for relpath in iter_files(paths):
        full = os.path.join(REPO_ROOT, relpath)
        relpath = relpath.replace(os.sep, "/")
        try:
            with open(full, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            errors.append("%s: unreadable: %s" % (relpath, e))
            continue
        count += 1
        check_file(relpath, text, errors)
    for e in errors:
        print(e)
    print("lint.py: %d file(s), %d error(s)" % (count, len(errors)))
    return 1 if errors else 0


def self_test():
    """Seeds one violation per rule and asserts each is caught."""
    cases = {
        "include-guard": ("src/util/bad.h", "#ifndef WRONG_H_\n"
                                            "#define WRONG_H_\n#endif\n"),
        "include-cc": ("src/a.cc", '#include "src/b.cc"\n'),
        "naked-new": ("src/nn/x.cc", "int* p = new int[3];\n"),
        "cout": ("src/train/t.cc", "void f() { std::cout << 1; }\n"),
        "raw-thread": ("src/eval/e.cc", "std::thread t([]{});\n"),
        "tensor-storage": ("src/nn/v.cc",
                           "auto b = std::make_shared<std::vector<float>>"
                           "(n);\n"),
        "naked-mutex": ("src/serving/s.cc", "std::mutex mu_;\n"),
        "std-lock": ("src/serving/s.cc", "std::unique_lock lk(mu_);\n"),
        "quant-cast": ("src/ann/q.cc",
                       "const float* row = reinterpret_cast<const float*>"
                       "(codes.data());\n"),
        "ann-search-container": ("src/ann/h.cc",
                                 "std::unordered_set<int64_t> visited;\n"),
        "file-write": ("examples/x.cpp",
                       "std::FILE* f = std::fopen(path, \"w\");\n"),
    }
    failures = []
    for rule, (path, body) in cases.items():
        errors = check_file(path, body, [])
        if not any("[%s]" % rule in e for e in errors):
            failures.append("seeded %s violation not detected in:\n%s" %
                            (rule, body))
            continue
        # A NOLINT on the reported line must suppress the finding.
        lineno = int(errors[0].split(":")[1])
        lines = body.splitlines()
        lines[lineno - 1] += "  // NOLINT(%s): ok" % rule
        if check_file(path, "\n".join(lines) + "\n", []):
            failures.append("NOLINT(%s) did not suppress" % rule)
    clean = ("src/ok.h", "#ifndef UNIMATCH_OK_H_\n#define UNIMATCH_OK_H_\n"
             "// new ideas in a comment are fine\n"
             "void F(const char* s = \"new\");\n"
             "struct S { S(const S&) = delete; };\n"
             "using Id = std::thread::id;  // type alias, not a thread\n"
             "// prefer um::Mutex over std::mutex — comment, no finding\n"
             "// reinterpret_cast<float*> in a comment is also fine\n"
             "inline void R(Log* log) { log->rename(1); }  // not std::rename\n"
             "inline const void* P(const int* p) {\n"
             "  return reinterpret_cast<const void*>(p);  // not a quant type\n"
             "}\n"
             "#endif  // UNIMATCH_OK_H_\n")
    false_positives = check_file(*clean, [])
    if false_positives:
        failures.append("false positives on clean file: %s" % false_positives)
    # The writer itself and the tests that craft corrupt files may write.
    for exempt in ("src/util/file_util.cc", "tests/util/x_test.cc"):
        if check_file(exempt, "std::rename(a, b);\nstd::ofstream o(p);\n", []):
            failures.append("file-write reported in exempt %s" % exempt)
    for f in failures:
        print("SELF-TEST FAIL: %s" % f)
    print("lint.py --self-test: %d case(s), %d failure(s)" %
          (len(cases) + 1, len(failures)))
    return 1 if failures else 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    return run([a for a in argv if not a.startswith("-")])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
