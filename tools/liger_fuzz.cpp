//===-- tools/liger_fuzz.cpp - Pipeline fuzz harness ----------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fuzzes the full source -> lex -> parse -> type check -> execute ->
/// trace -> encode pipeline with arbitrary byte input. The totality
/// contract under test (DESIGN.md §12): every stage must terminate with
/// a diagnostic or a terminal ExecStatus — never a crash, hang, stack
/// overflow, or unbounded allocation. Run under ASan/UBSan (the
/// LIGER_SANITIZE build) so violations abort loudly.
///
/// Input generators, chosen per iteration:
///   - structural: random MiniLang-shaped programs, including hostile
///     templates (deep nesting, string doubling, allocation loops,
///     unbounded recursion, loops that repeat their state);
///   - mutation: byte flips / splices / truncations of valid seeds;
///   - token soup: syntactically plausible garbage;
///   - raw bytes: arbitrary binary.
///
/// Usage:
///   liger_fuzz [--runs N] [--seed S] [--smoke] [--verbose]
///              [--replay DIR] [--require-all-statuses]
///              [--last-input FILE]
///
/// --replay runs every file in DIR (the checked-in regression corpus)
/// through the pipeline before fuzzing; --require-all-statuses then
/// demands that the corpus alone exercised every terminal ExecStatus.
///
//===----------------------------------------------------------------------===//

#include "lang/AstTree.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "testgen/TraceCollector.h"
#include "trace/Vocabulary.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace liger;

namespace {

struct FuzzStats {
  uint64_t Runs = 0;
  uint64_t LexerDiags = 0;
  uint64_t ParseRejects = 0;
  uint64_t ParseOk = 0;
  uint64_t TypeRejects = 0;
  uint64_t TypeOk = 0;
  uint64_t ExecOk = 0;
  uint64_t ExecOutOfFuel = 0;
  uint64_t ExecRuntimeError = 0;
  uint64_t ExecMemoryLimit = 0;
  uint64_t TracePaths = 0;
  uint64_t VocabTokens = 0;

  void countStatus(ExecStatus S) {
    switch (S) {
    case ExecStatus::Ok: ++ExecOk; break;
    case ExecStatus::OutOfFuel: ++ExecOutOfFuel; break;
    case ExecStatus::RuntimeError: ++ExecRuntimeError; break;
    case ExecStatus::MemoryLimit: ++ExecMemoryLimit; break;
    }
  }

  bool sawAllStatuses() const {
    return ExecOk && ExecOutOfFuel && ExecRuntimeError && ExecMemoryLimit;
  }

  void print() const {
    std::printf("runs:            %llu\n", (unsigned long long)Runs);
    std::printf("lexer diags:     %llu\n", (unsigned long long)LexerDiags);
    std::printf("parse ok/rej:    %llu / %llu\n", (unsigned long long)ParseOk,
                (unsigned long long)ParseRejects);
    std::printf("type ok/rej:     %llu / %llu\n", (unsigned long long)TypeOk,
                (unsigned long long)TypeRejects);
    std::printf("exec Ok:         %llu\n", (unsigned long long)ExecOk);
    std::printf("exec OutOfFuel:  %llu\n", (unsigned long long)ExecOutOfFuel);
    std::printf("exec RuntimeErr: %llu\n",
                (unsigned long long)ExecRuntimeError);
    std::printf("exec MemLimit:   %llu\n",
                (unsigned long long)ExecMemoryLimit);
    std::printf("trace paths:     %llu\n", (unsigned long long)TracePaths);
    std::printf("vocab tokens:    %llu\n", (unsigned long long)VocabTokens);
  }
};

//===----------------------------------------------------------------------===//
// Pipeline driver
//===----------------------------------------------------------------------===//

/// Budgets small enough that hostile programs terminate fast and every
/// terminal status is reachable within a fuzz run.
InterpOptions fuzzInterpOptions() {
  InterpOptions Opts;
  Opts.Fuel = 3000;
  Opts.MaxMemoryBytes = 1u << 20; // 1 MiB
  Opts.MaxRecordedSteps = 256;
  return Opts;
}

/// Zero-ish arguments for a function whose types may be junk (the type
/// checker was bypassed or failed): primitives get their zero value,
/// structs that are unresolvable or have a struct-typed field get ⊥ —
/// the hardened interpreter must cope.
std::vector<Value> hostileArgs(const Program &Prog, const FunctionDecl &Fn) {
  std::vector<Value> Args;
  Args.reserve(Fn.Params.size());
  for (const TypedName &Param : Fn.Params) {
    const StructDecl *SD =
        Param.Ty.isStruct() ? Prog.findStruct(Param.Ty.structName()) : nullptr;
    bool Zeroable = !Param.Ty.isStruct() ||
                    (SD && std::none_of(SD->Fields.begin(), SD->Fields.end(),
                                        [](const TypedName &Field) {
                                          return Field.Ty.isStruct();
                                        }));
    Args.push_back(Zeroable ? Value::zeroOf(Param.Ty, SD) : Value::undef());
  }
  return Args;
}

/// Encode stage: interns every static token (stmt-head tree leaves) and
/// dynamic token (state values) of the collected traces, mirroring what
/// dataset vocabulary construction does.
uint64_t encodeTraces(const MethodTraces &Traces) {
  Vocabulary Vocab;
  for (const BlendedTrace &Path : Traces.Paths) {
    for (const SymbolicStep &Step : Path.Symbolic.Steps) {
      AstTree Tree = buildStmtHeadTree(Step.Statement);
      std::vector<std::string> Leaves;
      Tree.collectLeaves(Leaves);
      for (const std::string &Leaf : Leaves)
        Vocab.add(Leaf);
    }
    for (const StateTrace &ST : Path.Concrete) {
      for (const ProgramState &State : ST.States)
        for (const Value &V : State.Values)
          for (const std::string &Tok : valueTokens(V))
            Vocab.add(Tok);
    }
  }
  return static_cast<uint64_t>(Vocab.size());
}

/// Drives one source buffer through every pipeline stage. \p DeepDive
/// additionally runs the full trace-collection pipeline (with symbolic
/// seeding) and the encode stage on type-correct programs; it is
/// enabled for a fraction of iterations because it is ~10x the cost of
/// a plain execution probe.
void drivePipeline(const std::string &Source, bool DeepDive, FuzzStats &S) {
  ++S.Runs;
  DiagnosticSink Diags;
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  S.LexerDiags += Diags.errorCount();

  Parser P(std::move(Tokens), Diags);
  Program Prog = P.parseProgram();
  if (Diags.hasErrors())
    ++S.ParseRejects;
  else
    ++S.ParseOk;

  // Type check, but keep going either way: executing un-typechecked
  // ASTs is exactly the hostile path the interpreter must survive.
  DiagnosticSink TypeDiags;
  bool Typed = !Diags.hasErrors() && typeCheck(Prog, TypeDiags);
  if (Typed)
    ++S.TypeOk;
  else
    ++S.TypeRejects;

  InterpOptions Opts = fuzzInterpOptions();
  for (const FunctionDecl &Fn : Prog.Functions) {
    ExecResult Run = execute(Prog, Fn, hostileArgs(Prog, Fn), Opts);
    S.countStatus(Run.Status);
  }

  if (Typed && DeepDive && !Prog.Functions.empty()) {
    TestGenOptions TG;
    TG.Interp = Opts;
    TG.TargetPaths = 4;
    TG.ExecutionsPerPath = 2;
    TG.MaxAttempts = 30;
    TG.MutationAttemptsPerPath = 4;
    CollectStats CS;
    MethodTraces Traces = collectTraces(Prog, Prog.Functions[0], TG, &CS);
    S.ExecOk += CS.OkRuns;
    S.ExecOutOfFuel += CS.Timeouts;
    S.ExecMemoryLimit += CS.MemoryExceeded;
    S.ExecRuntimeError += CS.Faults;
    S.TracePaths += Traces.Paths.size();
    S.VocabTokens += encodeTraces(Traces);
  }
}

//===----------------------------------------------------------------------===//
// Input generators
//===----------------------------------------------------------------------===//

const char *const Seeds[] = {
    "int add(int a, int b) { return a + b; }\n",

    "int sum(int[] a) {\n"
    "  int total = 0;\n"
    "  for (int i = 0; i < len(a); i += 1) { total += a[i]; }\n"
    "  return total;\n"
    "}\n",

    "struct Point { int x; int y; }\n"
    "int dist(Point p) { return abs(p.x) + abs(p.y); }\n",

    "string join(string a, string b) {\n"
    "  string out = a;\n"
    "  if (len(b) > 0) { out = out + \"-\" + b; }\n"
    "  return out;\n"
    "}\n",

    "bool search(int[] a, int key) {\n"
    "  int lo = 0;\n"
    "  int hi = len(a) - 1;\n"
    "  while (lo <= hi) {\n"
    "    int mid = (lo + hi) / 2;\n"
    "    if (a[mid] == key) { return true; }\n"
    "    if (a[mid] < key) { lo = mid + 1; } else { hi = mid - 1; }\n"
    "  }\n"
    "  return false;\n"
    "}\n",
};
constexpr size_t NumSeeds = sizeof(Seeds) / sizeof(Seeds[0]);

/// Hostile-by-construction programs: each aims at one resource bound.
/// The periodic loops (cases 6-9) repeat their state, which the
/// interpreter detects and skips instead of re-executing.
std::string genHostileTemplate(Rng &R) {
  switch (R.nextBelow(10)) {
  case 0: { // deep expression nesting
    size_t Depth = 50 + R.nextBelow(600);
    std::string Out = "int f(int x) { int y = ";
    Out.append(Depth, '(');
    Out += "x";
    Out.append(Depth, ')');
    Out += "; return y; }\n";
    return Out;
  }
  case 1: { // deep block nesting
    size_t Depth = 50 + R.nextBelow(600);
    std::string Out = "int f() {\n";
    for (size_t I = 0; I < Depth; ++I)
      Out += "{";
    Out += " int x = 1; ";
    for (size_t I = 0; I < Depth; ++I)
      Out += "}";
    Out += "\nreturn 0; }\n";
    return Out;
  }
  case 2: // string doubling: exponential without a memory budget
    return "string boom(int n) {\n"
           "  string s = \"aaaaaaaa\";\n"
           "  for (int i = 0; i < n + 100; i += 1) { s = s + s; }\n"
           "  return s;\n"
           "}\n";
  case 3: // allocation churn: large arrays in a loop
    return "int churn(int n) {\n"
           "  int total = 0;\n"
           "  for (int i = 0; i < n + 1000; i += 1) {\n"
           "    int[] a = new int[100000];\n"
           "    total += len(a);\n"
           "  }\n"
           "  return total;\n"
           "}\n";
  case 4: // unbounded recursion
    return "int rec(int n) { return rec(n + 1); }\n";
  case 5: // infinite loop whose state never repeats
    return "int spin(int n) { while (true) { n += 1; } return n; }\n";
  case 6: { // period-k modular counter
    std::string K = std::to_string(1 + R.nextBelow(9));
    return "int modspin(int n) {\n"
           "  int i = 0;\n"
           "  while (i < " + K + ") { i = (i + 1) % " + K + "; }\n"
           "  return i;\n"
           "}\n";
  }
  case 7: // alias flip: two arrays swap places and contents every cycle
    return "int aliasflip(int n) {\n"
           "  int[] a = new int[1];\n"
           "  int[] b = new int[1];\n"
           "  while (n >= 0) {\n"
           "    int[] t = a; a = b; b = t;\n"
           "    a[0] = 1 - b[0];\n"
           "  }\n"
           "  return a[0];\n"
           "}\n";
  case 8: { // one allocation per cycle: the memory budget ends it
    std::string N = std::to_string(1 + R.nextBelow(2000));
    return "int allocspin(int n) {\n"
           "  while (n == n) { int[] a = new int[" + N + "]; }\n"
           "  return n;\n"
           "}\n";
  }
  default: // a spinning loop in a callee
    return "int inner(int k) { while (k == k) { k = k * 1; } return k; }\n"
           "int outer(int n) { int r = inner(n); return r; }\n";
  }
}

/// Structural generation: a random program assembled from fragments,
/// some with boundary integer literals.
std::string genStructural(Rng &R) {
  if (R.nextBelow(4) == 0)
    return genHostileTemplate(R);
  static const char *const Types[] = {"int", "bool", "string", "int[]"};
  static const char *const Stmts[] = {
      "x = x + 1;",
      "if (x > y) { y = x; } else { x = y; }",
      "while (x > 0) { x -= 1; }",
      "for (int i = 0; i < 4; i += 1) { y += i; }",
      "s = s + \"a\";",
      "int[] a = new int[x + 4];",
      "x = x / y;",
      "x = a[y];",
      "return x;",
      "break;",
      // '@' is replaced by a boundary literal: the overflow and
      // INT64_MIN / -1 cases of the wrapping int semantics.
      "y = @;",
      "x = @ / @;",
      "x = y % @;",
      "x = x * @ + y;",
      "x = -y - @;",
      "y = abs(y) + @;",
  };
  static const char *const Boundaries[] = {
      "9223372036854775807", "(-9223372036854775807 - 1)", "-1", "0"};
  std::string Out = "int f(int x, int y) {\n  string s = \"\";\n";
  size_t N = 1 + R.nextBelow(8);
  for (size_t I = 0; I < N; ++I) {
    Out += "  ";
    for (const char *C = Stmts[R.nextBelow(sizeof(Stmts) / sizeof(Stmts[0]))];
         *C; ++C)
      Out += *C == '@' ? Boundaries[R.nextBelow(4)] : std::string(1, *C);
    Out += "\n";
  }
  Out += "  return x;\n}\n";
  // Occasionally prepend a struct and a second function.
  if (R.nextBool(0.3)) {
    Out = std::string("struct P { ") + Types[R.nextBelow(3)] +
          " v; }\nint g(P p) { return 1; }\n" + Out;
  }
  return Out;
}

/// Byte-level mutation of a seed program.
std::string genMutated(Rng &R) {
  std::string Out = Seeds[R.nextBelow(NumSeeds)];
  size_t Edits = 1 + R.nextBelow(8);
  for (size_t I = 0; I < Edits && !Out.empty(); ++I) {
    switch (R.nextBelow(4)) {
    case 0: // flip a byte
      Out[R.nextBelow(Out.size())] = static_cast<char>(R.nextBelow(256));
      break;
    case 1: // delete a span
      Out.erase(R.nextBelow(Out.size()),
                1 + R.nextBelow(8));
      break;
    case 2: { // insert random bytes
      std::string Ins;
      size_t N = 1 + R.nextBelow(6);
      for (size_t J = 0; J < N; ++J)
        Ins += static_cast<char>(R.nextBelow(256));
      Out.insert(R.nextBelow(Out.size() + 1), Ins);
      break;
    }
    default: { // splice from another seed
      const char *Other = Seeds[R.nextBelow(NumSeeds)];
      size_t OtherLen = std::strlen(Other);
      size_t From = R.nextBelow(OtherLen);
      size_t Len = 1 + R.nextBelow(OtherLen - From);
      Out.insert(R.nextBelow(Out.size() + 1), std::string(Other + From, Len));
      break;
    }
    }
  }
  return Out;
}

/// Token soup: keywords and punctuation in random order — parses far
/// enough to stress error recovery.
std::string genTokenSoup(Rng &R) {
  static const char *const Toks[] = {
      "int", "bool",  "string", "void",   "struct", "if",     "else",
      "while", "for", "return", "break",  "continue", "new",  "true",
      "false", "x",   "y",      "f",      "0",      "1",      "42",
      "\"s\"", "(",   ")",      "{",      "}",      "[",      "]",
      ";",     ",",   "+",      "-",      "*",      "/",      "%",
      "=",     "==",  "!=",     "<",      ">",      "&&",     "||",
      "!",     ".",   "+=",     "-=",
  };
  std::string Out;
  size_t N = 1 + R.nextBelow(120);
  for (size_t I = 0; I < N; ++I) {
    Out += Toks[R.nextBelow(sizeof(Toks) / sizeof(Toks[0]))];
    Out += " ";
  }
  return Out;
}

/// Arbitrary binary, including NULs and high bytes.
std::string genRawBytes(Rng &R) {
  std::string Out;
  size_t N = R.nextBelow(400);
  for (size_t I = 0; I < N; ++I)
    Out += static_cast<char>(R.nextBelow(256));
  return Out;
}

std::string genInput(Rng &R) {
  switch (R.nextBelow(8)) {
  case 0:
  case 1:
  case 2: return genStructural(R);
  case 3:
  case 4: return genMutated(R);
  case 5:
  case 6: return genTokenSoup(R);
  default: return genRawBytes(R);
  }
}

//===----------------------------------------------------------------------===//
// Corpus replay
//===----------------------------------------------------------------------===//

bool replayCorpus(const std::string &Dir, bool Verbose, FuzzStats &S) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  std::vector<fs::path> Files;
  for (const auto &Entry : fs::directory_iterator(Dir, Ec))
    if (Entry.is_regular_file())
      Files.push_back(Entry.path());
  if (Ec || Files.empty()) {
    std::fprintf(stderr, "liger_fuzz: cannot replay '%s': %s\n", Dir.c_str(),
                 Ec ? Ec.message().c_str() : "no files");
    return false;
  }
  std::sort(Files.begin(), Files.end());
  for (const fs::path &File : Files) {
    std::ifstream In(File, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    if (Verbose)
      std::printf("replay %s\n", File.string().c_str());
    // Deep-dive every corpus file: reproducers are few and must drive
    // the whole pipeline.
    drivePipeline(Buf.str(), /*DeepDive=*/true, S);
  }
  std::printf("replayed %zu corpus file(s)\n", Files.size());
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Runs = 10000;
  uint64_t Seed = 1;
  bool Verbose = false;
  bool RequireAllStatuses = false;
  std::string ReplayDir;
  std::string LastInputPath;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if ((Arg == "--runs" || Arg == "--seed") && I + 1 < Argc) {
      if (!parseDecimal(Argv[++I], Arg == "--runs" ? Runs : Seed)) {
        std::fprintf(stderr,
                     "liger_fuzz: %s takes plain decimal digits, got '%s'\n",
                     Arg.c_str(), Argv[I]);
        return 2;
      }
    } else if (Arg == "--smoke")
      Runs = 500;
    else if (Arg == "--verbose")
      Verbose = true;
    else if (Arg == "--replay" && I + 1 < Argc)
      ReplayDir = Argv[++I];
    else if (Arg == "--require-all-statuses")
      RequireAllStatuses = true;
    else if (Arg == "--last-input" && I + 1 < Argc)
      LastInputPath = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: liger_fuzz [--runs N] [--seed S] [--smoke] "
                   "[--verbose] [--replay DIR] [--require-all-statuses] "
                   "[--last-input FILE]\n");
      return 2;
    }
  }

  FuzzStats Stats;

  if (!ReplayDir.empty()) {
    if (!replayCorpus(ReplayDir, Verbose, Stats))
      return 1;
    if (RequireAllStatuses && !Stats.sawAllStatuses()) {
      std::fprintf(stderr,
                   "liger_fuzz: corpus did not exercise every terminal "
                   "status (Ok=%llu OutOfFuel=%llu RuntimeError=%llu "
                   "MemoryLimit=%llu)\n",
                   (unsigned long long)Stats.ExecOk,
                   (unsigned long long)Stats.ExecOutOfFuel,
                   (unsigned long long)Stats.ExecRuntimeError,
                   (unsigned long long)Stats.ExecMemoryLimit);
      return 1;
    }
  }

  Rng R(Seed);
  using Clock = std::chrono::steady_clock;
  for (uint64_t Iter = 0; Iter < Runs; ++Iter) {
    std::string Input = genInput(R);
    if (Verbose && Iter % 200 == 0) {
      std::printf("iter %llu/%llu\n", (unsigned long long)Iter,
                  (unsigned long long)Runs);
      std::fflush(stdout);
    }
    // Crash/hang triage: persist the input before driving it, so a
    // wedged or killed run leaves the culprit on disk.
    if (!LastInputPath.empty()) {
      std::ofstream Out(LastInputPath, std::ios::binary | std::ios::trunc);
      Out << Input;
    }
    Clock::time_point Start = Clock::now();
    drivePipeline(Input, /*DeepDive=*/(Iter % 16) == 0, Stats);
    Clock::time_point End = Clock::now();
    double Secs = std::chrono::duration<double>(End - Start).count();
    // A single input dominating wall-clock is the signal fuzzing is
    // meant to surface — report it even when the run stays total.
    if (Secs > 5.0) {
      std::printf("slow input: iter %llu took %.1fs (%zu bytes)\n",
                  (unsigned long long)Iter, Secs, Input.size());
      std::fflush(stdout);
    }
  }

  Stats.print();
  std::printf("OK: no crashes\n");
  return 0;
}
