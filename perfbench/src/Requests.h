//===-- perfbench/src/Requests.h - Serve request generator ------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve workload's traffic: one request stream per closed-loop
/// client, a pure function of (seed, client index). Requests are
/// instantiated from the task library with seeded identifier renaming:
///
///  - Novel: a fresh instantiation (unique method name, renamed locals)
///    that no earlier request shares, so it misses the trace cache;
///  - Repeat: an exact copy of an earlier Novel request of the same
///    stream, so it hits the trace cache once that request has returned
///    (a closed-loop client never has two requests in flight);
///  - ParseError / MissingMethod / TooSmall: invalid requests with a
///    known terminal status.
///
/// Only library variants the service accepts are used as Novel
/// templates, so every request has a known expected status.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REQUESTS_H
#define PERFBENCH_REQUESTS_H

#include "serve/Serve.h"

#include <cstdint>
#include <vector>

namespace perfbench {

enum class RequestKind { Novel, Repeat, ParseError, MissingMethod, TooSmall };

const char *requestKindName(RequestKind Kind);

struct StreamRequest {
  liger::ServeRequest Request;
  RequestKind Kind = RequestKind::Novel;
  liger::ServeStatus Expected = liger::ServeStatus::Ok;
  /// Index (in the same stream) of the request a Repeat copies.
  size_t RepeatOf = 0;
};

/// Target shares of a stream; the rest is Novel.
constexpr double RepeatShare = 0.50;
constexpr double InvalidShare = 0.05;

/// Requests [0, Count) of client \p Client's stream under \p Seed.
std::vector<StreamRequest> generateStream(uint64_t Seed, size_t Client,
                                          size_t Count);

/// The service's size rule (serve/Serve.cpp): statements in \p S, with
/// if/while/for counting themselves plus their bodies. Methods under 3
/// are TooSmall.
size_t statementCount(const liger::Stmt *S);

} // namespace perfbench

#endif // PERFBENCH_REQUESTS_H
