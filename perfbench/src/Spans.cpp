//===-- perfbench/src/Spans.cpp - In-memory span recorder -----------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

namespace {

std::atomic<uint64_t> NextSerial{1};

/// The calling thread's buffer for the recorder it last used.
struct ThreadCache {
  uint64_t Serial = 0;
  void *Buffer = nullptr;
};
thread_local ThreadCache Cache;

/// Innermost open span on this thread (for implicit parents).
thread_local ScopedSpan *Innermost = nullptr;

} // namespace

SpanRecorder::SpanRecorder()
    : Serial(NextSerial.fetch_add(1)), Origin(std::chrono::steady_clock::now()) {
}

int64_t SpanRecorder::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

SpanRecorder::ThreadBuffer &SpanRecorder::buffer() {
  if (Cache.Serial == Serial)
    return *static_cast<ThreadBuffer *>(Cache.Buffer);
  std::lock_guard<std::mutex> Lock(Mutex);
  std::thread::id Self = std::this_thread::get_id();
  ThreadBuffer *Found = nullptr;
  for (const std::unique_ptr<ThreadBuffer> &B : Buffers)
    if (B->Owner == Self)
      Found = B.get();
  if (!Found) {
    Buffers.push_back(std::make_unique<ThreadBuffer>());
    Found = Buffers.back().get();
    Found->Owner = Self;
    Found->Index = static_cast<uint32_t>(Buffers.size() - 1);
    Found->Spans.reserve(1024);
  }
  Cache.Serial = Serial;
  Cache.Buffer = Found;
  return *Found;
}

void SpanRecorder::record(const Span &S) {
  ThreadBuffer &B = buffer();
  B.Spans.push_back(S);
  B.Spans.back().Thread = B.Index;
}

std::vector<Span> SpanRecorder::merged() const {
  std::vector<Span> All;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const std::unique_ptr<ThreadBuffer> &B : Buffers)
      All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  }
  std::sort(All.begin(), All.end(), [](const Span &A, const Span &B) {
    return A.StartNs != B.StartNs ? A.StartNs < B.StartNs : A.Id < B.Id;
  });
  return All;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = true;
  for (const Span &S : merged())
    Ok &= std::fprintf(F, "%llu\t%llu\t%u\t%llu\t%lld\t%lld\t%s\n",
                       (unsigned long long)S.Id, (unsigned long long)S.Parent,
                       S.Thread, (unsigned long long)S.Request,
                       (long long)S.StartNs, (long long)S.EndNs, S.Name) > 0;
  return std::fclose(F) == 0 && Ok;
}

ScopedSpan::ScopedSpan(SpanRecorder *Recorder, const char *Name,
                       uint64_t Request, uint64_t Parent)
    : Recorder(Recorder) {
  if (!Recorder)
    return;
  S.Name = Name;
  S.Id = Recorder->newId();
  S.Request = Request;
  if (Parent != InheritParent)
    S.Parent = Parent;
  else if (Innermost && Innermost->Recorder == Recorder)
    S.Parent = Innermost->S.Id;
  Outer = Innermost;
  Innermost = this;
  S.StartNs = Recorder->nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!Recorder)
    return;
  S.EndNs = Recorder->nowNs();
  Recorder->record(S);
  Innermost = Outer;
}
