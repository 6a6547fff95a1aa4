//===-- support/BinaryIO.cpp - Checked binary codec and file I/O ----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/BinaryIO.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace liger;

//===----------------------------------------------------------------------===//
// ByteReader
//===----------------------------------------------------------------------===//

bool ByteReader::readBytes(void *Out, size_t Count) {
  if (Failed || Count > remaining())
    return fail();
  if (Count != 0)
    std::memcpy(Out, Data + Pos, Count);
  Pos += Count;
  return true;
}

bool ByteReader::readFloats(float *Out, size_t Count) {
  if (Count > remaining() / sizeof(float))
    return fail();
  return readBytes(Out, Count * sizeof(float));
}

bool ByteReader::readVarint(uint64_t &V) {
  uint64_t Result = 0;
  for (unsigned Shift = 0; Shift < 7 * MaxVarintBytes; Shift += 7) {
    if (Failed || Pos == Size)
      return fail();
    uint8_t Byte = static_cast<uint8_t>(Data[Pos++]);
    // The tenth byte carries bit 63 alone; a zero final byte after the
    // first adds nothing and would give the value a second encoding.
    if ((Shift == 63 && Byte > 1) || (Byte == 0 && Shift != 0))
      return fail();
    Result |= static_cast<uint64_t>(Byte & 0x7F) << Shift;
    if (!(Byte & 0x80)) {
      V = Result;
      return true;
    }
  }
  LIGER_UNREACHABLE("the tenth byte ends or fails the varint");
}

bool ByteReader::readStringBytes(std::string &Out, uint64_t Len,
                                 uint64_t MaxLen) {
  if (Len > MaxLen || Len > remaining())
    return fail();
  Out.assign(Data + Pos, static_cast<size_t>(Len));
  Pos += static_cast<size_t>(Len);
  return true;
}

bool ByteReader::readString(std::string &Out, uint64_t MaxLen) {
  uint64_t Len = 0;
  return readU64(Len) && readStringBytes(Out, Len, MaxLen);
}

bool ByteReader::readVarString(std::string &Out, uint64_t MaxLen) {
  uint64_t Len = 0;
  return readVarint(Len) && readStringBytes(Out, Len, MaxLen);
}

bool ByteReader::readView(const char *&Out, uint64_t Count) {
  if (Failed || Count > remaining())
    return fail();
  Out = Data + Pos;
  Pos += static_cast<size_t>(Count);
  return true;
}

bool ByteReader::skip(uint64_t Count) {
  if (Failed || Count > remaining())
    return fail();
  Pos += static_cast<size_t>(Count);
  return true;
}

//===----------------------------------------------------------------------===//
// Whole-file reads and atomic replacement
//===----------------------------------------------------------------------===//

ReadResult liger::readWholeFile(const std::string &Path, uint64_t MaxBytes,
                                std::string &Out) {
  int FD = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (FD < 0)
    return ReadResult::Absent;
  struct Closer {
    int FD;
    ~Closer() { ::close(FD); }
  } Close{FD};
  struct stat St;
  if (::fstat(FD, &St) != 0 || !S_ISREG(St.st_mode) || St.st_size < 0 ||
      static_cast<uint64_t>(St.st_size) > MaxBytes)
    return ReadResult::Bad;
  size_t Size = static_cast<size_t>(St.st_size);
  Out.assign(Size, '\0');
  for (size_t Done = 0; Done < Size;) {
    ssize_t N = ::read(FD, Out.data() + Done, Size - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return ReadResult::Bad; // I/O error, or the file shrank under us
    Done += static_cast<size_t>(N);
  }
  return ReadResult::Ok;
}

bool liger::atomicWriteFile(const std::string &Path, const std::string &Bytes,
                            std::string *Error) {
  auto Fail = [&](const std::string &What) {
    if (Error)
      *Error = What + ": " + std::strerror(errno);
    return false;
  };

  // The temp name carries the pid and a process-wide counter so that
  // concurrent writers of the same target (e.g. two corpus workers
  // storing the same trace-cache key) never interleave into one temp
  // file; whichever rename lands last wins, and both files are whole.
  static std::atomic<uint64_t> TmpCounter{0};
  std::string TmpPath = Path + ".tmp." + std::to_string(::getpid()) + "." +
                        std::to_string(TmpCounter.fetch_add(1));
  FILE *F = std::fopen(TmpPath.c_str(), "wb");
  if (!F)
    return Fail("cannot create temp file " + TmpPath);

  // A short write, a failed flush, or a failed fsync all mean the
  // payload may not be durably on disk — abandon the temp file and
  // leave any previous file at Path untouched.
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size() &&
            std::fflush(F) == 0 && ::fsync(::fileno(F)) == 0;
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok) {
    std::remove(TmpPath.c_str());
    return Fail("short write to " + TmpPath);
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    std::remove(TmpPath.c_str());
    return Fail("cannot rename " + TmpPath + " over " + Path);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Filesystem helpers
//===----------------------------------------------------------------------===//

bool liger::fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

bool liger::ensureDirExists(const std::string &Path) {
  if (Path.empty())
    return false;
  // Walk the path, creating each component; "a/b/c" needs a and a/b.
  for (size_t Pos = 1; Pos <= Path.size(); ++Pos) {
    if (Pos != Path.size() && Path[Pos] != '/')
      continue;
    std::string Prefix = Path.substr(0, Pos);
    if (::mkdir(Prefix.c_str(), 0755) == 0 || errno == EEXIST)
      continue;
    return false;
  }
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}
