//===-- support/BinaryIO.h - Checked binary codec and file I/O --*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one byte codec under every on-disk format (LGCK checkpoints,
/// LGTR trace-cache entries, LGWI weight images): an appending writer
/// that builds a whole file in memory, a bounded reader over bytes in
/// memory, a whole-file reader, and an atomic-replace file writer.
///
/// Files are built in memory first so a format can checksum or size
/// its payload before anything touches the disk, and parsed from
/// memory so a truncated or corrupt file can never read past its end,
/// spin, or induce an oversized allocation. Whole-file writes go
/// through a temp file + fsync + rename, so a crash can never leave a
/// torn file at the target path.
///
/// Numbers are fixed-width little-endian (the only platform we target);
/// a magic word at the head of each format catches byte-order or
/// wrong-file mistakes before any payload is interpreted.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SUPPORT_BINARYIO_H
#define LIGER_SUPPORT_BINARYIO_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace liger {

/// Four ASCII bytes as a little-endian u32: the magic words and section
/// tags of every format.
constexpr uint32_t tagOf(char A, char B, char C, char D) {
  return static_cast<uint32_t>(static_cast<uint8_t>(A)) |
         static_cast<uint32_t>(static_cast<uint8_t>(B)) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(C)) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(D)) << 24;
}

/// Appending binary writer over an owned byte buffer.
class ByteWriter {
public:
  void writeBytes(const void *Data, size_t Size) {
    if (Size != 0)
      Buf.append(static_cast<const char *>(Data), Size);
  }
  void writeU8(uint8_t V) { writeBytes(&V, sizeof(V)); }
  void writeU32(uint32_t V) { writeBytes(&V, sizeof(V)); }
  void writeU64(uint64_t V) { writeBytes(&V, sizeof(V)); }
  void writeI64(int64_t V) { writeBytes(&V, sizeof(V)); }
  void writeF64(double V) { writeBytes(&V, sizeof(V)); }
  void writeFloats(const float *Data, size_t Count) {
    writeBytes(Data, Count * sizeof(float));
  }
  /// u64 byte length followed by the raw bytes.
  void writeString(const std::string &S) {
    writeU64(S.size());
    writeBytes(S.data(), S.size());
  }
  /// u32 tag, u64 payload length, then the payload's bytes.
  void writeSection(uint32_t Tag, const ByteWriter &Payload) {
    writeU32(Tag);
    writeString(Payload.Buf);
  }

  /// Bytes written so far.
  size_t size() const { return Buf.size(); }
  const std::string &bytes() const { return Buf; }

private:
  std::string Buf;
};

/// Bounded binary reader over a non-owned byte span. Every read is
/// checked against the bytes left, so a truncated or corrupt buffer can
/// never read past its end or induce an oversized allocation. After the
/// first failure every later call fails too.
class ByteReader {
public:
  ByteReader(const char *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::string &Bytes)
      : ByteReader(Bytes.data(), Bytes.size()) {}
  /// The reader borrows its bytes, so a temporary would dangle.
  explicit ByteReader(std::string &&) = delete;

  bool readBytes(void *Out, size_t Count);
  bool readU8(uint8_t &V) { return readBytes(&V, sizeof(V)); }
  bool readU32(uint32_t &V) { return readBytes(&V, sizeof(V)); }
  bool readU64(uint64_t &V) { return readBytes(&V, sizeof(V)); }
  bool readI64(int64_t &V) { return readBytes(&V, sizeof(V)); }
  bool readF64(double &V) { return readBytes(&V, sizeof(V)); }
  /// Reads \p Count floats; the count is checked against the bytes left
  /// before it is multiplied, so no count can wrap the byte size.
  bool readFloats(float *Out, size_t Count);
  /// Reads a writeString()-format string; fails (without allocating)
  /// when the stored length exceeds \p MaxLen or the bytes left.
  bool readString(std::string &Out, uint64_t MaxLen);
  /// Skips \p Count bytes (bounded like a read).
  bool skip(uint64_t Count);

  /// A stored element count can never exceed the bytes left (every
  /// element costs at least one byte), so this check rejects corrupt
  /// counts before any reserve/resize.
  bool plausibleCount(uint64_t Count) const { return Count <= remaining(); }

  /// Bytes consumed so far.
  uint64_t position() const { return Pos; }
  /// Bytes still unread.
  uint64_t remaining() const { return Size - Pos; }
  bool ok() const { return !Failed; }

private:
  /// Latches the failure; returns false for the caller to pass on.
  bool fail() {
    Failed = true;
    return false;
  }

  const char *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
};

/// Outcome of readWholeFile().
enum class ReadResult {
  Ok,     ///< The whole file is in the output buffer.
  Absent, ///< The file could not be opened (missing, or unlinked).
  Bad,    ///< Not a regular file, over the cap, or an I/O error.
};

/// Reads the whole regular file at \p Path into \p Out. The size comes
/// from the open handle, never from a separate stat: writers replace
/// files atomically by rename, and an open handle pins one whole
/// snapshot of the file, so a reader can never observe a size that does
/// not match what it then reads. Files larger than \p MaxBytes are Bad
/// and are not read. \p Out is unspecified unless the result is Ok.
ReadResult readWholeFile(const std::string &Path, uint64_t MaxBytes,
                         std::string &Out);

/// Writes \p Bytes to \p Path atomically: the bytes go to a uniquely
/// named temp file next to \p Path, which is flushed, fsync'ed, closed
/// and renamed over \p Path in one step, so a crash at any point leaves
/// either the old file or the new one, never a torn mix. On any failure
/// the temp file is removed, \p Path is untouched, false is returned,
/// and \p Error (if non-null) gets a one-line diagnostic.
bool atomicWriteFile(const std::string &Path, const std::string &Bytes,
                     std::string *Error = nullptr);

/// True when \p Path exists and is a regular file.
bool fileExists(const std::string &Path);

/// Creates \p Path (and missing parents) as directories, mkdir -p
/// style. Returns false when a component exists but is not a directory
/// or creation fails.
bool ensureDirExists(const std::string &Path);

} // namespace liger

#endif // LIGER_SUPPORT_BINARYIO_H
