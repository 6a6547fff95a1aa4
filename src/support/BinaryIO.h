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
/// Numbers are fixed-width little-endian (the only platform we target),
/// or LEB128 varints where a format wants small numbers short (LGTR's
/// counts, lengths, ids and zigzagged ints); a magic word at the head
/// of each format catches byte-order or wrong-file mistakes before any
/// payload is interpreted.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SUPPORT_BINARYIO_H
#define LIGER_SUPPORT_BINARYIO_H

#include "support/Error.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// Maps a signed integer onto an unsigned one so that small magnitudes
/// of either sign stay small: 0, -1, 1, -2, 2 ... become 0, 1, 2, 3, 4.
constexpr uint64_t zigzagEncode(int64_t V) {
  return (static_cast<uint64_t>(V) << 1) ^ (V < 0 ? ~uint64_t(0) : 0);
}
/// Inverse of zigzagEncode, total over every u64.
constexpr int64_t zigzagDecode(uint64_t V) {
  return static_cast<int64_t>(V >> 1) ^ -static_cast<int64_t>(V & 1);
}

/// Largest LEB128 encoding of a u64: ten bytes of seven bits.
constexpr size_t MaxVarintBytes = 10;

/// Appends \p V to \p Out in LEB128: seven bits per byte, low bits
/// first, the high bit set on every byte but the last. One byte below
/// 128, at most MaxVarintBytes. The one varint encoder of the project.
inline void appendVarint(std::string &Out, uint64_t V) {
  for (; V >= 0x80; V >>= 7)
    Out.push_back(static_cast<char>(V | 0x80));
  Out.push_back(static_cast<char>(V));
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
  /// LEB128 varint (appendVarint).
  void writeVarint(uint64_t V) { appendVarint(Buf, V); }
  /// Zigzag varint: small negative numbers stay short.
  void writeZigzag(int64_t V) { writeVarint(zigzagEncode(V)); }
  /// u64 byte length followed by the raw bytes.
  void writeString(const std::string &S) {
    writeU64(S.size());
    writeBytes(S.data(), S.size());
  }
  /// Varint byte length followed by the raw bytes.
  void writeVarString(const std::string &S) {
    writeVarint(S.size());
    writeBytes(S.data(), S.size());
  }
  /// Starts a section (u32 tag, u64 payload length, then the payload's
  /// bytes) written in place: writes \p Tag and a placeholder length,
  /// and returns the offset endSection() patches.
  size_t beginSection(uint32_t Tag) {
    writeU32(Tag);
    size_t LengthAt = Buf.size();
    writeU64(0);
    return LengthAt;
  }
  /// Ends the section begun at \p LengthAt: its length is every byte
  /// written since.
  void endSection(size_t LengthAt) {
    patchU64(LengthAt, Buf.size() - LengthAt - sizeof(uint64_t));
  }
  /// Overwrite bytes written earlier: placeholders for lengths,
  /// checksums and bitmaps known only once what follows is written.
  void patchU8(size_t Offset, uint8_t V) { patchBytes(Offset, &V, sizeof(V)); }
  void patchU64(size_t Offset, uint64_t V) {
    patchBytes(Offset, &V, sizeof(V));
  }

  /// Bytes written so far.
  size_t size() const { return Buf.size(); }
  const std::string &bytes() const { return Buf; }

private:
  void patchBytes(size_t Offset, const void *Data, size_t Size) {
    LIGER_CHECK(Offset <= Buf.size() && Size <= Buf.size() - Offset,
                "patch past the bytes written");
    std::memcpy(&Buf[Offset], Data, Size);
  }

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
  /// Reads a LEB128 varint. Fails on an encoding longer than
  /// MaxVarintBytes, one overflowing 64 bits, or a non-minimal one (a
  /// final zero byte after the first), so every value has exactly one
  /// encoding.
  bool readVarint(uint64_t &V);
  /// Reads a zigzag varint (ByteWriter::writeZigzag).
  bool readZigzag(int64_t &V) {
    uint64_t Bits = 0;
    if (!readVarint(Bits))
      return false;
    V = zigzagDecode(Bits);
    return true;
  }
  /// Reads \p Count floats; the count is checked against the bytes left
  /// before it is multiplied, so no count can wrap the byte size.
  bool readFloats(float *Out, size_t Count);
  /// Reads a writeString()-format string; fails (without allocating)
  /// when the stored length exceeds \p MaxLen or the bytes left.
  bool readString(std::string &Out, uint64_t MaxLen);
  /// Reads a writeVarString()-format string, bounded like readString.
  bool readVarString(std::string &Out, uint64_t MaxLen);
  /// Points \p Out at the next \p Count bytes, in place, and skips them
  /// (bounded like a read). The bytes live as long as the reader's.
  bool readView(const char *&Out, uint64_t Count);
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
  /// The string body of readString/readVarString once \p Len is read.
  bool readStringBytes(std::string &Out, uint64_t Len, uint64_t MaxLen);

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
