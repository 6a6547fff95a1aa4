//===-- nn/WeightImage.h - Immutable serving weight image -------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An immutable, flat snapshot of a ParamStore's parameters for the
/// forward-only inference runtime (models/Inference.h): one contiguous
/// float buffer plus a name -> {offset, shape} index, with a 128-bit
/// content digest that doubles as the parameter version for the
/// serving-side embedding caches (DESIGN.md §13).
///
/// Unlike the LGCK checkpoint (nn/Checkpoint.h), which exists to
/// restore a live ParamStore (optimizer slots, trainer state), the
/// weight image carries values only and never touches graph Nodes —
/// readers get raw const float* into the buffer.
/// The usual path is checkpoint -> ParamStore::load -> fromStore();
/// save()/load() additionally persist the image itself as an "LGWI"
/// container (same magic/version/atomic-write/checksum discipline as
/// LGCK and LGTR) so a serving host can map weights without building a
/// model. A truncated or bit-flipped file fails cleanly — bounded
/// reads, capped counts, digest verification — and never half-fills
/// the destination image.
///
/// Format v2 pads the float payload to a 64-byte boundary so map()
/// can mmap the file and serve tensor reads straight from the page
/// cache (naturally aligned, zero copies, shared across processes);
/// map() falls back to the buffered load() wherever mmap is
/// unavailable, and both backings pass the same digest verification.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_NN_WEIGHTIMAGE_H
#define LIGER_NN_WEIGHTIMAGE_H

#include "support/Hash.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace liger {

class ParamStore;

/// "LGWI" little-endian.
constexpr uint32_t WeightImageMagic = 0x4957474Cu;
/// v2: float payload 64-byte-aligned within the file (mmap support).
constexpr uint32_t WeightImageVersion = 2;

/// Flat, immutable parameter snapshot. Copyable/movable value type;
/// all accessors are const and safe to share across serve workers.
class WeightImage {
public:
  struct Entry {
    std::string Name;
    uint32_t Rank = 0;      ///< 1 or 2.
    size_t Dims[2] = {0, 0}; ///< Dims[1] == 1 for rank-1 tensors.
    size_t Offset = 0;       ///< First float in the flat buffer.
    size_t Size = 0;         ///< Total floats (product of dims).
  };

  WeightImage() = default;

  /// Snapshots every parameter of \p Store (store order preserved).
  static WeightImage fromStore(const ParamStore &Store);

  /// Writes the image as an LGWI file (atomic: temp + fsync + rename).
  bool save(const std::string &Path, std::string *Error = nullptr) const;
  /// Reads an LGWI file into an owned buffer. On any malformed input
  /// returns false with a diagnostic and leaves \p Out untouched.
  static bool load(const std::string &Path, WeightImage &Out,
                   std::string *Error = nullptr);
  /// Maps an LGWI file read-only and serves tensors straight from the
  /// mapping (the 64-byte payload alignment makes every tensor
  /// naturally aligned). Header and digest are verified exactly like
  /// load(); a malformed file fails the same way. When the mmap
  /// syscalls themselves fail (filesystem without mmap support), falls
  /// back to load(), so callers need no second path. The mapping is
  /// reference-counted: copies of the image share it, and it unmaps
  /// with the last copy.
  static bool map(const std::string &Path, WeightImage &Out,
                  std::string *Error = nullptr);
  /// True when tensor reads are served from an mmap'ed file.
  bool mapped() const { return Base != nullptr; }

  /// Null when \p Name is not present.
  const Entry *find(const std::string &Name) const;

  /// The named tensor's floats; fatal (LIGER_CHECK) on a missing name
  /// or shape mismatch — binding errors are bugs, not inputs.
  const float *tensor2d(const std::string &Name, size_t Rows,
                        size_t Cols) const;
  const float *tensor1d(const std::string &Name, size_t N) const;

  const std::vector<Entry> &entries() const { return Entries; }
  size_t totalScalars() const { return Base ? MappedFloats : Data.size(); }
  bool empty() const { return Entries.empty(); }

  /// Content digest over names, shapes, and raw float bits — the
  /// parameter version key for serving-side embedding caches.
  const Digest128 &version() const { return Version; }

private:
  std::vector<float> Data; ///< Owned floats (empty when mapped).
  std::vector<Entry> Entries;
  std::unordered_map<std::string, size_t> Index;
  Digest128 Version{};
  /// mmap backing: Base points at the aligned float payload inside
  /// Mapping, which unmaps when the last image sharing it is gone.
  const float *Base = nullptr;
  size_t MappedFloats = 0;
  std::shared_ptr<const void> Mapping;

  /// The flat float buffer, whichever backing holds it.
  const float *floats() const { return Base ? Base : Data.data(); }

  void finalize(); ///< Rebuilds Index and Version from floats/Entries.
};

} // namespace liger

#endif // LIGER_NN_WEIGHTIMAGE_H
