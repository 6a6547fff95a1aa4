//===-- tests/SupportTests.cpp - Unit tests for the support library -------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/BinaryIO.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

using namespace liger;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForFixedSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_EQ(Same, 0);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(R.nextBelow(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng R(3);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t V = R.nextInt(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(5);
  for (int I = 0; I < 1000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(17);
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Original = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Original);
}

TEST(RngTest, PickWeightedFollowsWeights) {
  Rng R(23);
  std::vector<double> Weights{0.0, 1.0, 3.0};
  int Counts[3] = {0, 0, 0};
  for (int I = 0; I < 4000; ++I)
    ++Counts[R.pickWeighted(Weights)];
  EXPECT_EQ(Counts[0], 0);
  EXPECT_GT(Counts[2], Counts[1] * 2);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng A(99);
  Rng Child = A.split();
  // The child stream should not replay the parent's next outputs.
  EXPECT_NE(Child.next(), A.next());
}

//===----------------------------------------------------------------------===//
// Sub-token splitting (the paper's evaluation metric tokenization)
//===----------------------------------------------------------------------===//

TEST(SubtokenTest, CamelCase) {
  EXPECT_EQ(splitSubtokens("computeDiff"),
            (std::vector<std::string>{"compute", "diff"}));
}

TEST(SubtokenTest, SingleWord) {
  EXPECT_EQ(splitSubtokens("compute"), (std::vector<std::string>{"compute"}));
}

TEST(SubtokenTest, Snake) {
  EXPECT_EQ(splitSubtokens("compute_file_diff"),
            (std::vector<std::string>{"compute", "file", "diff"}));
}

TEST(SubtokenTest, AcronymBoundary) {
  EXPECT_EQ(splitSubtokens("parseHTTPHeader"),
            (std::vector<std::string>{"parse", "http", "header"}));
}

TEST(SubtokenTest, Digits) {
  EXPECT_EQ(splitSubtokens("base64Encode"),
            (std::vector<std::string>{"base", "64", "encode"}));
}

TEST(SubtokenTest, LeadingUpper) {
  EXPECT_EQ(splitSubtokens("SortArray"),
            (std::vector<std::string>{"sort", "array"}));
}

TEST(SubtokenTest, Empty) { EXPECT_TRUE(splitSubtokens("").empty()); }

TEST(SubtokenTest, CamelCaseJoinRoundTrip) {
  std::vector<std::string> Parts{"compute", "file", "diff"};
  EXPECT_EQ(camelCaseJoin(Parts), "computeFileDiff");
  EXPECT_EQ(splitSubtokens(camelCaseJoin(Parts)), Parts);
}

//===----------------------------------------------------------------------===//
// String helpers
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtilsTest, ToLower) { EXPECT_EQ(toLower("AbC9_z"), "abc9_z"); }

TEST(StringUtilsTest, StartsEndsWith) {
  EXPECT_TRUE(startsWith("liger", "li"));
  EXPECT_FALSE(startsWith("li", "liger"));
}

TEST(StringUtilsTest, ParseDecimal) {
  uint64_t V = 7;
  EXPECT_TRUE(parseDecimal("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseDecimal("0042", V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(parseDecimal("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  for (const char *Bad : {"", "18446744073709551616", "99999999999999999999",
                          "-1", "+1", " 1", "1 ", "1x", "abc", "0x10"}) {
    V = 7;
    EXPECT_FALSE(parseDecimal(Bad, V)) << Bad;
    EXPECT_EQ(V, 7u) << Bad;
  }
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtilsTest, FormatDouble) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(2.0, 1), "2.0");
}

//===----------------------------------------------------------------------===//
// TextTable
//===----------------------------------------------------------------------===//

TEST(TextTableTest, AlignsColumns) {
  TextTable Table({"Model", "F1"});
  Table.addRow({"code2seq", "25.07"});
  Table.addRow({"LIGER", "32.30"});
  std::string Out = Table.render();
  EXPECT_NE(Out.find("Model"), std::string::npos);
  EXPECT_NE(Out.find("LIGER"), std::string::npos);
  // Every line has the same column start for "F1" values.
  EXPECT_NE(Out.find("code2seq  25.07"), std::string::npos);
  EXPECT_NE(Out.find("LIGER     32.30"), std::string::npos);
}

TEST(TextTableTest, CsvEscaping) {
  TextTable Table({"a", "b"});
  Table.addRow({"x,y", "He said \"hi\""});
  std::string Path = testing::TempDir() + "/liger_table_test.csv";
  ASSERT_TRUE(Table.writeCsv(Path));
  FILE *F = fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buffer[256];
  std::string Content;
  while (fgets(Buffer, sizeof(Buffer), F))
    Content += Buffer;
  fclose(F);
  EXPECT_NE(Content.find("\"x,y\""), std::string::npos);
  EXPECT_NE(Content.find("\"He said \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTableTest, RowCount) {
  TextTable Table({"only"});
  EXPECT_EQ(Table.numRows(), 0u);
  Table.addRow({"r"});
  EXPECT_EQ(Table.numRows(), 1u);
}

//===----------------------------------------------------------------------===//
// StableHash
//===----------------------------------------------------------------------===//

TEST(StableHashTest, DeterministicForSameFeed) {
  auto Feed = [](StableHash &H) {
    H.addU64(7);
    H.addString("collect");
    H.addI64(-3);
    H.addBool(true);
    H.addF64(0.25);
  };
  StableHash A, B;
  Feed(A);
  Feed(B);
  EXPECT_EQ(A.digest(), B.digest());
  EXPECT_EQ(A.digest128(), B.digest128());
  EXPECT_NE(A.digest(), 0u);
}

TEST(StableHashTest, LengthPrefixPreventsStringAliasing) {
  StableHash A, B;
  A.addString("ab");
  A.addString("c");
  B.addString("a");
  B.addString("bc");
  EXPECT_NE(A.digest(), B.digest());
}

TEST(StableHashTest, OrderSensitive) {
  StableHash A, B;
  A.addU64(1);
  A.addU64(2);
  B.addU64(2);
  B.addU64(1);
  EXPECT_NE(A.digest(), B.digest());
}

TEST(StableHashTest, FloatBitPatternDistinguishesSignedZero) {
  StableHash A, B;
  A.addF64(0.0);
  B.addF64(-0.0);
  EXPECT_NE(A.digest(), B.digest());
}

TEST(StableHashTest, HexIs32LowercaseChars) {
  StableHash H;
  H.addString("liger");
  Digest128 D = H.digest128();
  std::string Hex = D.hex();
  ASSERT_EQ(Hex.size(), 32u);
  for (char C : Hex)
    EXPECT_TRUE((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')) << Hex;
  StableHash Other;
  Other.addString("tiger");
  EXPECT_NE(Other.digest128().hex(), Hex);
}

TEST(StableHashTest, StreamingMatchesOneShot) {
  const char Data[] = "stable content hashing";
  StableHash A, B;
  A.addBytes(Data, sizeof(Data) - 1);
  for (size_t I = 0; I + 1 < sizeof(Data); ++I)
    B.addBytes(Data + I, 1);
  EXPECT_EQ(A.digest128(), B.digest128());
}

//===----------------------------------------------------------------------===//
// BinaryIO
//===----------------------------------------------------------------------===//

TEST(BinaryIOTest, EveryWriterFieldRoundTrips) {
  const float Floats[] = {1.5f, -2.0f, 0.0f};
  const std::string WithNul("ab\0cd", 5);

  ByteWriter W;
  W.writeU8(0xAB);
  W.writeU32(0xDEADBEEFu);
  W.writeU64(0x0123456789ABCDEFull);
  W.writeI64(-5);
  W.writeF64(-0.0);
  W.writeFloats(Floats, 3);
  W.writeString(WithNul);
  W.writeBytes("xyz", 3);
  size_t LengthAt = W.beginSection(tagOf('T', 'E', 'S', 'T'));
  W.writeU32(7);
  W.endSection(LengthAt);
  EXPECT_EQ(W.size(), 1u + 4 + 8 + 8 + 8 + 12 + (8 + 5) + 3 + (4 + 8 + 4));
  EXPECT_EQ(W.bytes().size(), W.size());

  ByteReader R(W.bytes());
  uint8_t U8 = 0;
  uint32_t U32 = 0, Tag = 0, SectionValue = 0;
  uint64_t U64 = 0, SectionLen = 0;
  int64_t I64 = 0;
  double F64 = 1;
  float FloatsBack[3] = {};
  std::string Str;
  char Raw[3] = {};
  ASSERT_TRUE(R.readU8(U8));
  ASSERT_TRUE(R.readU32(U32));
  ASSERT_TRUE(R.readU64(U64));
  ASSERT_TRUE(R.readI64(I64));
  ASSERT_TRUE(R.readF64(F64));
  ASSERT_TRUE(R.readFloats(FloatsBack, 3));
  ASSERT_TRUE(R.readString(Str, 5));
  ASSERT_TRUE(R.readBytes(Raw, 3));
  EXPECT_EQ(R.position(), W.size() - 16);
  ASSERT_TRUE(R.readU32(Tag));
  ASSERT_TRUE(R.readU64(SectionLen));
  ASSERT_TRUE(R.readU32(SectionValue));
  EXPECT_EQ(U8, 0xAB);
  EXPECT_EQ(U32, 0xDEADBEEFu);
  EXPECT_EQ(U64, 0x0123456789ABCDEFull);
  EXPECT_EQ(I64, -5);
  EXPECT_EQ(F64, 0.0);
  EXPECT_TRUE(std::signbit(F64));
  EXPECT_EQ(std::memcmp(FloatsBack, Floats, sizeof(Floats)), 0);
  EXPECT_EQ(Str, WithNul);
  EXPECT_EQ(std::string(Raw, 3), "xyz");
  EXPECT_EQ(Tag, tagOf('T', 'E', 'S', 'T'));
  EXPECT_EQ(SectionLen, 4u);
  EXPECT_EQ(SectionValue, 7u);
  EXPECT_EQ(R.remaining(), 0u);
  EXPECT_EQ(R.position(), W.size());
  EXPECT_TRUE(R.ok());

  // Tags are the ASCII bytes in file order: "LGCK" is the checkpoint
  // magic word.
  EXPECT_EQ(tagOf('L', 'G', 'C', 'K'), 0x4B43474Cu);
}

TEST(BinaryIOTest, ReadPastEndFailsAndLatches) {
  const char Bytes[3] = {1, 2, 3};
  ByteReader R(Bytes, sizeof(Bytes));
  uint32_t U32 = 0;
  uint8_t U8 = 0;
  EXPECT_FALSE(R.readU32(U32));
  EXPECT_FALSE(R.ok());
  // A read that would fit still fails once the reader has failed.
  EXPECT_FALSE(R.readU8(U8));
  EXPECT_FALSE(R.skip(1));
  EXPECT_EQ(R.position(), 0u);
  EXPECT_EQ(R.remaining(), 3u);

  ByteReader Skipper(Bytes, sizeof(Bytes));
  EXPECT_FALSE(Skipper.skip(4));
  EXPECT_FALSE(Skipper.readU8(U8));
}

TEST(BinaryIOTest, OversizedStringFailsWithoutAllocating) {
  // A stored length over the caller's cap.
  ByteWriter Capped;
  Capped.writeString("hello");
  ByteReader R1(Capped.bytes());
  std::string Out = "keep";
  EXPECT_FALSE(R1.readString(Out, 4));
  EXPECT_FALSE(R1.ok());
  EXPECT_EQ(Out, "keep");

  // A stored length over the bytes left, under a cap that admits it:
  // the length is rejected before the string is sized.
  ByteWriter Huge;
  Huge.writeU64(uint64_t(1) << 40);
  Huge.writeBytes("abc", 3);
  ByteReader R2(Huge.bytes());
  EXPECT_FALSE(R2.readString(Out, UINT64_MAX));
  EXPECT_FALSE(R2.ok());
  EXPECT_EQ(Out, "keep");
  EXPECT_LT(Out.capacity(), size_t(1) << 20);
}

TEST(BinaryIOTest, PlausibleCountIsBoundedByBytesLeft) {
  const char Bytes[8] = {};
  ByteReader R(Bytes, sizeof(Bytes));
  EXPECT_TRUE(R.plausibleCount(0));
  EXPECT_TRUE(R.plausibleCount(8));
  EXPECT_FALSE(R.plausibleCount(9));
  EXPECT_FALSE(R.plausibleCount(UINT64_MAX));
  uint32_t U32 = 0;
  ASSERT_TRUE(R.readU32(U32));
  EXPECT_TRUE(R.plausibleCount(4));
  EXPECT_FALSE(R.plausibleCount(5));
  // A check, not a read: it neither consumes nor fails the reader.
  EXPECT_EQ(R.remaining(), 4u);
  EXPECT_TRUE(R.ok());
}

TEST(BinaryIOTest, ReadFloatsRejectsWrappingCount) {
  const char Bytes[16] = {};
  ByteReader R(Bytes, sizeof(Bytes));
  // Count * sizeof(float) wraps to 0 in size_t; a reader that
  // multiplied first would "read" zero bytes and succeed.
  size_t Wrapping = SIZE_MAX / sizeof(float) + 1;
  ASSERT_EQ(Wrapping * sizeof(float), 0u);
  float Dummy = 0;
  EXPECT_FALSE(R.readFloats(&Dummy, Wrapping));
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.position(), 0u);

  ByteReader Fits(Bytes, sizeof(Bytes));
  float Four[4] = {1, 1, 1, 1};
  EXPECT_TRUE(Fits.readFloats(Four, 4));
  EXPECT_EQ(Four[3], 0.0f);
  EXPECT_FALSE(Fits.readFloats(Four, 1));
}

TEST(BinaryIOTest, VarintsRoundTripAtTheirLengthEdges) {
  // (value, encoded length): each seven-bit boundary, and the top.
  const std::pair<uint64_t, size_t> Cases[] = {
      {0, 1},          {1, 1},           {127, 1},
      {128, 2},        {16383, 2},       {16384, 3},
      {1ull << 56, 9}, {1ull << 63, 10}, {UINT64_MAX, 10}};
  ByteWriter W;
  size_t Expected = 0;
  for (auto [V, Len] : Cases) {
    size_t Before = W.size();
    W.writeVarint(V);
    EXPECT_EQ(W.size() - Before, Len) << V;
    Expected += Len;
  }
  EXPECT_EQ(W.size(), Expected);
  // The writer and the free encoder are one encoder.
  std::string Direct;
  for (auto [V, Len] : Cases)
    appendVarint(Direct, V);
  EXPECT_EQ(Direct, W.bytes());

  ByteReader R(W.bytes());
  for (auto [V, Len] : Cases) {
    uint64_t Back = 0;
    ASSERT_TRUE(R.readVarint(Back));
    EXPECT_EQ(Back, V);
  }
  EXPECT_EQ(R.remaining(), 0u);

  // Zigzag keeps small magnitudes of either sign short.
  EXPECT_EQ(zigzagEncode(0), 0u);
  EXPECT_EQ(zigzagEncode(-1), 1u);
  EXPECT_EQ(zigzagEncode(1), 2u);
  EXPECT_EQ(zigzagEncode(-64), 127u);
  EXPECT_EQ(zigzagEncode(INT64_MAX), UINT64_MAX - 1);
  EXPECT_EQ(zigzagEncode(INT64_MIN), UINT64_MAX);
  ByteWriter Z;
  const int64_t Ints[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t V : Ints)
    Z.writeZigzag(V);
  ByteReader ZR(Z.bytes());
  for (int64_t V : Ints) {
    int64_t Back = 0;
    ASSERT_TRUE(ZR.readZigzag(Back));
    EXPECT_EQ(Back, V);
  }
  EXPECT_EQ(ZR.remaining(), 0u);
}

TEST(BinaryIOTest, MalformedVarintsFailAndLatch) {
  auto Rejects = [](const std::string &Bytes) {
    ByteReader R(Bytes);
    uint64_t V = 0;
    bool Ok = R.readVarint(V);
    return !Ok && !R.ok();
  };
  // Truncated: a continuation bit on the last byte, or no byte at all.
  EXPECT_TRUE(Rejects(""));
  EXPECT_TRUE(Rejects("\x80"));
  EXPECT_TRUE(Rejects("\xFF\xFF"));
  // Eleven bytes: longer than any u64 needs.
  EXPECT_TRUE(Rejects(std::string(10, '\x80') + '\x01'));
  // Ten bytes whose last carries more than bit 63.
  EXPECT_TRUE(Rejects(std::string(9, '\xFF') + '\x02'));
  EXPECT_TRUE(Rejects(std::string(9, '\x80') + '\x7F'));
  // Non-minimal: a zero final byte would give 0 and 1 second encodings.
  EXPECT_TRUE(Rejects(std::string("\x80\x00", 2)));
  EXPECT_TRUE(Rejects(std::string("\x81\x00", 2)));
  // The largest value still reads.
  std::string TopBytes = std::string(9, '\xFF') + '\x01';
  ByteReader Top(TopBytes);
  uint64_t V = 0;
  EXPECT_TRUE(Top.readVarint(V));
  EXPECT_EQ(V, UINT64_MAX);

  // A failed varint latches like every other read.
  const char Bytes[] = {'\x80', 1, 2};
  ByteReader R(Bytes, 1);
  EXPECT_FALSE(R.readVarint(V));
  uint8_t U8 = 0;
  EXPECT_FALSE(R.readU8(U8));
}

TEST(BinaryIOTest, VarStringsViewsAndInPlaceSections) {
  const std::string WithNul("ab\0cd", 5);
  ByteWriter Section;
  Section.writeU32(7);
  Section.writeVarString(WithNul);
  EXPECT_EQ(Section.size(), 4u + 1 + 5);

  // A section's length counts what was written between its begin and
  // end; patches overwrite placeholders in place.
  ByteWriter InPlace;
  size_t LengthAt = InPlace.beginSection(tagOf('T', 'E', 'S', 'T'));
  InPlace.writeU32(7);
  InPlace.writeVarString(WithNul);
  InPlace.endSection(LengthAt);
  EXPECT_EQ(InPlace.size(), 4u + 8 + Section.size());
  InPlace.patchU8(0, 'X');
  ByteReader R(InPlace.bytes());
  uint8_t First = 0;
  uint64_t Len = 0;
  ASSERT_TRUE(R.readU8(First));
  ASSERT_TRUE(R.skip(3));
  ASSERT_TRUE(R.readU64(Len));
  EXPECT_EQ(First, 'X');
  EXPECT_EQ(Len, Section.size());
  EXPECT_EQ(InPlace.bytes().substr(12), Section.bytes());

  // Var strings: bounded by the cap and by the bytes left.
  ByteReader S(Section.bytes());
  const char *View = nullptr;
  ASSERT_TRUE(S.readView(View, 4));
  EXPECT_EQ(View, Section.bytes().data());
  std::string Str;
  ByteReader Capped(Section.bytes().data() + 4, Section.size() - 4);
  EXPECT_FALSE(Capped.readVarString(Str, 4));
  ASSERT_TRUE(S.readVarString(Str, 5));
  EXPECT_EQ(Str, WithNul);
  EXPECT_EQ(S.remaining(), 0u);
  EXPECT_FALSE(S.readView(View, 1));
  ByteReader Short(Section.bytes().data() + 4, Section.size() - 5);
  EXPECT_FALSE(Short.readVarString(Str, 5));
}

namespace {

/// A fresh, empty scratch directory under the gtest temp dir.
std::string freshDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + "/" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Names in \p Dir that look like abandoned atomicWriteFile temps.
size_t countTempFiles(const std::string &Dir) {
  size_t N = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().filename().string().find(".tmp.") != std::string::npos)
      ++N;
  return N;
}

} // namespace

TEST(BinaryIOTest, ReadWholeFileOutcomes) {
  std::string Dir = freshDir("liger_binary_io_read");
  std::string Out;
  EXPECT_EQ(readWholeFile(Dir + "/missing", UINT64_MAX, Out),
            ReadResult::Absent);
  EXPECT_EQ(readWholeFile(Dir, UINT64_MAX, Out), ReadResult::Bad);

  const std::string Bytes("\x00LGTR\xff\n", 7);
  std::string Path = Dir + "/entry";
  {
    std::ofstream F(Path, std::ios::binary);
    F.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  EXPECT_EQ(readWholeFile(Path, Bytes.size() - 1, Out), ReadResult::Bad);
  ASSERT_EQ(readWholeFile(Path, Bytes.size(), Out), ReadResult::Ok);
  EXPECT_EQ(Out, Bytes);

  std::string Empty = Dir + "/empty";
  std::ofstream(Empty, std::ios::binary).close();
  Out = "stale";
  ASSERT_EQ(readWholeFile(Empty, UINT64_MAX, Out), ReadResult::Ok);
  EXPECT_TRUE(Out.empty());
  std::filesystem::remove_all(Dir);
}

TEST(BinaryIOTest, AtomicWriteFileReplacesOrLeavesTargetIntact) {
  std::string Dir = freshDir("liger_binary_io_write");
  std::string Path = Dir + "/file";
  std::string Out;
  ASSERT_TRUE(atomicWriteFile(Path, "first"));
  ASSERT_TRUE(atomicWriteFile(Path, "second"));
  ASSERT_EQ(readWholeFile(Path, UINT64_MAX, Out), ReadResult::Ok);
  EXPECT_EQ(Out, "second");

  // A missing directory: no temp file can be created.
  std::string Error;
  EXPECT_FALSE(atomicWriteFile(Dir + "/no-such-dir/file", "x", &Error));
  EXPECT_NE(Error.find("cannot create temp file"), std::string::npos)
      << Error;

  // A target the rename cannot replace (a non-empty directory): the
  // write fails, the target keeps its contents, no temp file is left.
  std::string Target = Dir + "/target";
  std::filesystem::create_directories(Target);
  ASSERT_TRUE(atomicWriteFile(Target + "/child", "kept"));
  Error.clear();
  EXPECT_FALSE(atomicWriteFile(Target, "replacement", &Error));
  EXPECT_NE(Error.find("cannot rename"), std::string::npos) << Error;
  ASSERT_EQ(readWholeFile(Target + "/child", UINT64_MAX, Out),
            ReadResult::Ok);
  EXPECT_EQ(Out, "kept");
  EXPECT_EQ(countTempFiles(Dir), 0u);
  EXPECT_EQ(countTempFiles(Target), 0u);
  ASSERT_EQ(readWholeFile(Path, UINT64_MAX, Out), ReadResult::Ok);
  EXPECT_EQ(Out, "second");
  std::filesystem::remove_all(Dir);
}
