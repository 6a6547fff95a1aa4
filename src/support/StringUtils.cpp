//===-- support/StringUtils.cpp - String and sub-token helpers -----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdio>

using namespace liger;

static bool isUpperAscii(char C) { return C >= 'A' && C <= 'Z'; }
static bool isLowerAscii(char C) { return C >= 'a' && C <= 'z'; }
static bool isDigitAscii(char C) { return C >= '0' && C <= '9'; }
static bool isAlnumAscii(char C) {
  return isUpperAscii(C) || isLowerAscii(C) || isDigitAscii(C);
}

std::vector<std::string> liger::splitSubtokens(const std::string &Identifier) {
  std::vector<std::string> Result;
  std::string Current;
  auto Flush = [&] {
    if (!Current.empty()) {
      Result.push_back(toLower(Current));
      Current.clear();
    }
  };
  for (size_t I = 0; I < Identifier.size(); ++I) {
    char C = Identifier[I];
    if (!isAlnumAscii(C)) {
      Flush();
      continue;
    }
    if (!Current.empty()) {
      char Prev = Current.back();
      bool LowerToUpper = isLowerAscii(Prev) && isUpperAscii(C);
      bool LetterToDigit = !isDigitAscii(Prev) && isDigitAscii(C);
      bool DigitToLetter = isDigitAscii(Prev) && !isDigitAscii(C);
      // "HTTPHeader": break between the last upper of an acronym and the
      // following Upper+lower word start.
      bool AcronymEnd = isUpperAscii(Prev) && isUpperAscii(C) &&
                        I + 1 < Identifier.size() &&
                        isLowerAscii(Identifier[I + 1]);
      if (LowerToUpper || LetterToDigit || DigitToLetter || AcronymEnd)
        Flush();
    }
    Current.push_back(C);
  }
  Flush();
  return Result;
}

std::string liger::join(const std::vector<std::string> &Parts,
                        const std::string &Sep) {
  std::string Result;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

std::string liger::toLower(const std::string &S) {
  std::string Result = S;
  for (char &C : Result)
    if (isUpperAscii(C))
      C = static_cast<char>(C - 'A' + 'a');
  return Result;
}

bool liger::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

bool liger::parseDecimal(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  for (char C : Text) {
    if (!isDigitAscii(C))
      return false;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Value > (UINT64_MAX - Digit) / 10)
      return false;
    Value = Value * 10 + Digit;
  }
  Out = Value;
  return true;
}

std::string liger::trim(const std::string &S) {
  size_t Begin = 0;
  size_t End = S.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

std::string liger::formatDouble(double Value, int Precision) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Precision, Value);
  return Buffer;
}

std::string liger::camelCaseJoin(const std::vector<std::string> &Subtokens) {
  std::string Result;
  for (const std::string &Tok : Subtokens) {
    if (Tok.empty())
      continue;
    if (Result.empty()) {
      Result += Tok;
      continue;
    }
    Result.push_back(
        isLowerAscii(Tok[0]) ? static_cast<char>(Tok[0] - 'a' + 'A') : Tok[0]);
    Result += Tok.substr(1);
  }
  return Result;
}
