//===-- support/StringUtils.h - String and sub-token helpers ---*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers used across the project, most importantly the
/// sub-token splitter underlying the paper's evaluation metric
/// (case-insensitive sub-token precision/recall/F1 over method names,
/// §6.1.1: "computeDiff" -> {"compute", "diff"}).
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SUPPORT_STRINGUTILS_H
#define LIGER_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace liger {

/// Splits an identifier into lower-cased sub-tokens at camelCase
/// boundaries, underscores, digits-to-letter boundaries, and non-alnum
/// separators. "computeDiff" -> {"compute","diff"};
/// "parse_HTTPHeader2" -> {"parse","http","header","2"}.
std::vector<std::string> splitSubtokens(const std::string &Identifier);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Lower-cases ASCII letters.
std::string toLower(const std::string &S);

/// Returns true if \p S starts with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string &S);

/// Parses \p Text as a plain decimal number: one or more ASCII digits,
/// no sign, space or suffix, and no overflow. Returns false (leaving
/// \p Out untouched) otherwise.
bool parseDecimal(const std::string &Text, uint64_t &Out);

/// Renders a double with \p Precision digits after the decimal point.
std::string formatDouble(double Value, int Precision = 2);

/// Builds a camelCase identifier from lower-case sub-tokens:
/// {"compute","diff"} -> "computeDiff".
std::string camelCaseJoin(const std::vector<std::string> &Subtokens);

/// \p Parts (strings, C strings or chars) appended left to right into
/// one string. Use it instead of a `"literal" + std::string` chain:
/// GCC 12 inlines that operator+ as an insert at offset 0 and reports a
/// false -Wrestrict in Release builds.
template <typename... Ts> std::string strCat(const Ts &...Parts) {
  std::string Out;
  ((Out += Parts), ...);
  return Out;
}

} // namespace liger

#endif // LIGER_SUPPORT_STRINGUTILS_H
