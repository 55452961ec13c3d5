#ifndef TKLUS_TESTS_BYTE_DUMP_NAME_H_
#define TKLUS_TESTS_BYTE_DUMP_NAME_H_

#include <cstddef>
#include <cstdio>
#include <ostream>

namespace tklus::testing_util {

// Prints `bytes` the way gtest prints a parameter struct that has no
// PrintTo ("16-byte object <00-00 ...>"). A test's PrintTo passes its
// struct's fields copied into a zeroed buffer, so the case keeps the name
// gtest first recorded for it while padding no longer varies the name:
// gtest dumped whatever the padding held, which changed from build to build.
inline void PrintByteDump(const unsigned char* bytes, size_t size,
                          std::ostream* os) {
  *os << size << "-byte object <";
  for (size_t i = 0; i < size; ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    *os << hex;
  }
  *os << '>';
}

}  // namespace tklus::testing_util

#endif  // TKLUS_TESTS_BYTE_DUMP_NAME_H_
